"""Closed-form sup/inf bounds on weighted species totals along wave profiles.

Three evaluation branches:

  * m = 1, where diffusion is linear and the bounds are plain max/min
    expressions with a diffusion-contrast factor,
  * m > 1 general n, where each bound is the innermost plane level of the
    matching barrier envelope,
  * the two-species m = 2 closed forms, transcribed directly so they can
    cross-check the envelope route instead of reusing it.

The lower bound carries the boundary characteristic chi: a zero rest state
at either end collapses it to zero.
"""

from __future__ import annotations

from math import isfinite, sqrt
from operator import mul
from typing import Callable, Sequence

from .barrier import ORDER_REL_SLACK, build_lower_barrier, build_upper_barrier
from .model import (HullBounds, SystemSpec, hull_intercepts, record, record_dict,
                    require_positive, require_vectors)

BRANCH_M1 = "m1"
BRANCH_GENERAL = "general"
BRANCH_TWO_SPECIES_M2 = "two_species_m2"


@record
class BoundsResult:
    """Lower and upper bounds on a weighted species total, the boundary
    characteristic chi, and the branch that computed them."""

    lower: float
    upper: float
    chi: int
    branch: str

    def __post_init__(self):
        # First, as a NaN or infinite chi makes the lower bound non-finite.
        if self.chi not in (0, 1):
            raise ValueError("chi must be 0 or 1")
        # Weighted intercepts can overflow to inf (and inf * chi = 0 to NaN).
        if not (isfinite(self.lower) and isfinite(self.upper)):
            raise ValueError(f"bounds must be finite, got lower {self.lower!r} and upper "
                             f"{self.upper!r}; the parameters overflow floating point")
        if self.chi == 0 and self.lower != 0.0:
            raise ValueError("chi = 0 forces a zero lower bound")
        if self.upper <= 0:
            raise ValueError("upper bound must be positive")
        if self.lower > self.upper * (1.0 + ORDER_REL_SLACK):
            raise ValueError("lower bound exceeds upper bound")

    def to_dict(self) -> dict:
        return record_dict(self)


def bounds_m1(alpha: Sequence[float], d: Sequence[float], hull: HullBounds,
              chi: int) -> BoundsResult:
    """Linear-diffusion bounds: extremal weighted intercepts times d-contrast."""
    require_vectors(hull.n, alpha=alpha, d=d)
    dmax, dmin = max(d), min(d)
    upper = max(map(mul, alpha, hull.ubar)) * dmax / dmin
    lower = min(map(mul, alpha, hull.ulow)) * dmin / dmax * chi
    return BoundsResult(lower=lower, upper=upper, chi=chi, branch=BRANCH_M1)


def bounds_general(alpha: Sequence[float], d: Sequence[float], hull: HullBounds,
                   m: float, chi: int) -> BoundsResult:
    """Degenerate-diffusion bounds for any n, via the barrier envelopes.

    The innermost plane level of each envelope is the bound; the algebraic
    radical displays for these levels are identical to the envelope
    composition, so this delegates rather than re-transcribing them.
    """
    if m <= 1:
        raise ValueError("bounds_general needs m > 1; use bounds_m1 at m = 1")
    upper = build_upper_barrier(alpha, d, hull.ubar, m).eta2
    lower = build_lower_barrier(alpha, d, hull.ulow, m).eta2 * chi
    return BoundsResult(lower=lower, upper=upper, chi=chi, branch=BRANCH_GENERAL)


def bounds_for(spec: SystemSpec, alpha: Sequence[float], chi: int) -> BoundsResult:
    """Band on sum_i alpha_i u_i for a system, on its intercept hull.

    Dispatches to bounds_m1 at m = 1 and to bounds_general for m > 1.
    """
    hull = hull_intercepts(spec.reaction)
    if spec.m == 1:
        return bounds_m1(alpha, spec.d, hull, chi)
    return bounds_general(alpha, spec.d, hull, spec.m, chi)


def two_species_m2_upper(alpha1: float, alpha2: float, d1: float, d2: float,
                         ubar1: float, ubar2: float) -> float:
    """Direct transcription of the two-species m = 2 upper closed form."""
    require_positive(parameters=(alpha1, alpha2, d1, d2, ubar1, ubar2))
    return (alpha1 / d1 + alpha2 / d2) * sqrt(
        max(d1 / alpha1, d2 / alpha2)
        * max(alpha1 * d1 * ubar1 ** 2, alpha2 * d2 * ubar2 ** 2))


def two_species_m2_lower(alpha1: float, alpha2: float, d1: float, d2: float,
                         ulow1: float, ulow2: float) -> float:
    """Direct transcription of the two-species m = 2 lower closed form."""
    require_positive(parameters=(alpha1, alpha2, d1, d2, ulow1, ulow2))
    return (d1 * d2 * ulow1 * ulow2
            * min(alpha1 / d1, alpha2 / d2)
            * sqrt(alpha1 * alpha2
                   / ((alpha1 * d1 * ulow1 ** 2 + alpha2 * d2 * ulow2 ** 2)
                      * (alpha1 * d2 + alpha2 * d1))))


def bounds_two_species_m2(alpha1: float, alpha2: float, d1: float, d2: float,
                          hull: HullBounds, chi: int) -> BoundsResult:
    """Two-species m = 2 bounds from the corollary-style closed forms.

    Kept independent of the envelope route on purpose; tests pin the two
    routes against each other at relative 1e-12.
    """
    if hull.n != 2:
        raise ValueError("two-species branch needs a 2d hull")
    upper = _named_range_fault("upper", two_species_m2_upper,
                               alpha1, alpha2, d1, d2, hull.ubar[0], hull.ubar[1])
    lower = _named_range_fault("lower", two_species_m2_lower,
                               alpha1, alpha2, d1, d2, hull.ulow[0], hull.ulow[1]) * chi
    return BoundsResult(lower=lower, upper=upper, chi=chi,
                        branch=BRANCH_TWO_SPECIES_M2)


def _named_range_fault(end: str, closed_form: Callable, *args) -> float:
    """closed_form(*args), the bound at end ("upper" or "lower"), with a
    ValueError naming that end where a square of a hull entry overflows
    (OverflowError) or the lower form's squares both underflow to 0
    (ZeroDivisionError)."""
    try:
        return closed_form(*args)
    except OverflowError:
        raise ValueError(f"{end} bound overflows; the parameters overflow floating point"
                         ) from None
    except ZeroDivisionError:
        raise ValueError(f"{end} bound divides by squares of the hull entries that underflow "
                         "to 0; the parameters underflow floating point") from None
