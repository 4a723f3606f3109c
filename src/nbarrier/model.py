"""Problem description layer: competition systems of porous-medium type.

A system couples n species through degenerate diffusion d_i (u_i^m)'' and
Lotka-Volterra competition f_i(u) = sigma_i - sum_j c_ij u_j, entering the
wave equation as u_i^{l_i} f_i(u).  This module holds the immutable spec
types, the axis-intercept hull of the competition planes, an exact check of
the sign hypothesis on that hull at its axis vertices, and the boundary-state
characteristic that decides whether the lower bound degenerates to zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import Callable, Sequence

REGION_REL_TOL = 1e-9      # relative tolerance for region membership
SIGN_ABS_TOL = 1e-12       # absolute tolerance for sign checks at the vertices
ZERO_STATE_TOL = 1e-12     # componentwise threshold for the zero equilibrium


def require_finite(**fields) -> None:
    """Raise a ValueError naming the first field with a NaN or +-inf entry.

    Each keyword maps a field name to an iterable of its numbers.  NaN
    passes every sign check (NaN <= 0 is False), so specs call this before
    their range checks.
    """
    for name, values in fields.items():
        for v in values:
            if not isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


def number(value) -> float:
    """A document number as a float; JSON true, false and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def integer(value) -> int:
    """A document integer; a float is accepted only when it is integral."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _list(value):
    # A JSON string is iterable too, so "34" would otherwise read as [3, 4].
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def float_vector(value) -> tuple:
    """A document list of numbers as a tuple of floats."""
    return tuple(number(x) for x in _list(value))


def float_matrix(value) -> tuple:
    """A document list of rows as a tuple of float tuples."""
    return tuple(float_vector(row) for row in _list(value))


def fields_from_dict(doc: dict, converters: dict[str, Callable], kind: str) -> dict:
    """Convert doc[key] with converters[key] for every key, in order.

    Raises a ValueError naming the key when doc holds a key that converters
    do not list, when a key is missing, or when its value has the wrong shape
    or type, or is out of range for its conversion (a scalar where a list
    belongs, a string or true where a number belongs, 2.5 or Infinity where
    an integer belongs).
    """
    unknown = [key for key in doc if key not in converters]
    if unknown:
        raise ValueError(f"{kind} document has unknown key "
                         + ", ".join(repr(key) for key in unknown))
    out = {}
    for key, convert in converters.items():
        if key not in doc:
            raise ValueError(f"{kind} document is missing key {key!r}")
        try:
            out[key] = convert(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} document key {key!r} is malformed: {exc}") from exc
    return out


@dataclass(frozen=True)
class ReactionSpec:
    """Affine competition kinetics: growth rates and competition matrix.

    f_i(u) = sigma[i] - sum_j C[i][j] * u[j].  All rates strictly positive.
    """

    sigma: tuple
    C: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "C", tuple(tuple(row) for row in self.C))
        require_finite(sigma=self.sigma, C=chain.from_iterable(self.C))
        n = len(self.sigma)
        if n == 0:
            raise ValueError("reaction needs at least one species")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("growth rates must be strictly positive")
        if len(self.C) != n or any(len(row) != n for row in self.C):
            raise ValueError(f"competition matrix must be {n}x{n}")
        if any(c <= 0 for row in self.C for c in row):
            raise ValueError("competition coefficients must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class SystemSpec:
    """Full wave-equation data: diffusion, degeneracy exponents, speed, kinetics."""

    n: int
    m: float
    d: tuple
    l: tuple
    theta: float
    reaction: ReactionSpec

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "l", tuple(self.l))
        require_finite(m=(self.m,), d=self.d, l=self.l, theta=(self.theta,))
        if self.n < 1:
            raise ValueError("need at least one species")
        if self.m < 1:
            raise ValueError("diffusion exponent m must be >= 1")
        if len(self.d) != self.n or any(di <= 0 for di in self.d):
            raise ValueError("d must be a positive vector of length n")
        if len(self.l) != self.n or any(li <= 0 for li in self.l):
            raise ValueError("l must be a positive vector of length n")
        if self.reaction.n != self.n:
            raise ValueError("reaction dimension does not match n")


@dataclass(frozen=True)
class HullBounds:
    """Outer and inner axis intercepts bracketing the coexistence region.

    Strict ubar_i > ulow_i > 0 is what the sign hypothesis needs; equality is
    tolerated here with a warning because symmetric coefficient matrices
    produce it, and downstream verification refuses to run on it.
    """

    ubar: tuple
    ulow: tuple

    def __post_init__(self):
        object.__setattr__(self, "ubar", tuple(self.ubar))
        object.__setattr__(self, "ulow", tuple(self.ulow))
        # sigma_j / c_ji overflows to inf for extreme finite rates.
        require_finite(ubar=self.ubar, ulow=self.ulow)
        if len(self.ubar) != len(self.ulow):
            raise ValueError("ubar and ulow must have equal length")
        if any(lo <= 0 for lo in self.ulow):
            raise ValueError("ulow must be strictly positive")
        if any(hi < lo for hi, lo in zip(self.ubar, self.ulow)):
            raise ValueError("ubar must dominate ulow componentwise")
        if any(hi == lo for hi, lo in zip(self.ubar, self.ulow)):
            warnings.warn("degenerate hull: ubar_i == ulow_i for some i", stacklevel=3)

    @property
    def n(self) -> int:
        return len(self.ubar)

    def is_degenerate(self) -> bool:
        return any(hi == lo for hi, lo in zip(self.ubar, self.ulow))


@dataclass(frozen=True)
class Equilibrium:
    """A candidate rest state; nonnegativity is the only intrinsic constraint."""

    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        if any(ui < 0 for ui in self.u):
            raise ValueError("equilibrium components must be nonnegative")

    def is_zero(self, tol: float = ZERO_STATE_TOL) -> bool:
        return all(abs(ui) <= tol for ui in self.u)


def reaction_eval(reaction: ReactionSpec, u: Sequence[float]) -> tuple:
    """Evaluate the affine factors f_i(u) = sigma_i - sum_j c_ij u_j.

    Returns the bracketed competition factor only, without the u_i^{l_i}
    prefactor that multiplies it in the wave equation.
    """
    if len(u) != reaction.n:
        raise ValueError(f"state has length {len(u)}, reaction expects {reaction.n}")
    return tuple(
        s - sum(c * uj for c, uj in zip(row, u))
        for s, row in zip(reaction.sigma, reaction.C)
    )


def equilibrium_defect(spec: SystemSpec, eq: Equilibrium) -> float:
    """Max componentwise magnitude of u_i^{l_i} f_i(u) at the candidate state."""
    f = reaction_eval(spec.reaction, eq.u)
    return max(abs(ui ** li * fi) for ui, li, fi in zip(eq.u, spec.l, f))


def hull_intercepts(reaction: ReactionSpec) -> HullBounds:
    """Extreme axis intercepts of the n competition planes.

    Plane j is sigma_j = sum_i c_ji u_i; its u_i-axis intercept is
    sigma_j / c_ji.  The hull takes the largest and smallest intercept per
    axis.  Emits a degeneracy warning when the two coincide on some axis.
    """
    n = reaction.n
    ubar = tuple(max(reaction.sigma[j] / reaction.C[j][i] for j in range(n)) for i in range(n))
    ulow = tuple(min(reaction.sigma[j] / reaction.C[j][i] for j in range(n)) for i in range(n))
    return HullBounds(ubar=ubar, ulow=ulow)


def chi(e_minus: Equilibrium, e_plus: Equilibrium) -> int:
    """Boundary-state characteristic: 0 if either rest state is zero, else 1."""
    return 0 if e_minus.is_zero() or e_plus.is_zero() else 1


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the exact sign-hypothesis check on the two hull regions.

    The worst points are the axis vertices where the extremes are attained.
    """

    inner_ok: bool
    outer_ok: bool
    worst_inner_point: tuple
    worst_inner_value: float
    worst_outer_point: tuple
    worst_outer_value: float

    @property
    def ok(self) -> bool:
        return self.inner_ok and self.outer_ok


def verify_hypothesis_H(
    spec: SystemSpec,
    hull: HullBounds,
    samples_per_face: int,
    tol: float = SIGN_ABS_TOL,
) -> HypothesisReport:
    """Decide the sign hypothesis on the hull regions exactly, at their vertices.

    Inner region (the solid simplex below the ulow face): every f_i must be
    >= -tol.  Outer region (on and beyond the ubar face, out to twice the
    intercepts): every f_i must be <= +tol.

    Each f_i is affine, so its extremes over a simplex lie at the vertices,
    and since C > 0 it strictly decreases along every ray from the origin.
    Hence the inner minimum is attained at some ulow_k e_k (the origin gives
    f_i = sigma_i, larger than at any axis vertex) and the outer maximum on
    the ubar face, at some ubar_k e_k.  On a tie the vertex on the highest
    axis is reported.

    samples_per_face is still validated but no longer changes the result.
    The check refuses degenerate hulls, where the two regions touch.
    """
    if hull.n != spec.n:
        raise ValueError("hull dimension does not match system")
    if samples_per_face < 1:
        raise ValueError("samples_per_face must be positive")
    if hull.is_degenerate():
        raise ValueError("hypothesis cannot be verified on a degenerate hull")

    n = spec.n

    def vertices(intercepts):
        for k in reversed(range(n)):
            yield tuple(intercepts[k] if i == k else 0.0 for i in range(n))

    inner_val, inner_pt = min(
        ((min(reaction_eval(spec.reaction, u)), u) for u in vertices(hull.ulow)),
        key=lambda vu: vu[0])
    outer_val, outer_pt = max(
        ((max(reaction_eval(spec.reaction, u)), u) for u in vertices(hull.ubar)),
        key=lambda vu: vu[0])

    return HypothesisReport(
        inner_ok=inner_val >= -tol,
        outer_ok=outer_val <= tol,
        worst_inner_point=inner_pt,
        worst_inner_value=inner_val,
        worst_outer_point=outer_pt,
        worst_outer_value=outer_val,
    )


def system_to_dict(spec: SystemSpec) -> dict:
    """JSON-ready document with keys n, m, d, l, theta, sigma, C."""
    return {
        "n": spec.n,
        "m": spec.m,
        "d": list(spec.d),
        "l": list(spec.l),
        "theta": spec.theta,
        "sigma": list(spec.reaction.sigma),
        "C": [list(row) for row in spec.reaction.C],
    }


def system_from_dict(doc: dict) -> SystemSpec:
    """Inverse of system_to_dict; raises ValueError naming any missing or
    malformed key."""
    f = fields_from_dict(doc, {"n": integer, "m": number, "d": float_vector,
                               "l": float_vector, "theta": number,
                               "sigma": float_vector, "C": float_matrix}, "system")
    return SystemSpec(n=f["n"], m=f["m"], d=f["d"], l=f["l"], theta=f["theta"],
                      reaction=ReactionSpec(sigma=f["sigma"], C=f["C"]))
