"""Problem description layer: competition systems of porous-medium type.

A system couples n species through degenerate diffusion d_i (u_i^m)'' and
Lotka-Volterra competition f_i(u) = sigma_i - sum_j c_ij u_j, entering the
wave equation as u_i^{l_i} f_i(u).  This module holds the immutable spec
types, the axis intercepts sigma_j / c_ji of the competition planes and the
hull they bound, and an exact check of the sign hypothesis H on a hull.
The compiled wave kernels live in kernels.

Since C > 0, H holds on a hull exactly when every ulow_k is at most and
every ubar_k at least each intercept on axis k, so the verdict compares the
hull with the intercepts and needs no tolerance; the intercept hull
satisfies H by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from math import inf, isfinite
from typing import Callable, Sequence

REGION_REL_TOL = 1e-9      # relative tolerance for region membership


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


def require_positive(**fields) -> None:
    """Raise a ValueError naming the first field with a NaN, infinite or nonpositive entry."""
    for name, values in fields.items():
        if not all(0.0 < v < inf for v in values):
            require_finite(**{name: values})
            raise ValueError(f"{name} must be strictly positive")


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
        require_positive(ulow=self.ulow)
        if any(hi < lo for hi, lo in zip(self.ubar, self.ulow)):
            raise ValueError("ubar must dominate ulow componentwise")
        if self.is_degenerate():
            warnings.warn("degenerate hull: ubar_i == ulow_i for some i", stacklevel=3)

    @property
    def n(self) -> int:
        return len(self.ubar)

    def is_degenerate(self) -> bool:
        return any(hi == lo for hi, lo in zip(self.ubar, self.ulow))


def vertex_peak(values: list) -> tuple:
    """Largest of values and the simplex vertex e_i attaining it, a tuple of
    0.0 and 1.0; on ties the vertex of the highest index i."""
    largest, i = max(zip(values, range(len(values))))
    return largest, tuple(float(j == i) for j in range(len(values)))


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


def axis_intercepts(sigma: Sequence[float], C: Sequence[Sequence[float]]) -> list:
    """The u_i-axis intercepts [sigma_j / c_ji for each j], one list per axis i.

    Plane j is sigma_j = sum_i c_ji u_i.  There is one axis per rate, and a
    row of C may be longer than sigma: only its first len(sigma) entries
    are read.
    """
    return [[s / row[i] for s, row in zip(sigma, C)] for i in range(len(sigma))]


def hull_intercepts(reaction: ReactionSpec) -> HullBounds:
    """Extreme axis intercepts of the n competition planes.

    The hull takes the largest and smallest intercept per axis.  Emits a
    degeneracy warning when the two coincide on some axis.
    """
    axes = axis_intercepts(reaction.sigma, reaction.C)
    return HullBounds(ubar=map(max, axes), ulow=map(min, axes))


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the exact sign-hypothesis check on the two hull regions.

    The verdicts compare the hull with the axis intercepts.  The worst
    points are the axis vertices where the extremes of f are attained, and
    the worst values those extremes as computed in floating point; they are
    informational and do not decide the verdicts.
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
) -> HypothesisReport:
    """Decide the sign hypothesis on the hull regions exactly.

    Inner region (the solid simplex below the ulow face): every f_j must be
    >= 0.  Outer region (on and beyond the ubar face, out to twice the
    intercepts): every f_j must be <= 0.

    Each f_j is affine, so its extremes over a simplex lie at the vertices,
    and since C > 0 it strictly decreases along every ray from the origin.
    Hence the inner minimum is attained at some ulow_k e_k (the origin gives
    f_j = sigma_j, larger than at any axis vertex) and the outer maximum on
    the ubar face, at some ubar_k e_k.  f_j(u_k e_k) = sigma_j - c_jk u_k
    has the sign of sigma_j / c_jk - u_k, so the verdicts compare the hull
    with the axis intercepts and need no tolerance: inner_ok holds when
    every ulow_k <= min_j sigma_j / c_jk, and outer_ok when every
    ubar_k >= max_j sigma_j / c_jk.  Division rounds monotonically, so a
    hull entry on either side of a rounded intercept is on that side of the
    exact one; an entry equal to it counts as on the plane.  The intercept
    hull, built from the same quotients, satisfies H by construction at
    every scale of sigma.

    The worst values are min_j f_j and max_j f_j at those vertices, read
    per axis k as sigma_j - c_jk u_k off column k of C, with no f evaluated
    at a built point; they can cancel, so they are informational floats.
    vertex_peak picks the worst axis, the highest on ties, and the inner one
    as -max_k(-min_j), which keeps a worst value of 0.0 at +0.0.

    samples_per_face is still validated but does not change the result.
    The check refuses degenerate hulls, where the two regions touch.
    """
    if hull.n != spec.n:
        raise ValueError("hull dimension does not match system")
    if samples_per_face < 1:
        raise ValueError("samples_per_face must be positive")
    if hull.is_degenerate():
        raise ValueError("hypothesis cannot be verified on a degenerate hull")

    sigma, columns = spec.reaction.sigma, list(zip(*spec.reaction.C))
    inner_peak, inner_t = vertex_peak([-min(s - c * lo for s, c in zip(sigma, col))
                                       for col, lo in zip(columns, hull.ulow)])
    outer_peak, outer_t = vertex_peak([max(s - c * hi for s, c in zip(sigma, col))
                                       for col, hi in zip(columns, hull.ubar)])
    axes = axis_intercepts(sigma, spec.reaction.C)

    return HypothesisReport(
        inner_ok=all(lo <= min(axis) for lo, axis in zip(hull.ulow, axes)),
        outer_ok=all(hi >= max(axis) for hi, axis in zip(hull.ubar, axes)),
        worst_inner_point=tuple(t * lo for t, lo in zip(inner_t, hull.ulow)),
        worst_inner_value=-inner_peak,
        worst_outer_point=tuple(t * hi for t, hi in zip(outer_t, hull.ubar)),
        worst_outer_value=outer_peak,
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
