"""Nested barrier geometry: tangency algebra and two-step envelope builds.

The two level-set families are planes p(u) = sum_i alpha_i u_i = eta and
hyper-ellipsoids q(u) = sum_i alpha_i d_i u_i^m = lambda, m > 1.  A lower
envelope nests plane inside ellipsoid inside plane inside ellipsoid inside
the inner hull region; an upper envelope runs the same alternation outward
from the outer hull face.  Each step is a tangency computation with a closed
form, derived by Lagrange multipliers on the convex form q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .model import REGION_REL_TOL, HullBounds

ORDER_REL_SLACK = 1e-12  # fp slack when validating envelope ordering


@dataclass(frozen=True)
class TangencyResult:
    """Level value and point of tangency between a plane and an ellipsoid."""

    Lambda: float
    point: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))
        if self.Lambda <= 0:
            raise ValueError("tangency level must be positive")
        if any(ui <= 0 for ui in self.point):
            raise ValueError("tangent point must be strictly positive")


@dataclass(frozen=True)
class BarrierEnvelope:
    """The four nested level values of one barrier, with their build data.

    lambda1/eta1 are the outer pair and lambda2/eta2 the inner pair for the
    lower orientation; the upper orientation reverses the ordering.
    """

    lambda1: float
    eta1: float
    lambda2: float
    eta2: float
    orientation: str
    weights: tuple
    m: float
    d: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "d", tuple(self.d))
        if self.orientation not in ("lower", "upper"):
            raise ValueError("orientation must be 'lower' or 'upper'")
        if min(self.lambda1, self.eta1, self.lambda2, self.eta2) <= 0:
            raise ValueError("envelope levels must be positive")
        slack = 1.0 + ORDER_REL_SLACK
        if self.orientation == "lower":
            ordered = self.lambda2 <= self.lambda1 * slack and self.eta2 <= self.eta1 * slack
        else:
            ordered = self.lambda2 * slack >= self.lambda1 and self.eta2 * slack >= self.eta1
        if not ordered:
            raise ValueError(f"envelope levels violate {self.orientation} ordering")

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "eta1": self.eta1,
            "lambda2": self.lambda2,
            "eta2": self.eta2,
            "orientation": self.orientation,
        }


def _require_exponent_domain(m: float):
    if m <= 1:
        raise ValueError("tangency exponents 1/(m-1) need m > 1")


def _check_vectors(*vectors: Sequence[float]):
    n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise ValueError("vector lengths must agree")
        if any(x <= 0 for x in v):
            raise ValueError("vectors must be strictly positive")
    return n


def tangency_weighted(Theta: float, alpha: Sequence[float], d: Sequence[float],
                      ulow: Sequence[float], m: float) -> TangencyResult:
    """Tangency of the weighted plane sum_i u_i/ulow_i = Theta with q = Lambda.

    Minimizing q over the plane gives the largest ellipsoid still inside it:

        Lambda = Theta^m * (sum_j (alpha_j d_j ulow_j^m)^(-1/(m-1)))^(1-m)

    and the minimizer u_i = Theta/S * (alpha_i d_i ulow_i)^(-1/(m-1)) with S
    the sum above.  Requires m > 1; the exponent is singular at m = 1.
    """
    _require_exponent_domain(m)
    if Theta <= 0:
        raise ValueError("Theta must be positive")
    _check_vectors(alpha, d, ulow)
    e = 1.0 / (m - 1.0)
    S = sum((a * di * lo ** m) ** -e for a, di, lo in zip(alpha, d, ulow))
    Lambda = Theta ** m * S ** (1.0 - m)
    point = tuple((Theta / S) * (a * di * lo) ** -e for a, di, lo in zip(alpha, d, ulow))
    return TangencyResult(Lambda=Lambda, point=point)


def tangency_plain(Theta: float, alpha: Sequence[float], d: Sequence[float],
                   m: float) -> TangencyResult:
    """Tangency of the plane sum_i alpha_i u_i = Theta with q = Lambda.

    The weighted case with ulow_i = 1/alpha_i:

        Lambda = Theta^m * (sum_i alpha_i / d_i^(1/(m-1)))^(1-m)
    """
    _check_vectors(alpha, d)
    return tangency_weighted(Theta, alpha, d, tuple(1.0 / a for a in alpha), m)


def build_lower_barrier(alpha: Sequence[float], d: Sequence[float],
                        ulow: Sequence[float], m: float) -> BarrierEnvelope:
    """Nest two plane/ellipsoid pairs inside the inner hull region.

    Step order: largest ellipsoid q <= lambda1 inside the ulow face, largest
    plane p <= eta1 inside it, largest ellipsoid q <= lambda2 inside that
    plane, largest plane p <= eta2 inside again.  eta2 is the closed-form
    lower bound on p along any admissible wave profile (before the boundary
    characteristic factor).
    """
    _require_exponent_domain(m)
    _check_vectors(alpha, d, ulow)
    shrink = min(a ** (m - 1.0) / di for a, di in zip(alpha, d))
    lambda1 = tangency_weighted(1.0, alpha, d, ulow, m).Lambda
    eta1 = (lambda1 * shrink) ** (1.0 / m)
    lambda2 = tangency_plain(eta1, alpha, d, m).Lambda
    eta2 = (lambda2 * shrink) ** (1.0 / m)
    return BarrierEnvelope(lambda1=lambda1, eta1=eta1, lambda2=lambda2, eta2=eta2,
                           orientation="lower", weights=tuple(alpha), m=m, d=tuple(d))


def build_upper_barrier(alpha: Sequence[float], d: Sequence[float],
                        ubar: Sequence[float], m: float) -> BarrierEnvelope:
    """Nest two plane/ellipsoid pairs outside the outer hull face.

    Step order: smallest ellipsoid containing the ubar face (vertex maximum),
    tangent plane containing that ellipsoid, smallest ellipsoid containing
    the plane's simplex (vertex maximum again), tangent plane once more.
    eta2 is the closed-form upper bound on p.
    """
    _require_exponent_domain(m)
    _check_vectors(alpha, d, ubar)
    e = 1.0 / (m - 1.0)
    S = sum(a * di ** -e for a, di in zip(alpha, d))
    grow = max(di / a ** (m - 1.0) for a, di in zip(alpha, d))
    lambda1 = max(a * di * hi ** m for a, di, hi in zip(alpha, d, ubar))
    eta1 = lambda1 ** (1.0 / m) * S ** ((m - 1.0) / m)
    lambda2 = eta1 ** m * grow
    eta2 = lambda2 ** (1.0 / m) * S ** ((m - 1.0) / m)
    return BarrierEnvelope(lambda1=lambda1, eta1=eta1, lambda2=lambda2, eta2=eta2,
                           orientation="upper", weights=tuple(alpha), m=m, d=tuple(d))


@dataclass(frozen=True)
class LinkReport:
    """One containment link: inner set's boundary against the outer inequality."""

    name: str
    ok: bool
    worst_margin: float
    worst_point: tuple


@dataclass(frozen=True)
class ContainmentReport:
    links: tuple

    @property
    def ok(self) -> bool:
        return all(link.ok for link in self.links)


def _q_value(u, alpha, d, m):
    return sum(a * di * ui ** m for a, di, ui in zip(alpha, d, u))


def _p_value(u, alpha):
    return sum(a * ui for a, ui in zip(alpha, u))


def _simplex_lattice(n: int, resolution: int):
    """Integer compositions k with sum(k) == resolution, as barycentric weights."""
    for k in product(range(resolution + 1), repeat=n - 1):
        rest = resolution - sum(k)
        if rest >= 0:
            yield tuple(ki / resolution for ki in k) + (rest / resolution,)


def _plane_points(eta, alpha, n, resolution):
    for t in _simplex_lattice(n, resolution):
        yield tuple(eta * ti / a for ti, a in zip(t, alpha))


def _ellipsoid_points(lam, alpha, d, m, n, resolution):
    for t in _simplex_lattice(n, resolution):
        scale = (lam / _q_value(t, alpha, d, m)) ** (1.0 / m)
        yield tuple(scale * ti for ti in t)


def _face_points(intercepts, n, resolution):
    for t in _simplex_lattice(n, resolution):
        yield tuple(ti * ci for ti, ci in zip(t, intercepts))


def barrier_curves(envelope: BarrierEnvelope, hull: HullBounds, samples: int) -> tuple:
    """Lattice points on each barrier piece, as (name, points) pairs.

    The sets are plane_eta1, plane_eta2, ellipsoid_lambda1, ellipsoid_lambda2
    and hull_face (the ulow face for a lower envelope, the ubar face for an
    upper one), each sampled at lattice resolution samples.  The point sets
    are lazy iterators of tuples.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    alpha, d, m = envelope.weights, envelope.d, envelope.m
    n, r = len(alpha), samples
    face = hull.ulow if envelope.orientation == "lower" else hull.ubar
    return (
        ("plane_eta1", _plane_points(envelope.eta1, alpha, n, r)),
        ("plane_eta2", _plane_points(envelope.eta2, alpha, n, r)),
        ("ellipsoid_lambda1", _ellipsoid_points(envelope.lambda1, alpha, d, m, n, r)),
        ("ellipsoid_lambda2", _ellipsoid_points(envelope.lambda2, alpha, d, m, n, r)),
        ("hull_face", _face_points(face, n, r)),
    )


def _check_link(name, points, outer_value, limit, tol):
    """Evaluate outer_value over points; containment means value <= limit."""
    ok = True
    worst_margin = float("inf")
    worst_point = None
    for u in points:
        value = outer_value(u)
        margin = (limit - value) / limit
        if margin < worst_margin:
            worst_margin, worst_point = margin, u
        if value > limit * (1.0 + tol):
            ok = False
    return LinkReport(name=name, ok=ok, worst_margin=worst_margin,
                      worst_point=tuple(worst_point))


def verify_containment(envelope: BarrierEnvelope, hull: HullBounds, samples: int,
                       orientation: str | None = None,
                       tol: float = REGION_REL_TOL) -> ContainmentReport:
    """Sample each link of the envelope's nesting chain and check containment.

    samples is the lattice resolution per boundary face.  Axis intercepts of
    every inner set are always included through the lattice vertices, which
    is where the construction is tight, so the checks run with a relative
    slack tol.  Passing an explicit orientation that differs from the
    envelope's is a usage error.
    """
    if orientation is not None and orientation != envelope.orientation:
        raise ValueError(
            f"requested {orientation} chain for a {envelope.orientation} envelope")
    if hull.n != len(envelope.weights):
        raise ValueError("hull dimension does not match envelope")
    if samples < 1:
        raise ValueError("samples must be positive")

    alpha, d, m = envelope.weights, envelope.d, envelope.m
    n = len(alpha)
    r = samples
    q = lambda u: _q_value(u, alpha, d, m)
    p = lambda u: _p_value(u, alpha)

    # (name, boundary points, level function, level), innermost level first;
    # each link checks one entry's boundary against the next entry's level.
    chain = (
        ("plane_eta2", _plane_points(envelope.eta2, alpha, n, r), p, envelope.eta2),
        ("ellipsoid_lambda2", _ellipsoid_points(envelope.lambda2, alpha, d, m, n, r),
         q, envelope.lambda2),
        ("plane_eta1", _plane_points(envelope.eta1, alpha, n, r), p, envelope.eta1),
        ("ellipsoid_lambda1", _ellipsoid_points(envelope.lambda1, alpha, d, m, n, r),
         q, envelope.lambda1),
    )
    if envelope.orientation == "lower":
        hull_excess = lambda u: sum(ui / lo for ui, lo in zip(u, hull.ulow))
        chain += (("inner_hull", None, hull_excess, 1.0),)
    else:
        chain = (("outer_hull_face", _face_points(hull.ubar, n, r), None, None),) + chain[::-1]
    return ContainmentReport(links=tuple(
        _check_link(f"{inner}_in_{outer}", points, value, limit, tol)
        for (inner, points, _, _), (outer, _, value, limit) in zip(chain, chain[1:])))
