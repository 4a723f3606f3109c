"""Nested barrier geometry: tangency algebra and two-step envelope builds.

The two level-set families are planes p(u) = sum_i alpha_i u_i = eta and
hyper-ellipsoids q(u) = sum_i alpha_i d_i u_i^m = lambda, m > 1.  A lower
envelope nests plane inside ellipsoid inside plane inside ellipsoid inside
the inner hull region; an upper envelope runs the same alternation outward
from the outer hull face.  Each step is a tangency computation with a closed
form, derived by Lagrange multipliers on the convex form q.

verify_containment checks the chain independently of those closed forms,
on boundary points sampled from one simplex lattice.  p is homogeneous of
degree 1 and q of degree m, so on a level set reached by scaling a lattice
point t the value of the next set's function is a level factor times a sum
over t: one walk of the lattice checks all four links.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from operator import mul
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
        levels = (self.lambda1, self.eta1, self.lambda2, self.eta2)
        # A product of finite factors can overflow to inf for extreme weights.
        if not all(isfinite(v) for v in levels):
            raise ValueError(f"envelope levels must be finite, got {levels}; "
                             "the parameters overflow floating point")
        if min(levels) <= 0:
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


def _level(name: str, value: float) -> float:
    """A level built from positive finite factors; 0 means it underflowed."""
    if value == 0.0:
        raise ValueError(f"envelope level {name} underflows to 0; "
                         "the parameters underflow floating point")
    return value


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
    eta1 = _level("eta1", (lambda1 * shrink) ** (1.0 / m))
    lambda2 = tangency_plain(eta1, alpha, d, m).Lambda
    eta2 = _level("eta2", (lambda2 * shrink) ** (1.0 / m))
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
    lambda1 = _level("lambda1", max(a * di * hi ** m for a, di, hi in zip(alpha, d, ubar)))
    eta1 = _level("eta1", lambda1 ** (1.0 / m) * S ** ((m - 1.0) / m))
    lambda2 = _level("lambda2", eta1 ** m * grow)
    eta2 = _level("eta2", lambda2 ** (1.0 / m) * S ** ((m - 1.0) / m))
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


def _simplex_lattice(n: int, resolution: int):
    """Integer compositions k with sum(k) == resolution, as barycentric weights.

    The compositions come in lexicographic order and none is made only to be
    rejected: the successor of k moves one unit from its rightmost nonzero
    entry k_j into k_(j-1) and puts the rest of k_j into the last entry.
    """
    weights = [i / resolution for i in range(resolution + 1)]
    k = [0] * (n - 1) + [resolution]
    while True:
        yield tuple(map(weights.__getitem__, k))
        j = n - 1
        while not k[j]:
            j -= 1
        if j == 0:
            return
        rest = k[j] - 1
        k[j] = 0
        k[j - 1] += 1
        k[-1] = rest


def _plane_point(eta, alpha, t):
    return tuple(eta * ti / a for ti, a in zip(t, alpha))


def _ellipsoid_point(lam, alpha, d, m, t):
    scale = (lam / _q_value(t, alpha, d, m)) ** (1.0 / m)
    return tuple(scale * ti for ti in t)


def _face_point(intercepts, t):
    return tuple(ti * ci for ti, ci in zip(t, intercepts))


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
        ("plane_eta1", (_plane_point(envelope.eta1, alpha, t) for t in _simplex_lattice(n, r))),
        ("plane_eta2", (_plane_point(envelope.eta2, alpha, t) for t in _simplex_lattice(n, r))),
        ("ellipsoid_lambda1", (_ellipsoid_point(envelope.lambda1, alpha, d, m, t)
                               for t in _simplex_lattice(n, r))),
        ("ellipsoid_lambda2", (_ellipsoid_point(envelope.lambda2, alpha, d, m, t)
                               for t in _simplex_lattice(n, r))),
        ("hull_face", (_face_point(face, t) for t in _simplex_lattice(n, r))),
    )


def verify_containment(envelope: BarrierEnvelope, hull: HullBounds, samples: int,
                       orientation: str | None = None,
                       tol: float = REGION_REL_TOL) -> ContainmentReport:
    """Check each link of the envelope's nesting chain on one simplex lattice.

    samples is the lattice resolution.  Each boundary is the lattice of
    points t >= 0 with sum_i t_i = 1, scaled onto its level set: eta t_i /
    alpha_i on a plane, lambda^(1/m) t / q(t)^(1/m) on an ellipsoid and
    ubar_i t_i on the outer hull face.  Since p has degree 1 and q degree m,
    the value a link checks at such a point is a level factor times one of
    three sums over t:

        plane in ellipsoid         q = eta^m * sum_i d_i alpha_i^(1-m) t_i^m
        ellipsoid in plane         p = lambda^(1/m) * p(t) / q(t)^(1/m)
        ellipsoid in inner hull        lambda^(1/m) * sum_i (t_i / ulow_i) / q(t)^(1/m)
        outer hull face in ellipsoid   q = sum_i alpha_i d_i ubar_i^m t_i^m

    So one walk of the lattice, taking t_i^m once per point, checks every
    link.  Each sum keeps its largest value and the first point in lattice
    order that attains it; a link's worst margin (limit - value) / limit and
    its worst point come from there.  Axis intercepts of every inner set are
    lattice vertices, which is where the construction is tight, so the
    checks run with a relative slack tol.  A link value that overflows
    floating point raises a ValueError naming the link.  Passing an explicit
    orientation that differs from the envelope's is a usage error.
    """
    if orientation is not None and orientation != envelope.orientation:
        raise ValueError(
            f"requested {orientation} chain for a {envelope.orientation} envelope")
    if hull.n != len(envelope.weights):
        raise ValueError("hull dimension does not match envelope")
    if samples < 1:
        raise ValueError("samples must be positive")

    alpha, d, m = envelope.weights, envelope.d, envelope.m
    inv_m = 1.0 / m
    lower = envelope.orientation == "lower"
    w_q = tuple(a * di for a, di in zip(alpha, d))
    w_plane = tuple(di * a ** (1.0 - m) for a, di in zip(alpha, d))
    if lower:
        w_hull = tuple(1.0 / lo for lo in hull.ulow)
    else:
        w_hull = tuple(a * di * hi ** m for a, di, hi in zip(alpha, d, hull.ubar))

    # Per sum: its largest value, the first point attaining it, and a
    # running total, which any value that overflowed leaves non-finite.
    plane_max = ray_max = hull_max = -inf
    plane_t = ray_t = hull_t = None
    plane_total = ray_total = hull_total = 0.0
    for t in _simplex_lattice(len(alpha), samples):
        tm = [ti ** m for ti in t]
        q_root = sum(map(mul, w_q, tm)) ** inv_m
        s = sum(map(mul, w_plane, tm))
        plane_total += s
        if s > plane_max:
            plane_max, plane_t = s, t
        s = sum(map(mul, alpha, t)) / q_root
        ray_total += s
        if s > ray_max:
            ray_max, ray_t = s, t
        s = sum(map(mul, w_hull, t)) / q_root if lower else sum(map(mul, w_hull, tm))
        hull_total += s
        if s > hull_max:
            hull_max, hull_t = s, t
    plane_peak = plane_max, plane_t, plane_total
    ray_peak = ray_max, ray_t, ray_total
    hull_peak = hull_max, hull_t, hull_total

    def on_plane(eta):
        return eta ** m, lambda t: _plane_point(eta, alpha, t)

    def on_ellipsoid(lam):
        def point(t):
            scale = lam ** inv_m / sum(map(mul, w_q, [ti ** m for ti in t])) ** inv_m
            return tuple(scale * ti for ti in t)
        return lam ** inv_m, point

    lam1, eta1, lam2, eta2 = envelope.lambda1, envelope.eta1, envelope.lambda2, envelope.eta2
    # (name, peak of its sum, (level factor, boundary point of t), outer level),
    # innermost link first.
    if lower:
        links = (("plane_eta2_in_ellipsoid_lambda2", plane_peak, on_plane(eta2), lam2),
                 ("ellipsoid_lambda2_in_plane_eta1", ray_peak, on_ellipsoid(lam2), eta1),
                 ("plane_eta1_in_ellipsoid_lambda1", plane_peak, on_plane(eta1), lam1),
                 ("ellipsoid_lambda1_in_inner_hull", hull_peak, on_ellipsoid(lam1), 1.0))
    else:
        links = (("outer_hull_face_in_ellipsoid_lambda1", hull_peak,
                  (1.0, lambda t: _face_point(hull.ubar, t)), lam1),
                 ("ellipsoid_lambda1_in_plane_eta1", ray_peak, on_ellipsoid(lam1), eta1),
                 ("plane_eta1_in_ellipsoid_lambda2", plane_peak, on_plane(eta1), lam2),
                 ("ellipsoid_lambda2_in_plane_eta2", ray_peak, on_ellipsoid(lam2), eta2))
    reports = []
    for name, (largest, t, total), (factor, point), limit in links:
        value = factor * largest
        if not (isfinite(value) and isfinite(total)):
            raise ValueError(f"containment link {name} is not finite; "
                             "the parameters overflow floating point")
        reports.append(LinkReport(name=name, ok=value <= limit * (1.0 + tol),
                                  worst_margin=(limit - value) / limit,
                                  worst_point=point(t)))
    return ContainmentReport(links=tuple(reports))
