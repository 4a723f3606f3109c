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
over t: one walk of the lattice checks all four links.  The walk takes each
product w_i t_i^m or w_i t_i from a per-call table indexed by coordinate and
lattice index, so its memory is O(n * samples) whatever the lattice size.
Lattice points that share their first n - 2 coordinates share those
coordinates' partial sums, and an inner loop over the last two coordinates
finishes each sum in the same left-to-right order as a point-by-point walk.
barrier_curves scales the same lattice onto the same five pieces.
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


def _compositions(parts: int, total: int):
    """Integer compositions k of total into parts entries, in lexicographic order.

    One list is yielded, updated in place, and none is made only to be
    rejected: the successor of k moves one unit from its rightmost nonzero
    entry k_j into k_(j-1) and puts the rest of k_j into the last entry.
    """
    k = [0] * (parts - 1) + [total]
    while True:
        yield k
        j = parts - 1
        while not k[j]:
            j -= 1
        if j == 0:
            return
        rest = k[j] - 1
        k[j] = 0
        k[j - 1] += 1
        k[-1] = rest


def _simplex_lattice(n: int, resolution: int):
    """The compositions of resolution into n parts, as barycentric weights."""
    weights = [i / resolution for i in range(resolution + 1)]
    for k in _compositions(n, resolution):
        yield tuple(map(weights.__getitem__, k))


def _pieces(envelope: BarrierEnvelope, hull: HullBounds) -> dict:
    """The five barrier pieces by name, as (level factor, boundary point of t).

    Points and factors are those verify_containment lists.  The ellipsoid
    scale lambda^(1/m) / q(t)^(1/m) cannot overflow where (lambda / q(t))^(1/m)
    does.  The hull face is the ulow face for a lower envelope and the ubar
    face for an upper one.
    """
    alpha, d, m = envelope.weights, envelope.d, envelope.m
    inv_m = 1.0 / m
    w_q = tuple(a * di for a, di in zip(alpha, d))
    face = hull.ulow if envelope.orientation == "lower" else hull.ubar

    def plane(eta):
        try:
            factor = eta ** m
        except OverflowError:  # eta2^m of an upper envelope, which no link uses
            factor = inf
        return factor, lambda t: tuple(eta * ti / a for ti, a in zip(t, alpha))

    def ellipsoid(lam):
        root = lam ** inv_m

        def point(t):
            scale = root / sum(map(mul, w_q, [ti ** m for ti in t])) ** inv_m
            return tuple(scale * ti for ti in t)
        return root, point

    return {
        "plane_eta1": plane(envelope.eta1),
        "plane_eta2": plane(envelope.eta2),
        "ellipsoid_lambda1": ellipsoid(envelope.lambda1),
        "ellipsoid_lambda2": ellipsoid(envelope.lambda2),
        "hull_face": (1.0, lambda t: tuple(ti * ci for ti, ci in zip(t, face))),
    }


def barrier_curves(envelope: BarrierEnvelope, hull: HullBounds, samples: int) -> tuple:
    """Lattice points on each barrier piece, as (name, points) pairs.

    The sets are plane_eta1, plane_eta2, ellipsoid_lambda1, ellipsoid_lambda2
    and hull_face (the ulow face for a lower envelope, the ubar face for an
    upper one), each sampled at lattice resolution samples.  The point sets
    are lazy iterators of tuples.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = len(envelope.weights)
    return tuple((name, map(point, _simplex_lattice(n, samples)))
                 for name, (_, point) in _pieces(envelope, hull).items())


def _lattice_peaks(envelope: BarrierEnvelope, hull: HullBounds, samples: int) -> tuple:
    """Peaks of the plane sum, p(t) / q(t)^(1/m) and the hull sum on the lattice.

    Each peak is (largest value, first lattice point attaining it, running
    total); a value that overflowed leaves the total non-finite.
    """
    alpha, d, m = envelope.weights, envelope.d, envelope.m
    inv_m = 1.0 / m
    lower = envelope.orientation == "lower"
    n = len(alpha)
    weights = [k / samples for k in range(samples + 1)]
    powers = [t ** m for t in weights]
    w_q = tuple(a * di for a, di in zip(alpha, d))
    w_plane = tuple(di * a ** (1.0 - m) for a, di in zip(alpha, d))
    if lower:
        w_hull, hull_powers = tuple(1.0 / lo for lo in hull.ulow), weights
    else:
        w_hull = tuple(a * di * hi ** m for a, di, hi in zip(alpha, d, hull.ubar))
        hull_powers = powers
    # tables[sum][i][k] is coordinate i's product at t_i = k / samples in the
    # sums q(t), plane, p(t) and hull, named q, c, p and h below.
    tables = [[[wi * x for x in xs] for wi in w]
              for w, xs in ((w_q, powers), (w_plane, powers), (alpha, weights),
                            (w_hull, hull_powers))]
    if n == 1:
        # The lattice is the one point t = (1.0,): each sum is one product.
        sq, sc, sp, sh = (rows[0][samples] for rows in tables)
        root = sq ** inv_m
        return tuple((s, (1.0,), s) for s in (sc, sp / root, sh / root if lower else sh))

    head = list(zip(*(rows[:n - 2] for rows in tables)))
    q2, c2, p2, h2 = (rows[n - 2] for rows in tables)
    # The last coordinate's rows reversed: entry samples - rest + a is k = rest - a.
    q1, c1, p1, h1 = (rows[n - 1][::-1] for rows in tables)
    plane_max = ray_max = hull_max = -inf
    plane_at = ray_at = hull_at = None
    plane_total = ray_total = hull_total = 0.0
    for k in _compositions(n - 1, samples):
        # k is the first n - 2 coordinates and the rest, which the inner
        # loop splits into a and rest - a; every sum adds left to right.
        sq = sc = sp = sh = 0.0
        for (qi, ci, pi, hi), ki in zip(head, k):
            sq += qi[ki]
            sc += ci[ki]
            sp += pi[ki]
            sh += hi[ki]
        prefix, rest = tuple(k), k[-1]
        skip = samples - rest
        for a, xq2, xq1, xc2, xc1, xp2, xp1, xh2, xh1 in zip(
                range(rest + 1), q2, q1[skip:], c2, c1[skip:], p2, p1[skip:], h2, h1[skip:]):
            root = (sq + xq2 + xq1) ** inv_m
            s = sc + xc2 + xc1
            plane_total += s
            if s > plane_max:
                plane_max, plane_at = s, (prefix, a)
            s = (sp + xp2 + xp1) / root
            ray_total += s
            if s > ray_max:
                ray_max, ray_at = s, (prefix, a)
            s = sh + xh2 + xh1
            if lower:
                s /= root
            hull_total += s
            if s > hull_max:
                hull_max, hull_at = s, (prefix, a)

    def point(at):
        if at is None:  # every value was NaN; the total stops the link
            return None
        prefix, a = at
        return tuple(map(weights.__getitem__, prefix[:-1] + (a, prefix[-1] - a)))
    return ((plane_max, point(plane_at), plane_total), (ray_max, point(ray_at), ray_total),
            (hull_max, point(hull_at), hull_total))


def verify_containment(envelope: BarrierEnvelope, hull: HullBounds, samples: int,
                       orientation: str | None = None) -> ContainmentReport:
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

    So one walk of the lattice checks every link.  The walk takes its
    products of t_i = k / samples from tables built once per call, four rows
    of samples + 1 entries per coordinate: memory is O(n * samples) and no
    lattice point is stored.  The first n - 2 coordinates' partial sums are
    formed once per prefix, and an inner loop over the last two coordinates,
    a and rest - a, adds theirs; that is the left-to-right order of a
    point-by-point walk, so every sum is the same float.  Each sum keeps its
    largest value and the first point in lattice order that attains it; a
    link's worst margin (limit - value) / limit and its worst point come
    from there.  Axis intercepts of every inner set are lattice vertices,
    which is where the construction is tight, so the checks run with the
    relative slack REGION_REL_TOL.  A link value that overflows floating
    point raises a ValueError naming the link.  Passing an explicit
    orientation that differs from the envelope's is a usage error.
    """
    if orientation is not None and orientation != envelope.orientation:
        raise ValueError(
            f"requested {orientation} chain for a {envelope.orientation} envelope")
    if hull.n != len(envelope.weights):
        raise ValueError("hull dimension does not match envelope")
    if samples < 1:
        raise ValueError("samples must be positive")

    lower = envelope.orientation == "lower"
    plane_peak, ray_peak, hull_peak = _lattice_peaks(envelope, hull, samples)

    lam1, eta1, lam2, eta2 = envelope.lambda1, envelope.eta1, envelope.lambda2, envelope.eta2
    # (name, peak of its sum, inner piece, outer level), innermost link first.
    if lower:
        links = (("plane_eta2_in_ellipsoid_lambda2", plane_peak, "plane_eta2", lam2),
                 ("ellipsoid_lambda2_in_plane_eta1", ray_peak, "ellipsoid_lambda2", eta1),
                 ("plane_eta1_in_ellipsoid_lambda1", plane_peak, "plane_eta1", lam1),
                 ("ellipsoid_lambda1_in_inner_hull", hull_peak, "ellipsoid_lambda1", 1.0))
    else:
        links = (("outer_hull_face_in_ellipsoid_lambda1", hull_peak, "hull_face", lam1),
                 ("ellipsoid_lambda1_in_plane_eta1", ray_peak, "ellipsoid_lambda1", eta1),
                 ("plane_eta1_in_ellipsoid_lambda2", plane_peak, "plane_eta1", lam2),
                 ("ellipsoid_lambda2_in_plane_eta2", ray_peak, "ellipsoid_lambda2", eta2))
    pieces = _pieces(envelope, hull)
    reports = []
    for name, (largest, t, total), inner, limit in links:
        factor, point = pieces[inner]
        value = factor * largest
        if not (isfinite(value) and isfinite(total)):
            raise ValueError(f"containment link {name} is not finite; "
                             "the parameters overflow floating point")
        reports.append(LinkReport(name=name, ok=value <= limit * (1.0 + REGION_REL_TOL),
                                  worst_margin=(limit - value) / limit,
                                  worst_point=point(t)))
    return ContainmentReport(links=tuple(reports))
