"""Nested barrier geometry: envelope levels by Lagrange tangency, and their certificate.

The two level-set families are planes p(u) = sum_i alpha_i u_i = eta and
hyper-ellipsoids q(u) = sum_i alpha_i d_i u_i^m = lambda, m > 1.  A lower
envelope nests plane inside ellipsoid inside plane inside ellipsoid inside
the inner hull region; an upper envelope runs the same alternation outward
from the outer hull face.  Each level has a closed form: a Lagrange
tangency on the convex form q, or a vertex maximum.

verify_containment checks the chain independently of those closed forms,
by each link's exact maximum over the inner set's boundary; no lattice is
walked.  p is homogeneous of degree 1 and q of degree m, so a link's value
is a level factor times a function of a point t of the simplex: a convex
sum of t_i^m, which peaks at a vertex, or a ratio sum_i a_i t_i / q(t)^(1/m),
which peaks at its Hölder point; on an ellipsoid that is the tangent point.
Three module-level point maps take t onto a piece: onto a plane, an
ellipsoid or the hull face.  verify_containment applies them once per link,
at the peak's t, for the worst point, and barrier_curves maps one simplex
lattice through them to sample the five pieces for plotting.

Levels, weights, peaks and points are computed element by element at C
level, by map over operator functions and itertools.repeat, under the rule
that model states: the same operations on the same operands in the same
order as a plain loop, so each float and each refusal is the loop's, and
model's one check of 0.0 < v <= FLOAT_MAX is the only path that refuses a
vector.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from math import inf, isfinite
from operator import mul, pow, sub, truediv
from sys import float_info
from typing import Sequence

from .model import (FLOAT_MAX, REGION_REL_TOL, HullBounds, record, require_finite,
                    require_vectors, vertex_peak)

ORDER_REL_SLACK = 1e-12  # fp slack when validating envelope ordering


@record
class BarrierEnvelope:
    """The four nested level values of one barrier, with their build data.

    lambda1/eta1 are the outer pair and lambda2/eta2 the inner pair for the
    lower orientation; the upper orientation reverses the ordering.  weights
    and d are the alpha and d it was built from, positive and of one length.
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
        self.__dict__["weights"] = tuple(self.weights)
        self.__dict__["d"] = tuple(self.d)
        require_vectors(weights=self.weights, d=self.d)
        if self.orientation not in ("lower", "upper"):
            raise ValueError("orientation must be 'lower' or 'upper'")
        _require_exponent_domain(self.m)
        levels = (self.lambda1, self.eta1, self.lambda2, self.eta2)
        # A product of finite factors can overflow to inf for extreme weights.
        if not all(map(isfinite, levels)):
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
    if not 1 < m <= FLOAT_MAX:
        # A NaN or infinite m, or an int no float holds, is named as such, not
        # as m <= 1, a level fault or a bare OverflowError.
        require_finite(m=(m,))
        if not 1 < m:
            raise ValueError("tangency exponents 1/(m-1) need m > 1")


def _underflow(what: str) -> ValueError:
    return ValueError(f"{what} underflows to 0; the parameters underflow floating point")


def _overflow(what: str) -> ValueError:
    return ValueError(f"{what} overflows; the parameters overflow floating point")


def _normal(what: str, value: float) -> float:
    """A sum or product of positive finite factors, if it is a normal float;
    below that it underflowed, to 0 or to a subnormal that has lost digits."""
    if value == 0.0:
        raise _underflow(what)
    if value < float_info.min:
        raise ValueError(f"{what} underflows below the smallest normal float; "
                         "the parameters underflow floating point")
    return value


def _q_weights(alpha: Sequence[float], d: Sequence[float]) -> tuple:
    """The weights alpha_i d_i of q; 0 or inf means a product under- or overflowed."""
    w_q = tuple(map(mul, alpha, d))
    if 0.0 in w_q:
        i = w_q.index(0.0) + 1
        raise _underflow(f"weight alpha_{i} d_{i}")
    if inf in w_q:
        i = w_q.index(inf) + 1
        raise _overflow(f"weight alpha_{i} d_{i}")
    return w_q


def _tangency_sum(terms) -> float:
    """The sum S of powers of exponent -1/(m-1); a base that underflows to 0,
    a term that overflows and an S that is not normal raise a ValueError."""
    try:
        return _normal("tangency sum S", sum(terms))
    except ZeroDivisionError:
        raise _underflow("a tangency base alpha_i d_i ulow_i^m") from None
    except OverflowError:
        raise _overflow("a term of the tangency sum S") from None


def _tangency_level(Theta: float, w_q: tuple, ulow: Sequence[float], m: float) -> float:
    """Level of the largest ellipsoid q <= Lambda inside the plane sum_i u_i/ulow_i = Theta.

    Minimizing q over the plane by Lagrange multipliers gives

        Lambda = Theta^m * (sum_j (w_j ulow_j^m)^(-1/(m-1)))^(1-m)

    with w_j = alpha_j d_j.  A fault of the sum S, as _tangency_sum names
    it, and a Lambda below the smallest normal float raise a ValueError.
    """
    e = 1.0 / (m - 1.0)
    S = _tangency_sum(map(pow, map(mul, w_q, map(pow, ulow, repeat(m))), repeat(-e)))
    return _normal("tangency level Lambda", Theta ** m * S ** (1.0 - m))


def build_lower_barrier(alpha: Sequence[float], d: Sequence[float],
                        ulow: Sequence[float], m: float) -> BarrierEnvelope:
    """Nest two plane/ellipsoid pairs inside the inner hull region.

    Step order: largest ellipsoid q <= lambda1 inside the ulow face, largest
    plane p <= eta1 inside it, largest ellipsoid q <= lambda2 inside that
    plane, largest plane p <= eta2 inside again.  eta2 is the closed-form
    lower bound on p along any admissible wave profile (before the boundary
    characteristic factor).  The plane p = eta1 is the face of ulow_i =
    1 / alpha_i.  The two tangent points are the worst points of the links
    ellipsoid_lambda1_in_inner_hull and ellipsoid_lambda2_in_plane_eta1.
    """
    _require_exponent_domain(m)
    require_vectors(alpha=alpha, d=d, ulow=ulow)
    grow = max(_plane_vertices(alpha, d, m))
    w_q = _q_weights(alpha, d)
    lambda1 = _tangency_level(1.0, w_q, ulow, m)
    eta1 = _normal("envelope level eta1", lambda1 / grow) ** (1.0 / m)
    lambda2 = _tangency_level(eta1, w_q, tuple(map(truediv, repeat(1.0), alpha)), m)
    eta2 = _normal("envelope level eta2", lambda2 / grow) ** (1.0 / m)
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
    require_vectors(alpha=alpha, d=d, ubar=ubar)
    e = 1.0 / (m - 1.0)
    S = _tangency_sum(map(mul, alpha, map(pow, d, repeat(-e))))
    grow = max(_plane_vertices(alpha, d, m))
    try:
        lambda1 = _normal("envelope level lambda1",
                          max(map(mul, map(mul, alpha, d), map(pow, ubar, repeat(m)))))
    except OverflowError:
        raise _overflow("envelope level lambda1") from None
    eta1 = _normal("envelope level eta1", lambda1 ** (1.0 / m) * S ** ((m - 1.0) / m))
    try:
        lambda2 = _normal("envelope level lambda2", _normal("power eta1^m", eta1 ** m) * grow)
    except OverflowError:
        raise _overflow("envelope level lambda2") from None
    eta2 = _normal("envelope level eta2", lambda2 ** (1.0 / m) * S ** ((m - 1.0) / m))
    return BarrierEnvelope(lambda1=lambda1, eta1=eta1, lambda2=lambda2, eta2=eta2,
                           orientation="upper", weights=tuple(alpha), m=m, d=tuple(d))


@record
class LinkReport:
    """One containment link: inner set's boundary against the outer inequality."""

    name: str
    ok: bool
    worst_margin: float
    worst_point: tuple


@record
class ContainmentReport:
    """The links of one envelope's containment chain, in chain order; ok when
    every link holds."""

    links: tuple

    @property
    def ok(self) -> bool:
        return all(link.ok for link in self.links)


def _compositions(parts: int, total: int):
    """Integer compositions k of total into parts entries, in lexicographic
    order, each an iterator over its entries, good for one pass.

    The parts - 1 cuts 0 <= c_1 <= ... <= c_(parts-1) <= total split
    [0, total] into k_j = c_(j+1) - c_j (c_0 = 0, c_parts = total).
    combinations_with_replacement gives the cuts in lexicographic order, and
    their running sums k_0 + ... + k_j order k the same way.
    """
    start, end = (0,), (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield map(sub, cuts + end, start + cuts)


def _simplex_lattice(n: int, resolution: int):
    """The compositions of resolution into n parts, as barycentric weights."""
    weights = [i / resolution for i in range(resolution + 1)]
    for k in _compositions(n, resolution):
        yield tuple(map(weights.__getitem__, k))


def _plane_point(t: Sequence[float], eta: float, alpha: Sequence[float]) -> tuple:
    """The point eta t_i / alpha_i of the plane p = eta over simplex point t."""
    return tuple(map(truediv, map(mul, repeat(eta), t), alpha))


def _ellipsoid_point(t: Sequence[float], root: float, w_q: tuple, m: float) -> tuple:
    """The point root t / q(t)^(1/m) of the ellipsoid q = root^m over simplex
    point t; w_q are the weights alpha_i d_i of q, as _q_weights checks them.
    The scale root / q(t)^(1/m) cannot overflow where (lambda / q(t))^(1/m)
    does."""
    scale = root / sum(map(mul, w_q, map(pow, t, repeat(m)))) ** (1.0 / m)
    return tuple(map(mul, repeat(scale), t))


def _face_point(t: Sequence[float], face: Sequence[float]) -> tuple:
    """The point face_i t_i of the hull face through the axis points face_i e_i."""
    return tuple(map(mul, t, face))


def _plane_factor(eta: float, m: float) -> float:
    """eta^m, the level factor of q on the plane p = eta; inf where it
    overflows, so that the link is refused by name."""
    try:
        return eta ** m
    except OverflowError:
        return inf


def barrier_curves(envelope: BarrierEnvelope, hull: HullBounds, samples: int) -> tuple:
    """Lattice points on each barrier piece, as (name, points) pairs.

    The sets are plane_eta1, plane_eta2, ellipsoid_lambda1, ellipsoid_lambda2
    and hull_face (the ulow face for a lower envelope, the ubar face for an
    upper one), each sampled at lattice resolution samples.  The point sets
    are lazy iterators of tuples.
    """
    if hull.n != len(envelope.weights):
        raise ValueError("hull dimension does not match envelope")
    if samples < 1:
        raise ValueError("samples must be positive")
    alpha, m = envelope.weights, envelope.m
    w_q = _q_weights(alpha, envelope.d)
    face = hull.ulow if envelope.orientation == "lower" else hull.ubar
    pieces = (("plane_eta1", _plane_point, (envelope.eta1, alpha)),
              ("plane_eta2", _plane_point, (envelope.eta2, alpha)),
              ("ellipsoid_lambda1", _ellipsoid_point, (envelope.lambda1 ** (1.0 / m), w_q, m)),
              ("ellipsoid_lambda2", _ellipsoid_point, (envelope.lambda2 ** (1.0 / m), w_q, m)),
              ("hull_face", _face_point, (face,)))
    return tuple((name, map(point, _simplex_lattice(len(w_q), samples), *map(repeat, args)))
                 for name, point, args in pieces)


def _plane_vertices(alpha: Sequence[float], d: Sequence[float], m: float) -> list:
    """q at the vertices e_i / alpha_i of the plane p = 1: [d_i alpha_i^(1-m)].

    q is convex, so over the plane's simplex it peaks at the largest of
    these.  A power alpha_i^(1-m) that overflows, or values that all
    underflow to 0, raise a ValueError naming it, so that no caller divides
    by a 0 peak or meets a bare OverflowError.
    """
    try:
        values = list(map(mul, d, map(pow, alpha, repeat(1.0 - m))))
    except OverflowError:  # m > 1, so the smallest alpha_i overflows first
        i = alpha.index(min(alpha)) + 1
        raise _overflow(f"power alpha_{i}^(1-m)") from None
    if not any(values):
        raise _underflow("plane peak max_i d_i alpha_i^(1-m)")
    return values


def _dual_peak(a: Sequence[float], w_q: tuple, m: float) -> tuple:
    """Peak of sum_i a_i t_i / q(t)^(1/m) over t >= 0, and a point attaining it.

    With r_i = a_i / w_i^(1/m), Hölder gives the dual norm
    (sum_i r_i^m')^(1/m'), m' = m / (m - 1), attained at t_i proportional to
    r_i^m' / a_i.  The largest r_i is factored out of the sum, so that r_i^m'
    cannot overflow as m' grows near m = 1.
    """
    dual = m / (m - 1.0)
    r = list(map(truediv, a, map(pow, w_q, repeat(1.0 / m))))
    top = max(r)
    if top == 0.0:  # every r_i underflowed: no ratio exceeds the smallest float
        return vertex_peak(r)
    terms = list(map(pow, map(truediv, r, repeat(top)), repeat(dual)))
    t = list(map(truediv, terms, a))
    norm = sum(t)
    return top * sum(terms) ** (1.0 / dual), tuple(map(truediv, t, repeat(norm)))


def verify_containment(envelope: BarrierEnvelope, hull: HullBounds, samples: int,
                       orientation: str | None = None) -> ContainmentReport:
    """Check each link of the envelope's nesting chain by its exact maximum.

    Each boundary is the set of points t >= 0 with sum_i t_i = 1 scaled onto
    its level set: eta t_i / alpha_i on a plane, lambda^(1/m) t / q(t)^(1/m)
    on an ellipsoid and ubar_i t_i on the outer hull face.  Since p has
    degree 1 and q degree m, the value a link checks at such a point is a
    level factor times one of four functions of t, each with a closed-form
    maximum (w_i = alpha_i d_i, m' = m / (m - 1)):

        plane in ellipsoid         q = eta^m * sum_i d_i alpha_i^(1-m) t_i^m
        ellipsoid in plane         p = lambda^(1/m) * p(t) / q(t)^(1/m)
        ellipsoid in inner hull        lambda^(1/m) * sum_i (t_i / ulow_i) / q(t)^(1/m)
        outer hull face in ellipsoid   q = sum_i w_i ubar_i^m t_i^m

    The two sums of t_i^m are convex, so they peak at a vertex of the
    simplex: max_i d_i alpha_i^(1-m) and max_i w_i ubar_i^m.  The two ratios
    peak at their Hölder point, with the dual norm (sum_i r_i^m')^(1/m') of
    r_i = alpha_i / w_i^(1/m), or 1 / (ulow_i w_i^(1/m)) for the hull.  No
    point is sampled: the check is O(n) and samples, still required to be
    positive, has no effect.  A link's worst margin is (limit - value) /
    limit, and its worst point the maximiser on the inner set, on a vertex
    tie the vertex of the highest index.  The construction is tight on
    every link, so the checks run with the relative slack REGION_REL_TOL.
    A weight alpha_i d_i that underflows to 0 or overflows raises a
    ValueError naming it, and a link value that overflows floating point
    raises a ValueError naming the link.  Passing an explicit orientation
    that differs from the envelope's is a usage error.
    """
    if orientation is not None and orientation != envelope.orientation:
        raise ValueError(
            f"requested {orientation} chain for a {envelope.orientation} envelope")
    if hull.n != len(envelope.weights):
        raise ValueError("hull dimension does not match envelope")
    if samples < 1:
        raise ValueError("samples must be positive")

    alpha, d, m = envelope.weights, envelope.d, envelope.m
    lower = envelope.orientation == "lower"
    w_q = _q_weights(alpha, d)
    plane_peak = vertex_peak(_plane_vertices(alpha, d, m))
    ray_peak = _dual_peak(alpha, w_q, m)
    if lower:
        hull_peak = _dual_peak(list(map(truediv, repeat(1.0), hull.ulow)), w_q, m)
    else:
        hull_peak = vertex_peak(list(map(mul, w_q, map(pow, hull.ubar, repeat(m)))))

    lam1, eta1, lam2, eta2 = envelope.lambda1, envelope.eta1, envelope.lambda2, envelope.eta2
    root1, root2 = lam1 ** (1.0 / m), lam2 ** (1.0 / m)
    # (name, peak and maximiser t, level factor, outer level, point map of the
    # inner piece and its arguments after t), innermost link first.
    if lower:
        links = (("plane_eta2_in_ellipsoid_lambda2", plane_peak, _plane_factor(eta2, m), lam2,
                  _plane_point, (eta2, alpha)),
                 ("ellipsoid_lambda2_in_plane_eta1", ray_peak, root2, eta1,
                  _ellipsoid_point, (root2, w_q, m)),
                 ("plane_eta1_in_ellipsoid_lambda1", plane_peak, _plane_factor(eta1, m), lam1,
                  _plane_point, (eta1, alpha)),
                 ("ellipsoid_lambda1_in_inner_hull", hull_peak, root1, 1.0,
                  _ellipsoid_point, (root1, w_q, m)))
    else:
        links = (("outer_hull_face_in_ellipsoid_lambda1", hull_peak, 1.0, lam1,
                  _face_point, (hull.ubar,)),
                 ("ellipsoid_lambda1_in_plane_eta1", ray_peak, root1, eta1,
                  _ellipsoid_point, (root1, w_q, m)),
                 ("plane_eta1_in_ellipsoid_lambda2", plane_peak, _plane_factor(eta1, m), lam2,
                  _plane_point, (eta1, alpha)),
                 ("ellipsoid_lambda2_in_plane_eta2", ray_peak, root2, eta2,
                  _ellipsoid_point, (root2, w_q, m)))
    reports = []
    for name, (largest, t), factor, limit, point, args in links:
        value = factor * largest
        if not isfinite(value):
            raise ValueError(f"containment link {name} is not finite; "
                             "the parameters overflow floating point")
        reports.append(LinkReport(name=name, ok=value <= limit * (1.0 + REGION_REL_TOL),
                                  worst_margin=(limit - value) / limit,
                                  worst_point=point(t, *args)))
    return ContainmentReport(links=tuple(reports))
