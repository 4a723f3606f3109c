"""Tangency closed forms, envelope nesting and the containment certificate."""

import math
import random
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbarrier import (
    BarrierEnvelope,
    HullBounds,
    ReactionSpec,
    barrier_curves,
    build_lower_barrier,
    build_upper_barrier,
    hull_intercepts,
    verify_containment,
)
from nbarrier import barrier as barrier_module
from nbarrier.barrier import _compositions, _simplex_lattice, _tangency_level
from nbarrier.model import REGION_REL_TOL

from conftest import decimal_chains, rel_gap

FIG1_ARGS = ((1.0, 2.0), (3.0, 4.0), (1 / 3, 1 / 2), 2.0)

positive = st.floats(min_value=0.2, max_value=5.0,
                     allow_nan=False, allow_infinity=False)
exponents = st.sampled_from((1.5, 2.0, 3.0))


def q_value(u, alpha, d, m):
    return sum(a * di * ui ** m for a, di, ui in zip(alpha, d, u))


def test_lower_envelope_reference_quadruple():
    env = build_lower_barrier(*FIG1_ARGS)
    assert env.lambda1 == pytest.approx(2 / 7, rel=1e-12)
    assert env.eta1 == pytest.approx(math.sqrt(2 / 21), rel=1e-12)
    assert env.lambda2 == pytest.approx(4 / 35, rel=1e-12)
    assert env.eta2 == pytest.approx(2 / math.sqrt(105), rel=1e-12)
    assert env.orientation == "lower"


def test_lower_envelope_unit_weights_quadruple():
    env = build_lower_barrier((1.0, 1.0), (3.0, 4.0), (1 / 3, 1 / 2), 2.0)
    assert env.lambda1 == pytest.approx(1 / 4, rel=1e-12)
    assert env.eta1 == pytest.approx(1 / 4, rel=1e-12)
    assert env.lambda2 == pytest.approx(3 / 28, rel=1e-12)
    assert env.eta2 == pytest.approx(math.sqrt(3 / 7) / 4, rel=1e-12)


def tangent_points(alpha, d, ulow, m):
    """A lower envelope and the worst points of its two tangency links: on
    ellipsoid lambda1 against the face sum_i u_i / ulow_i = 1, and on
    ellipsoid lambda2 against the plane p = eta1."""
    env = build_lower_barrier(alpha, d, ulow, m)
    hull = HullBounds(ubar=tuple(2 * lo for lo in ulow), ulow=ulow)
    links = {link.name: link for link in verify_containment(env, hull, 1).links}
    return (env, links["ellipsoid_lambda1_in_inner_hull"].worst_point,
            links["ellipsoid_lambda2_in_plane_eta1"].worst_point)


def test_weighted_tangency_point_sits_on_both_level_sets():
    # The face sum_i u_i / ulow_i = 1.3 is the unit face of 1.3 ulow.
    alpha, d, ulow, m = (0.7, 1.3, 2.1), (0.5, 2.0, 1.1), (0.4, 0.9, 1.5), 2.5
    env, point, _ = tangent_points(alpha, d, tuple(1.3 * lo for lo in ulow), m)
    assert q_value(point, alpha, d, m) == pytest.approx(env.lambda1, rel=1e-10)
    assert sum(ui / lo for ui, lo in zip(point, ulow)) == pytest.approx(
        1.3, rel=1e-10)


def test_plain_tangency_point_sits_on_both_level_sets():
    alpha, d, m = (0.7, 1.3, 2.1), (0.5, 2.0, 1.1), 1.5
    env, _, point = tangent_points(alpha, d, (0.4, 0.9, 1.5), m)
    assert q_value(point, alpha, d, m) == pytest.approx(env.lambda2, rel=1e-10)
    assert sum(a * ui for a, ui in zip(alpha, point)) == pytest.approx(
        env.eta1, rel=1e-10)


def test_certificate_worst_points_are_the_lagrange_tangent_points():
    """The minimiser of q on sum_i u_i / ulow_i = Theta is u_i = (Theta / S)
    (w_i ulow_i)^(-1/(m-1)), w_i = alpha_i d_i, with S the tangency sum."""
    def lagrange_point(theta, w, face, m):
        e = 1 / (m - 1)
        S = sum((wi * lo ** m) ** -e for wi, lo in zip(w, face))
        return tuple(theta / S * (wi * lo) ** -e for wi, lo in zip(w, face))

    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.choice((1.1, 1.5, 2.0, 3.0, 7.0))
        alpha, d, ulow = ([rng.uniform(0.2, 5.0) for _ in range(n)] for _ in range(3))
        w = [a * di for a, di in zip(alpha, d)]
        env, on_face, on_plane = tangent_points(alpha, d, tuple(ulow), m)
        for got, want in ((on_face, lagrange_point(1.0, w, ulow, m)),
                          (on_plane, lagrange_point(env.eta1, w, [1 / a for a in alpha], m))):
            assert got == pytest.approx(want, rel=1e-12)


def test_tangency_rejects_degenerate_exponent_and_level():
    with pytest.raises(ValueError, match="need m > 1"):
        build_lower_barrier((1.0,), (1.0,), (1.0,), 1.0)
    with pytest.raises(ValueError, match="strictly positive"):
        build_lower_barrier((1.0, -1.0), (1.0, 1.0), (1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="strictly positive"):
        build_lower_barrier((0.0, 1.0), (1.0, 1.0), (1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="strictly positive"):
        build_lower_barrier((1.0, 1.0), (1.0, 1.0), (0.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="^d must be strictly positive$"):
        build_upper_barrier((1.0, 1.0), (1.0, -1.0), (1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match=re.escape("got len(alpha) = 2, len(d) = 1, "
                                                   "len(ulow) = 2")):
        build_lower_barrier((1.0, 1.0), (1.0,), (1.0, 1.0), 2.0)


@pytest.mark.parametrize("m", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda m: build_lower_barrier(*FIG1_ARGS[:3], m),
    lambda m: build_upper_barrier(*FIG1_ARGS[:2], (1.0, 1.0), m),
    lambda m: BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=0.5, eta2=0.5,
                              orientation="lower", weights=(1.0, 1.0), m=m, d=(1.0, 1.0)),
], ids=["lower", "upper", "envelope"])
def test_a_non_finite_exponent_is_refused_by_name(build, m):
    # NaN passes m <= 1, and inf makes Lambda underflow; neither is an
    # overflow or underflow of the parameters.
    with pytest.raises(ValueError, match=f"^m must be finite, got {m!r}$"):
        build(m)


@given(st.data(), exponents, st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_tangency_level_is_m_homogeneous_in_theta(data, m, n):
    """Scaling the plane level by c scales Lambda by c^m, on the ulow face
    and on the plane p, the face of ulow_i = 1 / alpha_i."""
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ulow = tuple(data.draw(positive) for _ in range(n))
    c = data.draw(st.floats(min_value=0.5, max_value=3.0))
    w_q = tuple(a * di for a, di in zip(alpha, d))
    for face in (ulow, tuple(1.0 / a for a in alpha)):
        base = _tangency_level(1.0, w_q, face, m)
        assert _tangency_level(c, w_q, face, m) == pytest.approx(c ** m * base, rel=1e-9)


@given(st.data(), exponents, st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_envelope_orderings(data, m, n):
    """Lower builds shrink inward, upper builds grow outward."""
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ref = tuple(data.draw(positive) for _ in range(n))
    lo = build_lower_barrier(alpha, d, ref, m)
    assert lo.lambda2 <= lo.lambda1 * (1 + 1e-12)
    assert lo.eta2 <= lo.eta1 * (1 + 1e-12)
    hi = build_upper_barrier(alpha, d, ref, m)
    assert hi.lambda2 * (1 + 1e-12) >= hi.lambda1
    assert hi.eta2 * (1 + 1e-12) >= hi.eta1
    assert hi.orientation == "upper"


def test_envelope_constructor_rejects_misordered_levels():
    with pytest.raises(ValueError):
        BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=2.0, eta2=0.5,
                        orientation="lower", weights=(1.0, 1.0), m=2.0,
                        d=(1.0, 1.0))
    with pytest.raises(ValueError):
        BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=0.5, eta2=0.5,
                        orientation="sideways", weights=(1.0, 1.0), m=2.0,
                        d=(1.0, 1.0))
    with pytest.raises(ValueError, match="need m > 1"):
        BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=0.5, eta2=0.5,
                        orientation="lower", weights=(1.0, 1.0), m=1.0,
                        d=(1.0, 1.0))
    with pytest.raises(ValueError, match="levels must be positive"):
        BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=0.5, eta2=-0.5,
                        orientation="lower", weights=(1.0, 1.0), m=2.0,
                        d=(1.0, 1.0))


@pytest.mark.parametrize("field, value, message", [
    ("d", (3.0,), r"vector lengths must agree, got len\(weights\) = 2, len\(d\) = 1"),
    ("weights", (1.0, 2.0, 1.0),
     r"vector lengths must agree, got len\(weights\) = 3, len\(d\) = 2"),
    ("weights", (1.0, 0.0), "weights must be strictly positive"),
    ("d", (3.0, -4.0), "d must be strictly positive"),
], ids=["short-d", "long-weights", "zero-weight", "negative-d"])
def test_envelope_refuses_weights_and_d_no_barrier_is_built_from(field, value, message):
    # The README lower envelope with one d dropped would pass the containment
    # check with one-dimensional worst points, certifying a truncated problem.
    env = build_lower_barrier(*FIG1_ARGS)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(env, **{field: value})


def test_envelope_dict_shape():
    env = build_lower_barrier(*FIG1_ARGS)
    doc = env.to_dict()
    assert set(doc) == {"lambda1", "eta1", "lambda2", "eta2", "orientation"}
    assert doc["orientation"] == "lower"


def test_containment_chains_on_reference_hull():
    alpha, d, m = (1.0, 2.0), (3.0, 4.0), 2.0
    hull = HullBounds(ubar=(1.0, 1.0), ulow=(1 / 3, 1 / 2))
    lo = build_lower_barrier(alpha, d, hull.ulow, m)
    hi = build_upper_barrier(alpha, d, hull.ubar, m)
    rep_lo = verify_containment(lo, hull, 80)
    rep_hi = verify_containment(hi, hull, 80, orientation="upper")
    assert rep_lo.ok and rep_hi.ok
    assert len(rep_lo.links) == 4 and len(rep_hi.links) == 4
    assert [link.name for link in rep_lo.links] == [
        "plane_eta2_in_ellipsoid_lambda2", "ellipsoid_lambda2_in_plane_eta1",
        "plane_eta1_in_ellipsoid_lambda1", "ellipsoid_lambda1_in_inner_hull"]
    assert [link.name for link in rep_hi.links] == [
        "outer_hull_face_in_ellipsoid_lambda1", "ellipsoid_lambda1_in_plane_eta1",
        "plane_eta1_in_ellipsoid_lambda2", "ellipsoid_lambda2_in_plane_eta2"]
    for link in rep_lo.links + rep_hi.links:
        assert link.worst_margin >= -1e-9


def test_containment_orientation_mismatch_is_an_error():
    lo = build_lower_barrier(*FIG1_ARGS)
    hull = HullBounds(ubar=(1.0, 1.0), ulow=(1 / 3, 1 / 2))
    with pytest.raises(ValueError):
        verify_containment(lo, hull, 10, orientation="upper")


@pytest.mark.parametrize("call, message", [
    (lambda env, hull: verify_containment(env, HullBounds(ubar=(1.0,), ulow=(0.5,)), 10),
     "hull dimension does not match envelope"),
    (lambda env, hull: verify_containment(env, hull, 0), "samples must be positive"),
    (lambda env, hull: barrier_curves(env, hull, 0), "samples must be positive"),
], ids=["containment-hull", "containment-samples", "curves-samples"])
def test_containment_and_curves_refuse_a_malformed_call(call, message):
    hull = HullBounds(ubar=(1.0, 1.0), ulow=(1 / 3, 1 / 2))
    with pytest.raises(ValueError, match=message):
        call(build_lower_barrier(*FIG1_ARGS), hull)


def test_containment_flags_hull_pulled_inside_the_envelope():
    # Shrinking the inner intercepts breaks the outermost lower link.
    alpha, d, m = (1.0, 2.0), (3.0, 4.0), 2.0
    env = build_lower_barrier(alpha, d, (1 / 3, 1 / 2), m)
    bad_hull = HullBounds(ubar=(1.0, 1.0), ulow=(1 / 30, 1 / 20))
    report = verify_containment(env, bad_hull, 40)
    assert not report.ok
    failed = [link for link in report.links if not link.ok]
    assert any("hull" in link.name for link in failed)


def test_containment_randomized_smoke():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice((2, 3))
        m = rng.choice((1.5, 2.0, 3.0))
        alpha = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
        d = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
        ulow = tuple(rng.uniform(0.2, 1.0) for _ in range(n))
        ubar = tuple(lo + rng.uniform(0.2, 2.0) for lo in ulow)
        hull = HullBounds(ubar=ubar, ulow=ulow)
        assert verify_containment(
            build_lower_barrier(alpha, d, ulow, m), hull, 30).ok
        assert verify_containment(
            build_upper_barrier(alpha, d, ubar, m), hull, 30).ok


def reference_lattice(n, r):
    """The simplex lattice as a filtered product, in lexicographic order."""
    return [tuple(ki / r for ki in k) + ((r - sum(k)) / r,)
            for k in product(range(r + 1), repeat=n - 1) if sum(k) <= r]


@pytest.mark.parametrize("n, r", [(1, 1), (1, 7), (2, 1), (2, 40), (3, 5), (4, 3),
                                  (5, 8), (6, 6), (7, 2)])
def test_simplex_lattice_matches_the_filtered_product(n, r):
    assert list(_simplex_lattice(n, r)) == reference_lattice(n, r)


def test_compositions_come_in_the_filtered_product_order():
    for n, r in product(range(1, 7), range(1, 11)):
        want = [k + (r - sum(k),) for k in product(range(r + 1), repeat=n - 1) if sum(k) <= r]
        assert [tuple(k) for k in _compositions(n, r)] == want, (n, r)


def test_containment_walks_no_lattice(monkeypatch):
    """The exact peaks sample nothing, so samples changes no report."""
    calls = []

    def counting_compositions(parts, total):
        calls.append((parts, total))
        yield from _compositions(parts, total)

    monkeypatch.setattr(barrier_module, "_compositions", counting_compositions)
    for n in (1, 2, 3, 5):
        alpha, d, m = (1.0, 2.0, 0.5, 1.2, 0.8)[:n], (3.0, 4.0, 1.5, 0.7, 2.2)[:n], 2.5
        ulow = (1 / 3, 1 / 2, 0.7, 0.4, 0.9)[:n]
        hull = HullBounds(ubar=tuple(lo + 1.0 for lo in ulow), ulow=ulow)
        for env in (build_lower_barrier(alpha, d, hull.ulow, m),
                    build_upper_barrier(alpha, d, hull.ubar, m)):
            report = verify_containment(env, hull, 1)
            assert report.ok
            assert verify_containment(env, hull, 1000) == report
    assert calls == []


def brute_force_links(env, hull, samples, tol=REGION_REL_TOL):
    """Each link checked point by point over the simplex lattice."""
    return links_at(env, hull, reference_lattice(len(env.weights), samples), tol)


def links_at(env, hull, lattice, tol=REGION_REL_TOL):
    """Each link checked point by point: build the boundary point u of the
    inner set for every simplex point t in lattice, evaluate the outer set's
    function at u, and keep the margins.
    Returns (name, ok, margins, margin of a point) per link."""
    alpha, d, m = env.weights, env.d, env.m
    p = lambda u: sum(a * ui for a, ui in zip(alpha, u))
    q = lambda u: q_value(u, alpha, d, m)
    h = lambda u: sum(ui / lo for ui, lo in zip(u, hull.ulow))
    plane = lambda eta: [tuple(eta * ti / a for ti, a in zip(t, alpha)) for t in lattice]
    ellipsoid = lambda lam: [tuple((lam / q(t)) ** (1 / m) * ti for ti in t)
                             for t in lattice]
    face = [tuple(ti * hi for ti, hi in zip(t, hull.ubar)) for t in lattice]
    lam1, eta1, lam2, eta2 = env.lambda1, env.eta1, env.lambda2, env.eta2
    if env.orientation == "lower":
        links = [("plane_eta2_in_ellipsoid_lambda2", plane(eta2), q, lam2),
                 ("ellipsoid_lambda2_in_plane_eta1", ellipsoid(lam2), p, eta1),
                 ("plane_eta1_in_ellipsoid_lambda1", plane(eta1), q, lam1),
                 ("ellipsoid_lambda1_in_inner_hull", ellipsoid(lam1), h, 1.0)]
    else:
        links = [("outer_hull_face_in_ellipsoid_lambda1", face, q, lam1),
                 ("ellipsoid_lambda1_in_plane_eta1", ellipsoid(lam1), p, eta1),
                 ("plane_eta1_in_ellipsoid_lambda2", plane(eta1), q, lam2),
                 ("ellipsoid_lambda2_in_plane_eta2", ellipsoid(lam2), p, eta2)]
    result = []
    for name, points, f, limit in links:
        margin = lambda u, f=f, limit=limit: (limit - f(u)) / limit
        result.append((name, all(f(u) <= limit * (1 + tol) for u in points),
                       [margin(u) for u in points], margin))
    return result


# Links whose function is a convex sum of t_i^m: the maximum is at a vertex,
# and every vertex is a lattice point.
VERTEX_LINKS = {"plane_eta2_in_ellipsoid_lambda2", "plane_eta1_in_ellipsoid_lambda1",
                "outer_hull_face_in_ellipsoid_lambda1", "plane_eta1_in_ellipsoid_lambda2"}


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), exponents, st.integers(min_value=1, max_value=6),
       st.sampled_from(["lower", "upper"]), st.sampled_from([1.0, 0.3, 0.9, 1.5]))
@settings(max_examples=200, deadline=None)
def test_containment_matches_a_point_by_point_sweep(data, m, n, side, scale):
    """The exact peaks against direct evaluation at every boundary point.

    No lattice point may beat the exact worst margin, and a vertex peak is
    a lattice point.  scale moves the checked hull face off the intercepts:
    inward it breaks the hull link, outward the hull is only looser; on the
    intercepts the construction is tight on every link.
    """
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ulow = tuple(data.draw(positive) for _ in range(n))
    ubar = tuple(lo + data.draw(positive) for lo in ulow)
    samples = data.draw(st.integers(
        min_value=1, max_value={1: 5, 2: 30, 3: 12, 4: 6, 5: 4, 6: 3}[n]))
    if side == "lower":
        env = build_lower_barrier(alpha, d, ulow, m)
        hull = HullBounds(ubar=tuple(max(hi, lo * scale) for hi, lo in zip(ubar, ulow)),
                          ulow=tuple(lo * scale for lo in ulow))
    else:
        env = build_upper_barrier(alpha, d, ubar, m)
        hull = HullBounds(ubar=tuple(max(hi * scale, lo) for hi, lo in zip(ubar, ulow)),
                          ulow=ulow)
    report = verify_containment(env, hull, samples)
    expected = brute_force_links(env, hull, samples)
    assert [link.name for link in report.links] == [name for name, *_ in expected]
    for link, (name, ok, margins, margin) in zip(report.links, expected):
        assert min(margins) >= link.worst_margin - 1e-12, name
        assert ok or not link.ok, name
        if name in VERTEX_LINKS:
            assert link.worst_margin == pytest.approx(min(margins), rel=0, abs=1e-12), name
        if scale == 1.0:
            assert abs(link.worst_margin) <= 1e-12, name
        assert margin(link.worst_point) == pytest.approx(link.worst_margin,
                                                         rel=0, abs=1e-12), name


def holder_point(a, w_q, m):
    """The maximiser of sum_i a_i t_i / q(t)^(1/m) on the simplex, from
    Lagrange's condition: t_i proportional to a_i^(1/(m-1)) / w_i^(1/(m-1))."""
    t = [(ai / wi) ** (1 / (m - 1)) for ai, wi in zip(a, w_q)]
    return tuple(ti / sum(t) for ti in t)


def simplex_points(data, n):
    """A few simplex points off the lattice, drawn as normalised positives."""
    points = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        t = [data.draw(positive) for _ in range(n)]
        points.append(tuple(ti / sum(t) for ti in t))
    return points


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), exponents, st.integers(min_value=1, max_value=6),
       st.sampled_from(["lower", "upper"]), st.sampled_from([1.0, 0.3, 0.9, 1.5]))
@settings(max_examples=120, deadline=None)
def test_containment_equals_the_per_point_walk(data, m, n, side, scale):
    """The exact report is what a per-point walk over the candidate maxima gives.

    The walk evaluates every link from scratch at the n simplex vertices and
    at both Hölder points, the latter derived here from Lagrange's condition
    rather than the dual norm, and takes the smallest margin.  Off-lattice
    simplex points never beat it.
    """
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ulow = tuple(data.draw(positive) for _ in range(n))
    ubar = tuple(lo + data.draw(positive) for lo in ulow)
    if side == "lower":
        env = build_lower_barrier(alpha, d, ulow, m)
        hull = HullBounds(ubar=tuple(max(hi, lo * scale) for hi, lo in zip(ubar, ulow)),
                          ulow=tuple(lo * scale for lo in ulow))
    else:
        env = build_upper_barrier(alpha, d, ubar, m)
        hull = HullBounds(ubar=tuple(max(hi * scale, lo) for hi, lo in zip(ubar, ulow)),
                          ulow=ulow)
    w_q = tuple(a * di for a, di in zip(alpha, d))
    vertices = [tuple(float(j == i) for j in range(n)) for i in range(n)]
    candidates = vertices + [holder_point(alpha, w_q, m),
                             holder_point([1 / lo for lo in hull.ulow], w_q, m)]
    report = verify_containment(env, hull, 1)
    walk = links_at(env, hull, candidates)
    assert [link.name for link in report.links] == [name for name, *_ in walk]
    for link, (name, ok, margins, _) in zip(report.links, walk):
        assert link.worst_margin == pytest.approx(min(margins), rel=0, abs=1e-12), name
        if abs(link.worst_margin) > 1e-12:
            assert link.ok == ok, name
    for link, (name, _, margins, _) in zip(report.links,
                                             links_at(env, hull, simplex_points(data, n))):
        assert min(margins) >= link.worst_margin - 1e-12, name


def test_containment_fails_a_hull_link_the_lattice_passes():
    # ulow pulled inward by 0.1%: the hull ratio peaks at 1.001 between the
    # 8-lattice's points, which all pass.
    env = build_lower_barrier(*FIG1_ARGS)
    hull = HullBounds(ubar=(1.0, 1.0), ulow=tuple(lo / 1.001 for lo in FIG1_ARGS[2]))
    report = verify_containment(env, hull, 8)
    assert [link.ok for link in report.links] == [True, True, True, False]
    assert report.links[3].name == "ellipsoid_lambda1_in_inner_hull"
    assert report.links[3].worst_margin == pytest.approx(-1.0e-3, rel=0, abs=1e-12)


def test_containment_scales_the_dual_norm_near_m_1():
    # m' = 101: r_i^m' of the hull ratio, about 1e4^101, overflows unscaled.
    alpha, d, ulow, _ = FIG1_ARGS
    env = build_lower_barrier(alpha, d, ulow, 1.01)
    hull = HullBounds(ubar=(1.0, 1.0), ulow=tuple(lo / 1e4 for lo in ulow))
    report = verify_containment(env, hull, 8)
    assert not report.ok
    assert report.links[3].worst_margin == pytest.approx(-9999.0, rel=1e-9)


def test_containment_memory_stays_flat_in_the_lattice_size():
    """n = 3 at samples = 300 is 45,451 lattice points: storing them would
    take several MB, the per-coordinate product tables about 100 KB."""
    alpha, d, m = (1.0, 2.0, 0.5), (3.0, 4.0, 1.5), 2.5
    hull = HullBounds(ubar=(1.5, 1.0, 2.0), ulow=(1 / 3, 1 / 2, 0.7))
    env = build_lower_barrier(alpha, d, hull.ulow, m)
    tracemalloc.start()
    try:
        report = verify_containment(env, hull, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1_000_000


def test_containment_keeps_the_first_lattice_point_on_ties():
    # Symmetric in the two species: q on a plane, and the outer face's q,
    # peak at both vertices, and the lattice visits (0, 1) first.
    hull = HullBounds(ubar=(2.0, 2.0), ulow=(1.0, 1.0))
    lo = build_lower_barrier((1.0, 1.0), (1.0, 1.0), hull.ulow, 2.0)
    hi = build_upper_barrier((1.0, 1.0), (1.0, 1.0), hull.ubar, 2.0)
    rep_lo = verify_containment(lo, hull, 10)
    rep_hi = verify_containment(hi, hull, 10)
    assert rep_lo.links[0].worst_point == (0.0, lo.eta2)
    assert rep_lo.links[2].worst_point == (0.0, lo.eta1)
    assert rep_hi.links[0].worst_point == (0.0, 2.0)
    assert rep_hi.links[2].worst_point == (0.0, hi.eta1)


def test_containment_gives_a_verdict_where_lambda_over_q_overflows():
    # lambda2 / q(t) overflows at t = (1, 0); lambda2^(1/m) / q(t)^(1/m) does not.
    hull = HullBounds(ubar=(10.0, 10.0), ulow=(1.0, 1.0))
    env = build_upper_barrier((1e-120, 1.0), (1.0, 1.0), hull.ubar, 3.0)
    assert env.lambda2 / 1e-120 == math.inf
    report = verify_containment(env, hull, 10)
    assert report.ok
    assert all(math.isfinite(link.worst_margin) for link in report.links)


def test_upper_envelope_whose_eta2_power_overflows_is_checked_and_sampled():
    # eta2 is about 4 at m = 1001, so eta2^m overflows; no upper link uses it.
    hull = HullBounds(ubar=(1.0, 1.0), ulow=(0.5, 0.5))
    env = build_upper_barrier((1.0, 1.0), (1.0, 1.0), hull.ubar, 1001.0)
    with pytest.raises(OverflowError):
        env.eta2 ** env.m
    assert verify_containment(env, hull, 4).ok
    assert all(math.isfinite(x) for _, points in barrier_curves(env, hull, 4)
               for u in points for x in u)


def test_containment_gives_a_verdict_where_every_hull_ratio_underflows():
    # r_i = (1 / ulow_i) / (alpha_i d_i)^(1/3) is 1e-300 / 1e200^(1/3) for both species.
    env = build_lower_barrier((1e100, 1e100), (1e100, 1e100), (1.0, 1.0), 3.0)
    hull = HullBounds(ubar=(2e300, 2e300), ulow=(1e300, 1e300))
    link = verify_containment(env, hull, 4).links[3]
    assert link.ok and link.worst_margin == 1.0
    assert link.worst_point == pytest.approx((0.0, (env.lambda1 / 1e200) ** (1 / 3)),
                                             rel=1e-12)


def test_containment_refuses_a_link_value_that_overflows():
    # eta2^m = 1e300 times q on the plane's alpha_1 vertex, 1e10, is inf.
    env = BarrierEnvelope(lambda1=1e300, eta1=1e150, lambda2=1e300, eta2=1e150,
                          orientation="lower", weights=(1e-10, 1.0), m=2.0, d=(1.0, 1.0))
    hull = HullBounds(ubar=(2.0, 2.0), ulow=(1.0, 1.0))
    with pytest.raises(ValueError, match="^containment link plane_eta2_in_ellipsoid_lambda2 "
                                         "is not finite"):
        verify_containment(env, hull, 10)


def test_lower_envelope_names_a_level_that_underflows():
    # lambda1 * shrink = 1e-120 * 1e-240 underflows, so eta1 would be 0.
    with pytest.raises(ValueError, match="^envelope level eta1 underflows to 0"):
        build_lower_barrier((1e-120, 1.0), (1.0, 1.0), (1.0, 1.0), 3.0)


TINY_HULL = HullBounds(ubar=(1.0, 1.0), ulow=(0.5, 0.5))


def _tiny_upper():
    return build_upper_barrier((1e-200, 1.0), (1e-200, 1.0), TINY_HULL.ubar, 2.0)


@pytest.mark.parametrize("call", [
    lambda: build_lower_barrier((1e-200, 1.0), (1e-200, 1.0), TINY_HULL.ulow, 2.0),
    lambda: verify_containment(_tiny_upper(), TINY_HULL, 4),
    lambda: barrier_curves(_tiny_upper(), TINY_HULL, 4),
], ids=["build_lower_barrier", "verify_containment", "barrier_curves"])
def test_a_q_weight_that_underflows_is_named(call):
    # alpha_1 d_1 = 1e-400 underflows to 0, so q(t) is 0 at the vertex t = (1, 0).
    with pytest.raises(ValueError, match="^weight alpha_1 d_1 underflows to 0; "
                                         "the parameters underflow floating point$"):
        call()


def _huge_upper():
    # The constructor checks the levels, not the weights.
    return BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=2.0, eta2=2.0, orientation="upper",
                           weights=(1e200, 1.0), m=2.0, d=(1e200, 1.0))


@pytest.mark.parametrize("call", [
    lambda: build_lower_barrier((1e200, 1.0), (1e200, 1.0), TINY_HULL.ulow, 2.0),
    lambda: verify_containment(_huge_upper(), TINY_HULL, 4),
    lambda: barrier_curves(_huge_upper(), TINY_HULL, 4),
], ids=["build_lower_barrier", "verify_containment", "barrier_curves"])
def test_a_q_weight_that_overflows_is_named(call):
    # alpha_1 d_1 = 1e400 overflows to inf: r_1 = alpha_1 / (alpha_1 d_1)^(1/m)
    # would read 0, not 1, and the Hölder peak would drop it.
    with pytest.raises(ValueError, match="^weight alpha_1 d_1 overflows; "
                                         "the parameters overflow floating point$"):
        call()


def _steep_upper(weights):
    return BarrierEnvelope(lambda1=1.0, eta1=1.0, lambda2=2.0, eta2=2.0, orientation="upper",
                           weights=weights, m=40.0, d=(1.0, 1.0))


ALPHA_1_POWER = "power alpha_1^(1-m) overflows; the parameters overflow floating point"
PLANE_PEAK = ("plane peak max_i d_i alpha_i^(1-m) underflows to 0; "
              "the parameters underflow floating point")


@pytest.mark.parametrize("call, message", [
    (lambda: build_upper_barrier((1e-10, 1.0), (1.0, 1.0), (1.0, 1.0), 40.0), ALPHA_1_POWER),
    (lambda: build_lower_barrier((1e-10, 1.0), (1.0, 1.0), (1.0, 1.0), 40.0), ALPHA_1_POWER),
    (lambda: verify_containment(_steep_upper((1e-10, 1.0)), TINY_HULL, 4), ALPHA_1_POWER),
    (lambda: build_lower_barrier((1e10, 1.0), (1.0, 1.0), (1.0, 1.0), 40.0),
     "a tangency base alpha_i d_i ulow_i^m underflows to 0; "
     "the parameters underflow floating point"),
    (lambda: build_upper_barrier((1e10, 1.0), (1.0, 1.0), (1.0, 1.0), 40.0),
     "envelope level lambda2 overflows; the parameters overflow floating point"),
    (lambda: build_upper_barrier((1e10, 1e10), (1.0, 1.0), (1.0, 1.0), 40.0), PLANE_PEAK),
    (lambda: verify_containment(_steep_upper((1e10, 1e10)), TINY_HULL, 4), PLANE_PEAK),
], ids=["upper_tiny", "lower_tiny", "containment_tiny", "lower_huge", "upper_huge",
        "upper_all_huge", "containment_all_huge"])
def test_a_power_alpha_i_to_m_minus_1_out_of_range_is_named(call, message):
    # alpha_i^39 is 1e-390 or 1e390: d_i alpha_i^(1-m) overflows or underflows,
    # and in the plain tangency so does alpha_i d_i (1 / alpha_i)^m.  Where
    # every d_i alpha_i^(1-m) reads 0, a plane link's value would be decided
    # by the underflow, so containment refuses it too.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_plane_power_that_underflows_leaves_the_other_vertex():
    # d_1 alpha_1^(1-m) = 1e-390 reads 0, so the plane links peak at e_2.
    links = verify_containment(_steep_upper((1e10, 1.0)), TINY_HULL, 4).links
    assert links[2].name == "plane_eta1_in_ellipsoid_lambda2"
    assert (links[2].ok, links[2].worst_margin, links[2].worst_point) == (True, 0.5, (0.0, 1.0))


@pytest.mark.parametrize("args, what", [
    ((1.0, (1e-200, 1.0), (1e-200, 1.0), 1.5),
     "a tangency base alpha_i d_i ulow_i^m underflows to 0"),
    ((1e-200, (1e-150, 1.0), (1.0, 1.0), 1.5), "tangency level Lambda underflows to 0"),
    ((1.0, (1e200, 1e200), (1.0, 1.0), 1.5), "tangency sum S underflows to 0"),
    ((1e-107, (1e-150, 1.0), (1.0, 1.0), 1.5),
     "tangency level Lambda underflows below the smallest normal float"),
    ((1.0, (1e155, 1e155), (1.0, 1.0), 1.5),
     "tangency sum S underflows below the smallest normal float"),
], ids=["point", "Lambda", "S", "Lambda-subnormal", "S-subnormal"])
def test_tangency_names_what_underflows(args, what):
    # Term i of S, (w_i ulow_i^m)^(-1/(m-1)), is the tangent point's face
    # coordinate u_i / ulow_i times S / Theta; its base w_1 ulow_1^1.5 is 1e-500.
    # Lambda = Theta^1.5 S^(-1/2) with S = 1e300 is about 1e-300 * 1e-150, or
    # 1e-160.5 * 1e-150; each term of S is (w_i ulow_i^m)^(-2) = 1e-400, or 1e-310.
    message = f"{what}; the parameters underflow floating point"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _tangency_level(*args)


def test_tangency_names_a_point_coordinate_that_overflows():
    # The tangent point's face coordinate u_1 / ulow_1 is Theta / S times the
    # term (w_1 ulow_1^1.5)^(-2) of S, which is (1e-307.5)^(-2), past the float range.
    with pytest.raises(ValueError, match="^a term of the tangency sum S overflows; "
                                         "the parameters overflow floating point$"):
        _tangency_level(1.0, (1e-300, 1.0), (1e-5, 1.0), 1.5)


@pytest.mark.parametrize("alpha, ulow", [
    ((1e-100, 1e100), (1.0, 1.0)),
    ((1e-300, 1.0), (1e100, 1.0)),
], ids=["point-underflow", "point-overflow"])
def test_tangency_level_answers_where_the_tangent_point_leaves_the_float_range(alpha, ulow):
    # At m = 1.5 the tangent point's u_2 is about 1e-400, or its power
    # (alpha_1 ulow_1)^(-2) = 1e400 overflows; Lambda needs neither.
    lower, _ = decimal_chains(alpha, (1.0, 1.0), ulow, ulow, 1.5)
    assert rel_gap(_tangency_level(1.0, alpha, ulow, 1.5), lower["lambda1"]) < 1e-12


# Plain-loop twins of the geometry layer: the operations of hull_intercepts,
# both builders and verify_containment, one element at a time in the same
# order, with the builtin sum, min and max over the lists they build, so
# that they round as the library does on every interpreter.

def hull_by_loops(sigma, C):
    ubar, ulow = [], []
    for i in range(len(sigma)):
        axis = []
        for s, row in zip(sigma, C):
            axis.append(s / row[i])
        ubar.append(max(axis))
        ulow.append(min(axis))
    return tuple(ubar), tuple(ulow)


def plane_vertices_by_loops(alpha, d, m):
    values = []
    for a, di in zip(alpha, d):
        values.append(di * a ** (1.0 - m))
    return values


def q_weights_by_loops(alpha, d):
    w_q = []
    for a, di in zip(alpha, d):
        w_q.append(a * di)
    return w_q


def vertex_by_loops(values):
    """The largest value and its vertex, the highest index on ties."""
    k = 0
    for i in range(1, len(values)):
        if values[i] >= values[k]:
            k = i
    vertex = []
    for i in range(len(values)):
        vertex.append(1.0 if i == k else 0.0)
    return values[k], tuple(vertex)


def tangency_by_loops(theta, w_q, ulow, m):
    e = 1.0 / (m - 1.0)
    terms = []
    for w, lo in zip(w_q, ulow):
        terms.append((w * lo ** m) ** -e)
    return theta ** m * sum(terms) ** (1.0 - m)


def lower_by_loops(alpha, d, ulow, m):
    grow = max(plane_vertices_by_loops(alpha, d, m))
    w_q = q_weights_by_loops(alpha, d)
    lambda1 = tangency_by_loops(1.0, w_q, ulow, m)
    eta1 = (lambda1 / grow) ** (1.0 / m)
    inverse = []
    for a in alpha:
        inverse.append(1.0 / a)
    lambda2 = tangency_by_loops(eta1, w_q, inverse, m)
    return lambda1, eta1, lambda2, (lambda2 / grow) ** (1.0 / m)


def upper_by_loops(alpha, d, ubar, m):
    e = 1.0 / (m - 1.0)
    terms, peaks = [], []
    for a, di, hi in zip(alpha, d, ubar):
        terms.append(a * di ** -e)
        peaks.append(a * di * hi ** m)
    S = sum(terms)
    grow = max(plane_vertices_by_loops(alpha, d, m))
    lambda1 = max(peaks)
    eta1 = lambda1 ** (1.0 / m) * S ** ((m - 1.0) / m)
    lambda2 = eta1 ** m * grow
    return lambda1, eta1, lambda2, lambda2 ** (1.0 / m) * S ** ((m - 1.0) / m)


def dual_peak_by_loops(a, w_q, m):
    dual = m / (m - 1.0)
    r = []
    for ai, wi in zip(a, w_q):
        r.append(ai / wi ** (1.0 / m))
    top = max(r)
    terms, t = [], []
    for ri, ai in zip(r, a):
        terms.append((ri / top) ** dual)
        t.append(terms[-1] / ai)
    norm = sum(t)
    point = []
    for ti in t:
        point.append(ti / norm)
    return top * sum(terms) ** (1.0 / dual), tuple(point)


def links_by_loops(env, hull):
    """(name, ok, worst margin, worst point) per link of verify_containment."""
    alpha, d, m = env.weights, env.d, env.m
    w_q = q_weights_by_loops(alpha, d)
    lower = env.orientation == "lower"

    def plane(eta):
        def point(t):
            u = []
            for ti, a in zip(t, alpha):
                u.append(eta * ti / a)
            return tuple(u)
        return eta ** m, point

    def ellipsoid(lam):
        root = lam ** (1.0 / m)

        def point(t):
            q = []
            for w, ti in zip(w_q, t):
                q.append(w * ti ** m)
            scale = root / sum(q) ** (1.0 / m)
            u = []
            for ti in t:
                u.append(scale * ti)
            return tuple(u)
        return root, point

    def face(t):
        u = []
        for ti, ci in zip(t, hull.ubar):
            u.append(ti * ci)
        return tuple(u)

    plane_peak = vertex_by_loops(plane_vertices_by_loops(alpha, d, m))
    ray_peak = dual_peak_by_loops(alpha, w_q, m)
    if lower:
        inverse = []
        for lo in hull.ulow:
            inverse.append(1.0 / lo)
        hull_peak = dual_peak_by_loops(inverse, w_q, m)
    else:
        values = []
        for w, hi in zip(w_q, hull.ubar):
            values.append(w * hi ** m)
        hull_peak = vertex_by_loops(values)
    lam1, eta1, lam2, eta2 = env.lambda1, env.eta1, env.lambda2, env.eta2
    if lower:
        links = (("plane_eta2_in_ellipsoid_lambda2", plane_peak, plane(eta2), lam2),
                 ("ellipsoid_lambda2_in_plane_eta1", ray_peak, ellipsoid(lam2), eta1),
                 ("plane_eta1_in_ellipsoid_lambda1", plane_peak, plane(eta1), lam1),
                 ("ellipsoid_lambda1_in_inner_hull", hull_peak, ellipsoid(lam1), 1.0))
    else:
        links = (("outer_hull_face_in_ellipsoid_lambda1", hull_peak, (1.0, face), lam1),
                 ("ellipsoid_lambda1_in_plane_eta1", ray_peak, ellipsoid(lam1), eta1),
                 ("plane_eta1_in_ellipsoid_lambda2", plane_peak, plane(eta1), lam2),
                 ("ellipsoid_lambda2_in_plane_eta2", ray_peak, ellipsoid(lam2), eta2))
    out = []
    for name, (largest, t), (factor, point), limit in links:
        value = factor * largest
        out.append((name, value <= limit * (1.0 + REGION_REL_TOL), (limit - value) / limit,
                    point(t)))
    return out


@pytest.mark.filterwarnings("ignore:degenerate hull")  # n = 1
def test_geometry_layer_equals_its_plain_loop_twins_bit_for_bit():
    """hull_intercepts, the four levels of both builders and every link's
    verdict, worst margin and worst point equal the plain-loop twins', float
    for float, on seeded systems n = 1..6 at m = 1.5, 2 and 3."""
    rng = random.Random(30)
    for k in range(600):
        n, m = 1 + k % 6, (1.5, 2.0, 3.0)[k // 6 % 3]
        sigma = [10 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
        C = [[10 ** rng.uniform(-1.0, 1.0) * (3.0 if i == j else 1.0) for j in range(n)]
             for i in range(n)]
        alpha = [10 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
        d = [10 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
        hull = hull_intercepts(ReactionSpec(sigma=sigma, C=C))
        assert (hull.ubar, hull.ulow) == hull_by_loops(sigma, C), k
        lower = build_lower_barrier(alpha, d, hull.ulow, m)
        upper = build_upper_barrier(alpha, d, hull.ubar, m)
        for env, twin in ((lower, lower_by_loops(alpha, d, hull.ulow, m)),
                          (upper, upper_by_loops(alpha, d, hull.ubar, m))):
            assert (env.lambda1, env.eta1, env.lambda2, env.eta2) == twin, (k, env)
            links = [(link.name, link.ok, link.worst_margin, link.worst_point)
                     for link in verify_containment(env, hull, 1).links]
            assert links == links_by_loops(env, hull), (k, env)
