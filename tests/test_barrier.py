"""Tangency closed forms and envelope nesting."""

import math
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbarrier import (
    BarrierEnvelope,
    HullBounds,
    barrier_curves,
    build_lower_barrier,
    build_upper_barrier,
    tangency_plain,
    tangency_weighted,
    verify_containment,
)
from nbarrier import barrier as barrier_module
from nbarrier.barrier import (
    ContainmentReport,
    LinkReport,
    _compositions,
    _pieces,
    _simplex_lattice,
)
from nbarrier.model import REGION_REL_TOL

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


def test_weighted_tangency_point_sits_on_both_level_sets():
    alpha, d, ulow, m = (0.7, 1.3, 2.1), (0.5, 2.0, 1.1), (0.4, 0.9, 1.5), 2.5
    res = tangency_weighted(1.3, alpha, d, ulow, m)
    assert q_value(res.point, alpha, d, m) == pytest.approx(res.Lambda, rel=1e-10)
    assert sum(ui / lo for ui, lo in zip(res.point, ulow)) == pytest.approx(
        1.3, rel=1e-10)


def test_plain_tangency_point_sits_on_both_level_sets():
    alpha, d, m = (0.7, 1.3, 2.1), (0.5, 2.0, 1.1), 1.5
    res = tangency_plain(0.8, alpha, d, m)
    assert q_value(res.point, alpha, d, m) == pytest.approx(res.Lambda, rel=1e-10)
    assert sum(a * ui for a, ui in zip(alpha, res.point)) == pytest.approx(
        0.8, rel=1e-10)


def test_tangency_rejects_degenerate_exponent_and_level():
    with pytest.raises(ValueError):
        tangency_weighted(1.0, (1.0,), (1.0,), (1.0,), 1.0)
    with pytest.raises(ValueError):
        tangency_plain(0.0, (1.0,), (1.0,), 2.0)
    with pytest.raises(ValueError):
        tangency_plain(1.0, (1.0, -1.0), (1.0, 1.0), 2.0)
    with pytest.raises(ValueError):
        tangency_plain(1.0, (0.0, 1.0), (1.0, 1.0), 2.0)


@given(st.data(), exponents, st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_tangency_level_is_m_homogeneous_in_theta(data, m, n):
    """Scaling the plane level by c scales Lambda by c^m."""
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ulow = tuple(data.draw(positive) for _ in range(n))
    c = data.draw(st.floats(min_value=0.5, max_value=3.0))
    base = tangency_weighted(1.0, alpha, d, ulow, m)
    scaled = tangency_weighted(c, alpha, d, ulow, m)
    assert scaled.Lambda == pytest.approx(c ** m * base.Lambda, rel=1e-9)
    plain_base = tangency_plain(1.0, alpha, d, m)
    plain_scaled = tangency_plain(c, alpha, d, m)
    assert plain_scaled.Lambda == pytest.approx(
        c ** m * plain_base.Lambda, rel=1e-9)


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


def test_containment_walks_the_lattice_once(monkeypatch):
    """One walk per call: one pass over the compositions of samples into
    n - 1 parts, each prefix the root of rest + 1 lattice points."""
    calls, leaves = [], []

    def counting_compositions(parts, total):
        calls.append((parts, total))
        for k in _compositions(parts, total):
            leaves.append(k[-1] + 1)
            yield k

    monkeypatch.setattr(barrier_module, "_compositions", counting_compositions)
    for n, samples in ((2, 9), (3, 9), (5, 4)):
        alpha, d, m = (1.0, 2.0, 0.5, 1.2, 0.8)[:n], (3.0, 4.0, 1.5, 0.7, 2.2)[:n], 2.5
        ulow = (1 / 3, 1 / 2, 0.7, 0.4, 0.9)[:n]
        hull = HullBounds(ubar=tuple(lo + 1.0 for lo in ulow), ulow=ulow)
        for env in (build_lower_barrier(alpha, d, hull.ulow, m),
                    build_upper_barrier(alpha, d, hull.ubar, m)):
            calls.clear()
            leaves.clear()
            assert verify_containment(env, hull, samples).ok
            assert calls == [(n - 1, samples)]
            assert sum(leaves) == math.comb(samples + n - 1, n - 1)


def brute_force_links(env, hull, samples, tol=REGION_REL_TOL):
    """Each link checked point by point: build every boundary point u of the
    inner set, evaluate the outer set's function at u, and keep the first
    point of smallest margin.  Returns (name, ok, margins, points) per link."""
    alpha, d, m = env.weights, env.d, env.m
    lattice = reference_lattice(len(alpha), samples)
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
    return [(name, all(f(u) <= limit * (1 + tol) for u in points),
             [(limit - f(u)) / limit for u in points], points)
            for name, points, f, limit in links]


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), exponents, st.integers(min_value=1, max_value=6),
       st.sampled_from(["lower", "upper"]), st.sampled_from([1.0, 0.3, 0.9, 1.5]))
@settings(max_examples=80, deadline=None)
def test_containment_matches_a_point_by_point_sweep(data, m, n, side, scale):
    """The homogeneity route against direct evaluation at every boundary point.

    scale moves the checked hull face off the intercepts: inward it breaks
    the hull link, outward the hull is only looser.
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
    for link, (name, ok, margins, points) in zip(report.links, expected):
        assert link.ok == ok, name
        assert link.worst_margin == pytest.approx(min(margins), rel=0, abs=1e-12), name
        # The first point of smallest margin, unless another point lies
        # within rounding of it: then any of those may be reported.
        near = [u for margin, u in zip(margins, points) if margin <= min(margins) + 1e-12]
        assert any(link.worst_point == pytest.approx(u, rel=1e-12, abs=1e-300)
                   for u in near), name
        if len(near) == 1:
            assert link.worst_point == pytest.approx(near[0], rel=1e-12, abs=1e-300)


def left_to_right(weights, xs):
    """sum_i weights_i * xs_i, added in index order."""
    total = 0.0
    for w, x in zip(weights, xs):
        total += w * x
    return total


def per_point_containment(env, hull, samples):
    """verify_containment as a per-point walk: every lattice point builds its
    tuple, takes its n powers and forms its four sums from scratch.

    The sums add the same products in the same order as the prefix-sum walk,
    so the two reports must be equal float for float.
    """
    alpha, d, m = env.weights, env.d, env.m
    inv_m = 1.0 / m
    lower = env.orientation == "lower"
    w_q = tuple(a * di for a, di in zip(alpha, d))
    w_plane = tuple(di * a ** (1.0 - m) for a, di in zip(alpha, d))
    if lower:
        w_hull = tuple(1.0 / lo for lo in hull.ulow)
    else:
        w_hull = tuple(a * di * hi ** m for a, di, hi in zip(alpha, d, hull.ubar))
    peaks = [[-math.inf, None, 0.0] for _ in range(3)]  # plane, ray, hull
    for t in reference_lattice(len(alpha), samples):
        tm = [ti ** m for ti in t]
        q_root = left_to_right(w_q, tm) ** inv_m
        values = (left_to_right(w_plane, tm), left_to_right(alpha, t) / q_root,
                  left_to_right(w_hull, t) / q_root if lower else left_to_right(w_hull, tm))
        for peak, value in zip(peaks, values):
            peak[2] += value
            if value > peak[0]:
                peak[0], peak[1] = value, t
    plane, ray, hull_peak = peaks
    lam1, eta1, lam2, eta2 = env.lambda1, env.eta1, env.lambda2, env.eta2
    if lower:
        links = (("plane_eta2_in_ellipsoid_lambda2", plane, "plane_eta2", lam2),
                 ("ellipsoid_lambda2_in_plane_eta1", ray, "ellipsoid_lambda2", eta1),
                 ("plane_eta1_in_ellipsoid_lambda1", plane, "plane_eta1", lam1),
                 ("ellipsoid_lambda1_in_inner_hull", hull_peak, "ellipsoid_lambda1", 1.0))
    else:
        links = (("outer_hull_face_in_ellipsoid_lambda1", hull_peak, "hull_face", lam1),
                 ("ellipsoid_lambda1_in_plane_eta1", ray, "ellipsoid_lambda1", eta1),
                 ("plane_eta1_in_ellipsoid_lambda2", plane, "plane_eta1", lam2),
                 ("ellipsoid_lambda2_in_plane_eta2", ray, "ellipsoid_lambda2", eta2))
    pieces = _pieces(env, hull)
    reports = []
    for name, (largest, t, total), inner, limit in links:
        factor, point = pieces[inner]
        value = factor * largest
        assert math.isfinite(value) and math.isfinite(total), name
        reports.append(LinkReport(name=name, ok=value <= limit * (1.0 + REGION_REL_TOL),
                                  worst_margin=(limit - value) / limit,
                                  worst_point=point(t)))
    return ContainmentReport(links=tuple(reports))


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), exponents, st.integers(min_value=1, max_value=6),
       st.sampled_from(["lower", "upper"]), st.sampled_from([1.0, 0.3, 0.9, 1.5]))
@settings(max_examples=120, deadline=None)
def test_containment_equals_the_per_point_walk(data, m, n, side, scale):
    """The prefix-sum walk gives the per-point walk's report, bit for bit."""
    alpha = tuple(data.draw(positive) for _ in range(n))
    d = tuple(data.draw(positive) for _ in range(n))
    ulow = tuple(data.draw(positive) for _ in range(n))
    ubar = tuple(lo + data.draw(positive) for lo in ulow)
    samples = data.draw(st.integers(
        min_value=1, max_value={1: 5, 2: 40, 3: 20, 4: 12, 5: 8, 6: 6}[n]))
    if side == "lower":
        env = build_lower_barrier(alpha, d, ulow, m)
        hull = HullBounds(ubar=tuple(max(hi, lo * scale) for hi, lo in zip(ubar, ulow)),
                          ulow=tuple(lo * scale for lo in ulow))
    else:
        env = build_upper_barrier(alpha, d, ubar, m)
        hull = HullBounds(ubar=tuple(max(hi * scale, lo) for hi, lo in zip(ubar, ulow)),
                          ulow=ulow)
    assert verify_containment(env, hull, samples) == per_point_containment(env, hull, samples)


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
