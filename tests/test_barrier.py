"""Tangency closed forms and envelope nesting."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbarrier import (
    BarrierEnvelope,
    HullBounds,
    build_lower_barrier,
    build_upper_barrier,
    tangency_plain,
    tangency_weighted,
    verify_containment,
)

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
