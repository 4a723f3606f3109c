"""Closed-form bound branches and the cross-route identity."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbarrier import (
    BoundsResult,
    HullBounds,
    ReactionSpec,
    bounds_general,
    bounds_m1,
    bounds_two_species_m2,
    build_lower_barrier,
    build_upper_barrier,
    hull_intercepts,
)
from nbarrier.bounds import two_species_m2_lower, two_species_m2_upper

from conftest import decimal_chains, rel_gap

REMARK_HULL = HullBounds(ubar=(240.0, 16.0), ulow=(80.0, 80 / 9))

positive = st.floats(min_value=0.2, max_value=5.0,
                     allow_nan=False, allow_infinity=False)


def test_two_species_reference_values():
    res = bounds_two_species_m2(0.5, 1 / 3, 3.0, 4.0, REMARK_HULL, 1)
    assert res.lower == pytest.approx(80 / math.sqrt(2211), rel=1e-12)
    assert res.upper == pytest.approx(180 * math.sqrt(2), rel=1e-12)
    assert res.branch == "two_species_m2"


def test_two_species_agrees_with_envelope_route():
    direct = bounds_two_species_m2(0.5, 1 / 3, 3.0, 4.0, REMARK_HULL, 1)
    via_envelopes = bounds_general((0.5, 1 / 3), (3.0, 4.0), REMARK_HULL, 2.0, 1)
    assert direct.lower == pytest.approx(via_envelopes.lower, rel=1e-12)
    assert direct.upper == pytest.approx(via_envelopes.upper, rel=1e-12)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cross_route_identity_randomized(data):
    """The corollary transcription and the envelope build are one function."""
    a1, a2 = data.draw(positive), data.draw(positive)
    d1, d2 = data.draw(positive), data.draw(positive)
    lo = (data.draw(positive), data.draw(positive))
    hull = HullBounds(ubar=(lo[0] + data.draw(positive),
                            lo[1] + data.draw(positive)), ulow=lo)
    direct = bounds_two_species_m2(a1, a2, d1, d2, hull, 1)
    via = bounds_general((a1, a2), (d1, d2), hull, 2.0, 1)
    assert direct.lower == pytest.approx(via.lower, rel=1e-12)
    assert direct.upper == pytest.approx(via.upper, rel=1e-12)


def test_m1_branch_hand_values():
    hull = HullBounds(ubar=(3.0, 2.0), ulow=(1.0, 0.5))
    res = bounds_m1((1.0, 2.0), (1.0, 4.0), hull, 1)
    assert res.upper == pytest.approx(max(3.0, 4.0) * 4.0 / 1.0)
    assert res.lower == pytest.approx(min(1.0, 1.0) * 1.0 / 4.0)
    assert res.branch == "m1"


@pytest.mark.parametrize("alpha, d, message", [
    ((0.0, 1.0), (1.0, 1.0), "alpha must be strictly positive"),
    ((1.0, 1.0), (1.0, -2.0), "d must be strictly positive"),
    ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0),
     r"^vector lengths must agree, got n = 2, len\(alpha\) = 3, len\(d\) = 3$"),
], ids=["alpha", "d", "length"])
def test_m1_branch_refuses_bad_vectors(alpha, d, message):
    with pytest.raises(ValueError, match=message):
        bounds_m1(alpha, d, REMARK_HULL, 1)


def test_zero_characteristic_collapses_lower_bound():
    res = bounds_two_species_m2(0.5, 1 / 3, 3.0, 4.0, REMARK_HULL, 0)
    assert res.lower == 0.0
    assert res.chi == 0
    alt = bounds_m1((1.0, 1.0), (1.0, 2.0),
                    HullBounds(ubar=(2.0, 2.0), ulow=(1.0, 1.0)), 0)
    assert alt.lower == 0.0


def test_bounds_general_rejects_linear_diffusion():
    with pytest.raises(ValueError):
        bounds_general((1.0, 1.0), (1.0, 1.0), REMARK_HULL, 1.0, 1)


def test_two_species_branch_needs_two_dimensions():
    hull3 = HullBounds(ubar=(2.0, 2.0, 2.0), ulow=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        bounds_two_species_m2(1.0, 1.0, 1.0, 1.0, hull3, 1)


def test_bounds_result_validation():
    with pytest.raises(ValueError):
        BoundsResult(lower=0.5, upper=1.0, chi=2, branch="general")
    with pytest.raises(ValueError):
        BoundsResult(lower=0.5, upper=1.0, chi=0, branch="general")
    with pytest.raises(ValueError):
        BoundsResult(lower=2.0, upper=1.0, chi=1, branch="general")
    with pytest.raises(ValueError, match="upper bound must be positive"):
        BoundsResult(lower=0.0, upper=0.0, chi=0, branch="general")
    doc = BoundsResult(lower=0.5, upper=1.0, chi=1, branch="general").to_dict()
    assert set(doc) == {"lower", "upper", "chi", "branch"}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bound_monotonicity_in_hull(data):
    """Wider hulls can only widen the bracket."""
    a = (data.draw(positive), data.draw(positive))
    d = (data.draw(positive), data.draw(positive))
    lo = (data.draw(positive), data.draw(positive))
    hi = (lo[0] + data.draw(positive), lo[1] + data.draw(positive))
    hull = HullBounds(ubar=hi, ulow=lo)
    grown = HullBounds(ubar=(hi[0] * 1.5, hi[1] * 1.5),
                       ulow=(lo[0] * 0.5, lo[1] * 0.5))
    base = bounds_two_species_m2(a[0], a[1], d[0], d[1], hull, 1)
    wide = bounds_two_species_m2(a[0], a[1], d[0], d[1], grown, 1)
    assert wide.upper >= base.upper * (1 - 1e-12)
    assert wide.lower <= base.lower * (1 + 1e-12)


def test_scaling_covariance_of_two_species_forms():
    # Scaling all intercepts by c scales both closed forms by c.
    args = (0.7, 1.1, 2.0, 3.0)
    c = 2.5
    lo1 = two_species_m2_lower(*args, 0.8, 1.2)
    lo2 = two_species_m2_lower(*args, 0.8 * c, 1.2 * c)
    assert lo2 == pytest.approx(c * lo1, rel=1e-12)
    up1 = two_species_m2_upper(*args, 0.8, 1.2)
    up2 = two_species_m2_upper(*args, 0.8 * c, 1.2 * c)
    assert up2 == pytest.approx(c * up1, rel=1e-12)


# A refusal names what left the float range: "<quantity> underflows ...",
# "<quantity> overflows; ..." or "<quantity> must be finite, got ...".
RANGE_FAULT = re.compile(r"^\S.* (underflows|overflows|must be finite)")


@pytest.mark.filterwarnings("ignore:degenerate hull")
def test_bands_match_a_50_digit_oracle_or_name_what_left_the_float_range():
    """Seeded systems with every alpha_i, d_i, sigma_i and c_ij drawn as
    10^U(-s, s): each envelope level and band end within rel 1e-12 of the
    decimal evaluation of the same closed forms, or a ValueError naming the
    quantity that under- or overflowed."""
    rng = random.Random(2016)
    answered = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.choice((1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 7.0, 20.0))
        s = rng.choice((1, 3, 8))
        alpha, d, sigma = ([10 ** rng.uniform(-s, s) for _ in range(n)] for _ in range(3))
        C = [[10 ** rng.uniform(-s, s) for _ in range(n)] for _ in range(n)]
        try:
            hull = hull_intercepts(ReactionSpec(sigma, C))
            band = bounds_general(alpha, d, hull, m, 1)
        except ValueError as exc:
            assert RANGE_FAULT.match(str(exc)), str(exc)
            continue
        lower, upper = decimal_chains(alpha, d, hull.ulow, hull.ubar, m)
        envelopes = ((build_lower_barrier(alpha, d, hull.ulow, m), lower),
                     (build_upper_barrier(alpha, d, hull.ubar, m), upper))
        for env, want in envelopes:
            for name in ("lambda1", "eta1", "lambda2", "eta2"):
                assert rel_gap(getattr(env, name), want[name]) < 1e-12, (env, name)
        assert (band.lower, band.upper) == (envelopes[0][0].eta2, envelopes[1][0].eta2)
        answered += 1
    assert answered > 300


@pytest.mark.parametrize("call, message", [
    (lambda: bounds_general((math.nan, 1.0), (3.0, 4.0), REMARK_HULL, 2.0, 1),
     "alpha must be finite, got nan"),
    (lambda: bounds_m1((1.0, 1.0), (math.inf, 4.0), REMARK_HULL, 1),
     "d must be finite, got inf"),
    (lambda: build_lower_barrier((1.0, 1.0), (math.nan, 1.0), REMARK_HULL.ulow, 2.0),
     "d must be finite, got nan"),
    (lambda: build_upper_barrier((1.0, math.inf), (3.0, 4.0), REMARK_HULL.ubar, 2.0),
     "alpha must be finite, got inf"),
    (lambda: two_species_m2_lower(math.nan, 1, 1, 1, 1, 1),
     "parameters must be finite, got nan"),
    (lambda: two_species_m2_upper(1, 1, 1, 1, 1, math.inf),
     "parameters must be finite, got inf"),
], ids=["general-alpha", "m1-d", "lower-d", "upper-alpha", "m2-lower", "m2-upper"])
def test_a_nan_or_infinite_weight_is_named_not_blamed_on_overflow(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
