"""Three-species wave-blocking criteria."""

import math

import pytest

from nbarrier import (
    ThreeSpeciesParams,
    check,
    check_case_i,
    check_case_ii,
    params_from_dict,
)
from nbarrier.bounds import two_species_m2_lower, two_species_m2_upper

# Resident pair (d1,d2)=(1,2) invaded by a third species with c33=2.
BASE = dict(d=(1.0, 2.0, 1.0), sigma=(10.0, 12.0, 4.0),
            C=((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0)))


def params(sigma3, **extra):
    doc = dict(BASE)
    doc["sigma"] = (10.0, 12.0, sigma3)
    return ThreeSpeciesParams(**doc, **extra)


def test_case_i_scalars_and_delegation():
    verdict = check_case_i(params(4.0))
    assert verdict.applicable
    assert verdict.phi1 == pytest.approx(10 - 1.0)  # 10 - 0.5*4/2
    assert verdict.phi2 == pytest.approx(12 - 1.0)
    assert verdict.ulow_star == pytest.approx(min(9.0 / 1.0, 11.0 / 1.0))
    assert verdict.vlow_star == pytest.approx(min(9.0 / 1.0, 11.0 / 2.0))
    expected = two_species_m2_lower(1.0, 1.0, 1.0, 2.0, 9.0, 5.5)
    assert verdict.lambda_star == pytest.approx(expected, rel=1e-12)
    assert not verdict.blocked  # lambda_star ~ 2.4 < sigma3 = 4


def test_case_i_blocks_when_floor_reaches_sigma3():
    verdict = check_case_i(params(2.0))
    assert verdict.applicable
    assert verdict.lambda_star >= 2.0
    assert verdict.blocked


def screening_params(k):
    """The screening system of scripts/screen_nonexistence.py with sigma =
    k (10, 12, 2.5)."""
    return ThreeSpeciesParams(d=BASE["d"], sigma=(10.0 * k, 12.0 * k, 2.5 * k), C=BASE["C"])


def test_case_i_floor_level_scales_with_sigma_down_to_1e_155():
    # lambda_star is homogeneous of degree 1 in sigma: 2.49 k < 2.5 k = sigma3.
    unit = check_case_i(screening_params(1.0)).lambda_star
    verdict = check_case_i(screening_params(1e-155))
    assert verdict.lambda_star == pytest.approx(unit * 1e-155, rel=1e-13)
    assert not verdict.blocked


SQUARES_BELOW_NORMAL = "is not finite, got inf: squares of the floors ulow\\*, vlow\\* underflow"
DENOMINATOR_AT_ZERO = "divides by a denominator that underflows to 0"


@pytest.mark.parametrize("k, cause", [
    (3e-156, SQUARES_BELOW_NORMAL), (1e-156, SQUARES_BELOW_NORMAL),
    (1e-162, SQUARES_BELOW_NORMAL), (1e-163, DENOMINATOR_AT_ZERO), (1e-300, DENOMINATOR_AT_ZERO),
], ids=["3e-156", "1e-156", "1e-162", "1e-163", "1e-300"])
def test_case_i_refuses_a_floor_level_that_underflows_by_name(k, cause):
    # The squares of floors near 1e-156 underflow, so the closed form read
    # lambda_star = inf, and so blocked, where the exact level is 2.49 k.
    with pytest.raises(ValueError, match=f"^lambda_star {cause}"):
        check_case_i(screening_params(k))
    with pytest.raises(ValueError, match=f"^lambda_star {cause}"):
        check(screening_params(k))


def test_case_i_inapplicable_when_discounts_go_negative():
    verdict = check_case_i(params(48.0))
    assert not verdict.applicable
    assert verdict.ulow_star is None
    assert verdict.lambda_star is None
    assert not verdict.blocked


def test_case_ii_cap_is_exactly_thirty():
    # ubar* = max(10, 12) = 12, vbar* = max(10, 6) = 10,
    # cap = (1 + 1/2) sqrt(2 * max(144, 200)) with alpha = (1, 1).
    verdict = check_case_ii(params(40.0, w_minus_inf=4.0))
    assert verdict.ubar_star == pytest.approx(12.0)
    assert verdict.vbar_star == pytest.approx(10.0)
    assert verdict.lambda_star_upper == pytest.approx(30.0, rel=1e-12)
    assert verdict.lambda_star_upper == pytest.approx(
        two_species_m2_upper(1.0, 1.0, 1.0, 2.0, 12.0, 10.0), rel=1e-12)
    assert verdict.applicable
    assert verdict.threshold == pytest.approx(5.0)
    assert verdict.conclusive
    assert verdict.blocked  # 4 < 5


def test_case_ii_needs_boundary_data_to_conclude():
    silent = check_case_ii(params(40.0))
    assert silent.applicable and not silent.conclusive and not silent.blocked
    spared = check_case_ii(params(40.0, w_plus_inf=6.0))
    assert spared.conclusive and not spared.blocked  # 6 >= threshold 5
    inapplicable = check_case_ii(params(20.0, w_minus_inf=1.0))
    assert not inapplicable.applicable
    assert inapplicable.threshold is None
    assert not inapplicable.blocked


def test_case_ii_threshold_uses_the_smaller_tail_value():
    both = check_case_ii(params(40.0, w_minus_inf=6.0, w_plus_inf=4.0))
    assert both.blocked


def test_sigma3_screening_is_monotone():
    """Raising sigma3 only weakens case i and strengthens case ii."""
    grid = [0.5 * k for k in range(1, 90)]
    case_i_flags = []
    case_ii_flags = []
    thresholds = []
    for s3 in grid:
        verdict = check(params(s3, w_minus_inf=0.0))
        case_i_flags.append(verdict.case_i.blocked)
        case_ii_flags.append(verdict.case_ii.applicable)
        if verdict.case_ii.applicable:
            thresholds.append(verdict.case_ii.threshold)
    # Antitone: once case i stops blocking it never resumes.
    assert case_i_flags == sorted(case_i_flags, reverse=True)
    assert any(case_i_flags) and not all(case_i_flags)
    # Monotone: case ii applicability switches on once, threshold grows.
    assert case_ii_flags == sorted(case_ii_flags)
    assert any(case_ii_flags) and not all(case_ii_flags)
    assert thresholds == sorted(thresholds)


def test_bundled_check_carries_both_verdicts():
    verdict = check(params(4.0))
    doc = verdict.to_dict()
    assert set(doc) == {"case_i", "case_ii"}
    assert doc["case_i"]["applicable"] is True
    assert doc["case_ii"]["profile_hypotheses_asserted"] is True


def test_params_validation_and_round_trip():
    with pytest.raises(ValueError):
        ThreeSpeciesParams(d=(1.0, 1.0), sigma=(1.0, 1.0, 1.0), C=BASE["C"])
    with pytest.raises(ValueError):
        ThreeSpeciesParams(d=(1.0, 1.0, -1.0), sigma=(1.0, 1.0, 1.0),
                           C=BASE["C"])
    with pytest.raises(ValueError):
        ThreeSpeciesParams(d=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0),
                           C=BASE["C"], w_minus_inf=-2.0)
    doc = {"d": list(BASE["d"]), "sigma": [10, 12, 4],
           "C": [list(r) for r in BASE["C"]], "w_minus_inf": 1.5}
    p = params_from_dict(doc)
    assert p.w_minus_inf == 1.5 and p.w_plus_inf is None
    assert p.sigma == (10.0, 12.0, 4.0)
    with pytest.raises(ValueError, match="sigma"):
        params_from_dict({"d": [1, 1, 1], "C": doc["C"]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["d", "sigma", "C", "w_minus_inf", "w_plus_inf"])
def test_params_reject_non_finite_values(field, value):
    doc = dict(BASE)
    if field in ("d", "sigma"):
        doc[field] = (1.0, value, 1.0)
    elif field == "C":
        doc["C"] = (BASE["C"][0], (1.0, 2.0, value), BASE["C"][2])
    else:
        doc[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ThreeSpeciesParams(**doc)


@pytest.mark.parametrize("key, value", [
    ("d", 3), ("sigma", [1, None, 1]), ("C", [1, 2, 3]), ("w_plus_inf", [4]),
], ids=["scalar-d", "null-in-sigma", "vector-C", "list-w_plus_inf"])
def test_params_from_dict_names_malformed_key(key, value):
    doc = {"d": list(BASE["d"]), "sigma": [10, 12, 4],
           "C": [list(r) for r in BASE["C"]], key: value}
    with pytest.raises(ValueError, match=f"^parameter document key '{key}' is malformed"):
        params_from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("w_minus_infty", 4.0, "^parameter document has unknown key 'w_minus_infty'$"),
    ("w_plus_inf", True, "^parameter document key 'w_plus_inf' is malformed: "
                         "expected a number, got bool$"),
    ("d", "121", "^parameter document key 'd' is malformed: expected a list, got str$"),
], ids=["misspelt-key", "bool-w_plus_inf", "str-d"])
def test_params_from_dict_rejects_loose_documents(key, value, message):
    doc = {"d": list(BASE["d"]), "sigma": [10, 12, 4],
           "C": [list(r) for r in BASE["C"]], key: value}
    with pytest.raises(ValueError, match=message):
        params_from_dict(doc)
