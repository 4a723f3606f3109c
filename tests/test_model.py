"""Kinetics, hull intercepts and the sign-hypothesis check."""

import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbarrier import (
    HullBounds,
    ReactionSpec,
    SystemSpec,
    hull_intercepts,
    reaction_eval,
    system_from_dict,
    system_to_dict,
    verify_hypothesis_H,
)
from nbarrier.model import SIGN_ABS_TOL

# Classic two-species competition kinetics with crossed dominance.
LV = ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 2.0), (3.0, 1.0)))
LV_SPEC = SystemSpec(n=2, m=1.0, d=(1.0, 1.0), l=(1.0, 1.0), theta=0.0,
                     reaction=LV)

rates = st.floats(min_value=0.1, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def random_reaction(draw, n):
    sigma = tuple(draw(rates) for _ in range(n))
    C = tuple(tuple(draw(rates) for _ in range(n)) for _ in range(n))
    return ReactionSpec(sigma=sigma, C=C)


def test_reaction_eval_matches_affine_form():
    r = ReactionSpec(sigma=(1.0, 2.0), C=((3.0, 4.0), (5.0, 6.0)))
    f = reaction_eval(r, (0.1, 0.2))
    assert f == pytest.approx((1 - 0.3 - 0.8, 2 - 0.5 - 1.2), abs=1e-15)


def test_reaction_eval_rejects_wrong_length():
    with pytest.raises(ValueError):
        reaction_eval(LV, (1.0,))


def test_reaction_spec_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        ReactionSpec(sigma=(1.0, 0.0), C=((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ReactionSpec(sigma=(1.0, 1.0), C=((1.0, -2.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ReactionSpec(sigma=(1.0, 1.0), C=((1.0,), (1.0, 1.0)))


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=0.5, d=(1, 1), l=(1, 1), theta=0.0, reaction=LV)
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=2.0, d=(1,), l=(1, 1), theta=0.0, reaction=LV)
    with pytest.raises(ValueError):
        SystemSpec(n=3, m=2.0, d=(1, 1, 1), l=(1, 1, 1), theta=0.0, reaction=LV)


def test_hull_intercepts_hand_values():
    hull = hull_intercepts(LV)
    assert hull.ubar == pytest.approx((1.0, 1.0))
    assert hull.ulow == pytest.approx((1 / 3, 1 / 2))


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_hull_brackets_every_intercept(data, n):
    """Each plane's axis intercept lies between the hull's extremes."""
    r = random_reaction(data.draw, n)
    hull = hull_intercepts(r)
    for i in range(n):
        for j in range(n):
            cut = r.sigma[j] / r.C[j][i]
            assert hull.ulow[i] <= cut <= hull.ubar[i]


def test_hull_bounds_warns_on_degenerate_axis():
    sym = ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 1.0), (1.0, 1.0)))
    with pytest.warns(UserWarning, match="degenerate"):
        hull = hull_intercepts(sym)
    assert hull.is_degenerate()


def test_hull_bounds_rejects_bad_ordering():
    with pytest.raises(ValueError):
        HullBounds(ubar=(1.0, 1.0), ulow=(2.0, 0.5))
    with pytest.raises(ValueError):
        HullBounds(ubar=(1.0, 1.0), ulow=(0.0, 0.5))


def test_hypothesis_H_passes_on_intercept_hull():
    hull = hull_intercepts(LV)
    report = verify_hypothesis_H(LV_SPEC, hull, 50)
    assert report.inner_ok and report.outer_ok and report.ok
    assert report.worst_inner_value >= -1e-12
    assert report.worst_outer_value <= 1e-12


def test_hypothesis_H_detects_oversized_inner_region():
    hull = HullBounds(ubar=(2.5, 2.5), ulow=(2.0, 2.0))
    report = verify_hypothesis_H(LV_SPEC, hull, 30)
    assert not report.inner_ok
    assert report.worst_inner_value < 0
    assert not report.ok


def test_hypothesis_H_detects_undersized_outer_region():
    hull = HullBounds(ubar=(0.05, 0.05), ulow=(0.01, 0.01))
    report = verify_hypothesis_H(LV_SPEC, hull, 30)
    assert report.inner_ok
    assert not report.outer_ok
    assert report.worst_outer_value > 0


def test_hypothesis_H_refuses_degenerate_hull():
    with pytest.warns(UserWarning):
        hull = HullBounds(ubar=(1.0, 1.0), ulow=(1.0, 0.5))
    with pytest.raises(ValueError):
        verify_hypothesis_H(LV_SPEC, hull, 10)


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=3))
@settings(max_examples=25, deadline=None)
def test_hypothesis_H_holds_for_any_intercept_hull(data, n):
    """The intercept construction satisfies the sign hypothesis by design."""
    r = random_reaction(data.draw, n)
    hull = hull_intercepts(r)
    if hull.is_degenerate():
        return
    spec = SystemSpec(n=n, m=2.0, d=(1.0,) * n, l=(1.0,) * n, theta=0.0,
                      reaction=r)
    report = verify_hypothesis_H(spec, hull, 12)
    assert report.ok


def test_hypothesis_H_keeps_the_first_vertex_on_ties():
    """LV ties on both regions; axis 2 is visited first and kept."""
    hull = hull_intercepts(LV)
    report = verify_hypothesis_H(LV_SPEC, hull, 50)
    assert report.worst_inner_point == (0.0, 0.5)
    assert report.worst_outer_point == (0.0, 1.0)
    assert report.worst_inner_value == 0.0
    assert report.worst_outer_value == 0.0
    assert verify_hypothesis_H(LV_SPEC, hull, 1) == report


def lattice_extremes(spec, hull, r):
    """Brute-force sweep of both hull regions at lattice resolution r.

    Returns the minimum of min_i f_i over the solid simplex below the ulow
    face and the maximum of max_i f_i over the ubar face scaled by 1..2.
    """
    n = spec.n
    grid = list(product(range(r + 1), repeat=n))
    inner = min(
        min(reaction_eval(spec.reaction, tuple(ki / r * lo for ki, lo in zip(k, hull.ulow))))
        for k in grid if sum(k) <= r)
    outer = max(
        max(reaction_eval(spec.reaction,
                          tuple((1.0 + j / r) * ki / r * hi for ki, hi in zip(k, hull.ubar))))
        for k in grid if sum(k) == r for j in range(r + 1))
    return inner, outer


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=4),
       st.sampled_from((0.5, 0.9, 1.0, 1.1, 2.0)),
       st.sampled_from((0.5, 0.9, 1.0, 1.1, 2.0)))
@settings(max_examples=60, deadline=None)
def test_hypothesis_H_matches_a_lattice_sweep(data, n, inner_scale, outer_scale):
    """Exact vertex check against brute force, on intercept and moved hulls.

    Scales above 1 on ulow or below 1 on ubar move the hull so that H fails.
    """
    r = random_reaction(data.draw, n)
    base = hull_intercepts(r)
    ulow = tuple(inner_scale * lo for lo in base.ulow)
    ubar = tuple(outer_scale * hi for hi in base.ubar)
    assume(all(hi > lo for hi, lo in zip(ubar, ulow)))
    hull = HullBounds(ubar=ubar, ulow=ulow)
    spec = SystemSpec(n=n, m=2.0, d=(1.0,) * n, l=(1.0,) * n, theta=0.0,
                      reaction=r)
    report = verify_hypothesis_H(spec, hull, 6)
    inner, outer = lattice_extremes(spec, hull, 6)
    assert report.inner_ok == (inner >= -SIGN_ABS_TOL)
    assert report.outer_ok == (outer <= SIGN_ABS_TOL)
    scale = max([1.0, *r.sigma]
                + [2.0 * c * hi for row in r.C for c, hi in zip(row, hull.ubar)])
    assert report.worst_inner_value == pytest.approx(inner, rel=0.0, abs=1e-12 * scale)
    assert report.worst_outer_value == pytest.approx(outer, rel=0.0, abs=1e-12 * scale)


def test_inner_simplex_keeps_kinetics_nonnegative():
    """On the face sum u_i/ulow_i = 1 every f_i stays above -1e-12."""
    hull = hull_intercepts(LV)
    for k in range(101):
        t = k / 100
        u = (hull.ulow[0] * t, hull.ulow[1] * (1 - t))
        assert min(reaction_eval(LV, u)) >= -1e-12


def test_system_dict_round_trip():
    doc = system_to_dict(LV_SPEC)
    assert set(doc) == {"n", "m", "d", "l", "theta", "sigma", "C"}
    back = system_from_dict(doc)
    assert back == LV_SPEC
    assert system_to_dict(back) == doc


def test_system_from_dict_names_missing_key():
    doc = system_to_dict(LV_SPEC)
    del doc["sigma"]
    with pytest.raises(ValueError, match="sigma"):
        system_from_dict(doc)


# One spec per field, with the value put into that field alone.
NON_FINITE_FIELDS = {
    "sigma": lambda v: replace(LV, sigma=(1.0, v)),
    "C": lambda v: replace(LV, C=((1.0, 2.0), (v, 1.0))),
    "m": lambda v: replace(LV_SPEC, m=v),
    "d": lambda v: replace(LV_SPEC, d=(1.0, v)),
    "l": lambda v: replace(LV_SPEC, l=(v, 1.0)),
    "theta": lambda v: replace(LV_SPEC, theta=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_specs_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        NON_FINITE_FIELDS[field](value)


@pytest.mark.parametrize("key, value", [
    ("n", math.inf), ("n", math.nan), ("d", 5), ("C", [1.0, 2.0]),
    ("theta", [0.0]), ("sigma", None), ("l", ["two", 2]),
], ids=["inf-n", "nan-n", "scalar-d", "vector-C", "list-theta", "null-sigma", "text-l"])
def test_system_from_dict_names_malformed_key(key, value):
    doc = system_to_dict(LV_SPEC)
    doc[key] = value
    with pytest.raises(ValueError, match=f"^system document key '{key}' is malformed"):
        system_from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("m", "1", "expected a number, got str"),
    ("m", True, "expected a number, got bool"),
    ("n", 2.5, "expected an integer, got 2.5"),
    ("n", False, "expected an integer, got bool"),
    ("d", "11", "expected a list, got str"),
    ("C", "1", "expected a list, got str"),
    ("l", [1.0, True], "expected a number, got bool"),
], ids=["str-m", "bool-m", "fractional-n", "bool-n", "str-d", "str-C", "bool-in-l"])
def test_system_from_dict_rejects_loose_values(key, value, message):
    doc = system_to_dict(LV_SPEC)
    doc[key] = value
    with pytest.raises(ValueError, match=f"^system document key '{key}' is malformed: "
                                         f"{message}$"):
        system_from_dict(doc)


def test_system_from_dict_names_unknown_keys():
    doc = dict(system_to_dict(LV_SPEC), sigmas=[1.0, 1.0], note="x")
    with pytest.raises(ValueError, match="^system document has unknown key 'sigmas', 'note'$"):
        system_from_dict(doc)


def test_system_from_dict_accepts_integral_numbers():
    doc = dict(system_to_dict(LV_SPEC), n=2.0, m=1, theta=0)
    assert system_from_dict(doc) == LV_SPEC
