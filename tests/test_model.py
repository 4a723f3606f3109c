"""Kinetics, hull intercepts and the sign-hypothesis check."""

import math
import random
import re
import sys
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nbarrier import (
    HullBounds,
    HypothesisReport,
    ReactionSpec,
    SystemSpec,
    hull_intercepts,
    reaction_eval,
    system_from_dict,
    system_to_dict,
    verify_hypothesis_H,
)
from nbarrier.barrier import BarrierEnvelope, build_lower_barrier, build_upper_barrier
from nbarrier.bounds import bounds_m1
from nbarrier.exact import tanh_family
from nbarrier.model import axis_intercepts, require_finite, require_positive, require_vectors
from nbarrier.nonexistence import ThreeSpeciesParams
from nbarrier.waves import integrate

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
    with pytest.raises(ValueError, match="at least one species"):
        ReactionSpec(sigma=(), C=())


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=0.5, d=(1, 1), l=(1, 1), theta=0.0, reaction=LV)
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=2.0, d=(1,), l=(1, 1), theta=0.0, reaction=LV)
    with pytest.raises(ValueError):
        SystemSpec(n=3, m=2.0, d=(1, 1, 1), l=(1, 1, 1), theta=0.0, reaction=LV)
    with pytest.raises(ValueError, match="need at least one species"):
        SystemSpec(n=0, m=2.0, d=(), l=(), theta=0.0, reaction=LV)
    with pytest.raises(ValueError, match="^l must be strictly positive$"):
        SystemSpec(n=2, m=2.0, d=(1, 1), l=(1, 0), theta=0.0, reaction=LV)


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
    with pytest.raises(ValueError, match=r"^vector lengths must agree, "
                                         r"got len\(ubar\) = 2, len\(ulow\) = 1$"):
        HullBounds(ubar=(1.0, 1.0), ulow=(0.5,))


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


@pytest.mark.parametrize("hull, samples, message", [
    (HullBounds(ubar=(1.0,), ulow=(0.5,)), 10, "hull dimension does not match system"),
    (HullBounds(ubar=(1.0, 1.0), ulow=(0.5, 0.5)), 0, "samples_per_face must be positive"),
], ids=["dimension", "samples"])
def test_hypothesis_H_refuses_a_malformed_call(hull, samples, message):
    with pytest.raises(ValueError, match=message):
        verify_hypothesis_H(LV_SPEC, hull, samples)


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
    assert report.inner_ok == (inner_scale <= 1.0)
    assert report.outer_ok == (outer_scale >= 1.0)
    scale = max([1.0, *r.sigma]
                + [2.0 * c * hi for row in r.C for c, hi in zip(row, hull.ubar)])
    assert report.worst_inner_value == pytest.approx(inner, rel=0.0, abs=1e-12 * scale)
    assert report.worst_outer_value == pytest.approx(outer, rel=0.0, abs=1e-12 * scale)


def hypothesis_H_by_vertex_walk(spec, hull):
    """The report of verify_hypothesis_H from reaction_eval at every axis
    vertex, the highest axis kept on ties, and the min_j f_j (inner) and
    max_j f_j (outer) of each vertex, lowest axis first."""
    n = spec.n

    def walk(intercepts, pick):
        values = [pick(reaction_eval(spec.reaction,
                                     tuple(intercepts[k] if i == k else 0.0 for i in range(n))))
                  for k in range(n)]
        return values, [k for k in range(n) if values[k] == pick(values)][-1]

    inner, i = walk(hull.ulow, min)
    outer, o = walk(hull.ubar, max)
    axes = axis_intercepts(spec.reaction.sigma, spec.reaction.C)
    report = HypothesisReport(
        inner_ok=all(lo <= min(axis) for lo, axis in zip(hull.ulow, axes)),
        outer_ok=all(hi >= max(axis) for hi, axis in zip(hull.ubar, axes)),
        worst_inner_point=tuple(hull.ulow[i] if k == i else 0.0 for k in range(n)),
        worst_inner_value=inner[i],
        worst_outer_point=tuple(hull.ubar[o] if k == o else 0.0 for k in range(n)),
        worst_outer_value=outer[o])
    return report, inner, outer


def seeded_H_case(rng):
    """A system of 1..7 species and a hull for it: coefficients repeated from
    a few exact ratios (so that axes tie and worst values cancel to 0.0),
    the same with C symmetric, or spread over six decades; the hull is the
    intercept hull or one whose faces each move by a factor."""
    n = rng.randint(1, 7)
    kind = rng.choice(("repeated", "symmetric", "spread"))
    if kind == "spread":
        def draw():
            return 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        def draw():
            return rng.choice((0.5, 1.0, 2.0, 3.0, 4.0))
    sigma = tuple(draw() for _ in range(n))
    C = [[draw() for _ in range(n)] for _ in range(n)]
    if kind == "symmetric":
        C = [[C[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    reaction = ReactionSpec(sigma=sigma, C=C)
    spec = SystemSpec(n=n, m=2.0, d=(1.0,) * n, l=(1.0,) * n, theta=0.0, reaction=reaction)
    base = hull_intercepts(reaction)
    if rng.random() < 0.5:
        return spec, base
    factors = (0.5, 0.9, 1.0, 1.1, 2.0)
    ulow = tuple(rng.choice(factors) * lo for lo in base.ulow)
    ubar = tuple(rng.choice(factors) * hi for hi in base.ubar)
    return spec, HullBounds(ubar=ubar, ulow=ulow) if all(map(float.__lt__, ulow, ubar)) else base


# c_jk u_k overflows, so sigma_j - c_jk u_k is -inf on every vertex (C
# uniform, every axis tied) or on some of them.
OVERFLOW_CASES = [
    (ReactionSpec(sigma=(1.0, 2.0), C=((1e300, 1e300), (1e300, 1e300))),
     HullBounds(ubar=(2e10, 4e10), ulow=(1e10, 1e10))),
    (ReactionSpec(sigma=(1.0, 1.0, 1.0), C=((1e300, 1.0, 1.0), (1.0, 1.0, 1.0),
                                            (1.0, 1.0, 1e300))),
     HullBounds(ubar=(4e10, 3.0, 4e10), ulow=(1e10, 0.5, 1e10))),
]


@pytest.mark.filterwarnings("ignore:degenerate hull")
def test_hypothesis_H_equals_the_vertex_walk_bit_for_bit():
    """Every report field equals the vertex walk's, and each worst value and
    point entry has its sign, on 10,000 seeded systems and the overflows."""
    rng = random.Random(22)
    cases = [(SystemSpec(n=r.n, m=2.0, d=(1.0,) * r.n, l=(1.0,) * r.n, theta=0.0,
                         reaction=r), hull) for r, hull in OVERFLOW_CASES]
    while len(cases) < 10_000 + len(OVERFLOW_CASES):
        spec, hull = seeded_H_case(rng)
        if not hull.is_degenerate():
            cases.append((spec, hull))
    zeros = ties = infinite = 0
    for spec, hull in cases:
        got = verify_hypothesis_H(spec, hull, 1)
        want, inner, outer = hypothesis_H_by_vertex_walk(spec, hull)
        for field in fields(HypothesisReport):
            assert getattr(got, field.name) == getattr(want, field.name), (spec, hull, field)
        for g, w in zip((got.worst_inner_value, got.worst_outer_value, *got.worst_inner_point,
                         *got.worst_outer_point),
                        (want.worst_inner_value, want.worst_outer_value,
                         *want.worst_inner_point, *want.worst_outer_point)):
            assert math.copysign(1.0, g) == math.copysign(1.0, w), (spec, hull)
        zeros += 0.0 in (got.worst_inner_value, got.worst_outer_value)
        ties += inner.count(want.worst_inner_value) > 1 or outer.count(want.worst_outer_value) > 1
        infinite += got.worst_inner_value == -math.inf
    # The draws reach what a looser comparison would let through.
    assert zeros > 1000 and ties > 1000 and infinite == len(OVERFLOW_CASES)


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


@pytest.mark.parametrize("value, message", [
    (math.nan, "weights must be finite, got nan"),
    (math.inf, "weights must be finite, got inf"),
    (-math.inf, "weights must be finite, got -inf"),
    (0.0, "weights must be strictly positive"),
    (-1.0, "weights must be strictly positive"),
], ids=["nan", "inf", "-inf", "zero", "negative"])
def test_require_positive_refuses_all_but_finite_positive_entries(value, message):
    # NaN passes v <= 0, so a sign test alone lets it through.
    require_positive(d=(1.0, 2.0), weights=(1.0, 5e-324, 1.7e308))
    with pytest.raises(ValueError, match=f"^{message}$"):
        require_positive(d=(1.0, 2.0), weights=(1.0, value))


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)],
                         ids=["int", "negative-int", "fraction"])
def test_a_number_no_float_holds_is_refused_by_name(value):
    # isfinite converts to float first, which overflows; an int that rounds
    # to the largest float is held by one.
    message = "^{} must be finite, got a number beyond the largest float$"
    with pytest.raises(ValueError, match=message.format("m")):
        replace(LV_SPEC, m=value)
    with pytest.raises(ValueError, match=message.format("weights")):
        require_positive(weights=(1.0, value))
    require_positive(weights=(1.0, int(sys.float_info.max) + 1))


def is_nan(v):
    """Whether v is a NaN; a Decimal one is asked, since comparing it signals."""
    return v.is_nan() if isinstance(v, Decimal) else v != v


def refusal_by_the_element_wise_rule(n, vectors):
    """(exception class, message) that require_vectors(n, **vectors) must
    raise, or None where it must accept, from plain loops over the
    element-wise 0.0 < v < inf, which a NaN fails: unequal lengths first,
    then the first vector with an entry that fails, named by its first
    non-finite entry if it has one."""
    lengths = [len(values) for values in vectors.values()]
    expected = n if n is not None else lengths[0] if lengths else None
    for length in lengths:
        if length != expected:
            return ValueError, "vector lengths must agree, got " + ", ".join(
                ([] if n is None else [f"n = {n}"])
                + [f"len({name}) = {len(values)}" for name, values in vectors.items()])
    for name, values in vectors.items():
        for v in values:
            if is_nan(v) or not 0.0 < v < math.inf:
                for w in values:
                    if is_nan(w) or not math.isfinite(w):
                        return ValueError, f"{name} must be finite, got {w!r}"
                return ValueError, f"{name} must be strictly positive"
    return None


def refusal(check, *args, **vectors):
    try:
        check(*args, **vectors)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def assert_one_validation_rule(n, vectors):
    want = refusal_by_the_element_wise_rule(n, vectors)
    assert refusal(require_vectors, n, **vectors) == want, (n, vectors)
    # require_positive checks the entries alone, field by field.
    want_positive = None
    for name, values in vectors.items():
        want_positive = refusal_by_the_element_wise_rule(None, {name: values})
        if want_positive:
            break
    assert refusal(require_positive, **vectors) == want_positive, vectors


# A NaN fails every comparison, so min and max skip one that is not first:
# only a check that compares each entry sees it in the middle or last.  A sum
# of large entries can overflow while every entry is finite, and an empty
# vector has no min.
EDGE_VECTORS = {
    "nan-first": (math.nan, 1.0, 2.0),
    "nan-middle": (1.0, math.nan, 2.0),
    "nan-last": (1.0, 2.0, math.nan),
    "nan-alone": (math.nan,),
    "inf": (1.0, math.inf),
    "-inf-first": (-math.inf, 1.0),
    "inf-and-nan": (math.inf, math.nan),
    "zero": (1.0, 0.0),
    "minus-zero": (-0.0, 1.0),
    "negative-middle": (1.0, -2.0, 3.0),
    "subnormal": (5e-324, 2.5e-310),
    "sum-overflows": (1e308, 1e308),
    "sum-overflows-then-nan": (1e308, 1e308, math.nan),
    "empty": (),
    "ints": (1, 2, 3),
    "int-zero": (3, 0),
    "fractions": (Fraction(1, 3), Fraction(7, 2)),
    "negative-fraction": (Fraction(1, 3), Fraction(-1, 2)),
    "mixed-exact": (2, Fraction(1, 3), 0.5),
    # Comparing a Decimal NaN signals, and no float holds a signaling one.
    "decimal-nan": (1.0, Decimal("NaN")),
    "decimal-snan": (Decimal("sNaN"), 2.0),
}
ACCEPTED = {"subnormal", "sum-overflows", "empty", "ints", "fractions", "mixed-exact"}


@pytest.mark.parametrize("name", list(EDGE_VECTORS))
def test_require_vectors_keeps_the_element_wise_rule_on_edge_entries(name):
    vector = EDGE_VECTORS[name]
    assert (refusal_by_the_element_wise_rule(None, {"x": vector}) is None) == (name in ACCEPTED)
    non_finite = [v for v in vector if is_nan(v) or not math.isfinite(v)]
    assert refusal(require_finite, x=vector) == (
        (ValueError, f"x must be finite, got {non_finite[0]!r}") if non_finite else None)
    for vectors in ({"x": vector}, {"x": vector, "y": (1.0,) * len(vector)},
                    {"y": (1.0,) * len(vector), "x": list(vector)}):
        assert_one_validation_rule(None, vectors)
        assert_one_validation_rule(len(vector), vectors)
        assert_one_validation_rule(len(vector) + 1, vectors)


ENTRIES = st.one_of(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308,
                     1.7976931348623157e308)),
    st.integers(min_value=-2, max_value=2 ** 70),
    st.fractions(min_value=-1, max_value=10 ** 6),
)


@st.composite
def vector_sets(draw):
    """n and one to three named vectors, mostly of one length."""
    size = draw(st.integers(min_value=0, max_value=6))
    vectors = {}
    for name in "xyz"[:draw(st.integers(min_value=1, max_value=3))]:
        length = size if draw(st.integers(min_value=0, max_value=9)) else draw(
            st.integers(min_value=0, max_value=7))
        entries = draw(st.lists(ENTRIES, min_size=length, max_size=length))
        vectors[name] = tuple(entries) if draw(st.booleans()) else entries
    return draw(st.sampled_from((None, None, size, size + 1))), vectors


@settings(max_examples=300, deadline=None)
@given(vector_sets())
@example((None, {"x": (1.0, math.nan, 2.0)}))
@example((2, {"x": (1.0, 2.0), "y": (3.0, math.nan)}))
@example((None, {"x": (1e308, 1e308), "y": (5e-324, 1.0)}))
@example((0, {"x": (), "y": []}))
def test_require_vectors_accepts_and_refuses_as_the_element_wise_check(case):
    n, vectors = case
    assert_one_validation_rule(n, vectors)


# Every entry point that takes a coefficient vector: builds it from a vector of
# n ones, with the named vector's second entry or length altered, and gives the
# message for one extra entry, or None where no length can be got wrong alone.
VECTOR_ENTRY_POINTS = {
    "ReactionSpec-sigma": (lambda v: ReactionSpec(sigma=v, C=LV.C), "sigma", 2, None),
    "ReactionSpec-C": (lambda v: ReactionSpec(sigma=LV.sigma, C=((1.0, 2.0), v)),
                       "C", 2, None),
    "SystemSpec-d": (lambda v: replace(LV_SPEC, d=v), "d", 2,
                     "n = 2, len(d) = 3, len(l) = 2"),
    "SystemSpec-l": (lambda v: replace(LV_SPEC, l=v), "l", 2,
                     "n = 2, len(d) = 2, len(l) = 3"),
    "HullBounds-ubar": (lambda v: HullBounds(ubar=v, ulow=(0.5, 0.5)), "ubar", 2,
                        "len(ubar) = 3, len(ulow) = 2"),
    "HullBounds-ulow": (lambda v: HullBounds(ubar=(2.0, 2.0), ulow=v), "ulow", 2,
                        "len(ubar) = 2, len(ulow) = 3"),
    "bounds_m1": (lambda v: bounds_m1(v, (1.0, 2.0), HullBounds((2.0, 2.0), (1.0, 1.0)), 1),
                  "alpha", 2, "n = 2, len(alpha) = 3, len(d) = 2"),
    "build_lower_barrier": (lambda v: build_lower_barrier((1.0, 2.0), (3.0, 4.0), v, 2.0),
                            "ulow", 2, "len(alpha) = 2, len(d) = 2, len(ulow) = 3"),
    "build_upper_barrier": (lambda v: build_upper_barrier((1.0, 2.0), v, (1.0, 1.0), 2.0),
                            "d", 2, "len(alpha) = 2, len(d) = 3, len(ubar) = 2"),
    "BarrierEnvelope": (lambda v: BarrierEnvelope(1.0, 1.0, 0.5, 0.5, "lower", v, 2.0,
                                                  (3.0, 4.0)),
                        "weights", 2, "len(weights) = 3, len(d) = 2"),
    "ThreeSpeciesParams": (lambda v: ThreeSpeciesParams(
        d=(1.0, 2.0, 1.0), sigma=v, C=((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0))),
        "sigma", 3, "n = 3, len(d) = 3, len(sigma) = 4"),
    "integrate": (lambda v: integrate(replace(LV_SPEC, m=2.0), v, (0.0, 0.0), (0.0, 0.1), 0.1),
                  "u0", 2, "n = 2, len(u0) = 3"),
    "tanh_family": (lambda v: tanh_family(3.0, 4.0, 1.0, v[1]), "c22", 2, None),
}
BAD_ENTRIES = {"nan": (math.nan, "{name} must be finite, got nan"),
               "inf": (math.inf, "{name} must be finite, got inf"),
               "zero": (0.0, "{name} must be strictly positive"),
               "negative": (-1.0, "{name} must be strictly positive")}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (*_, length_message) in VECTOR_ENTRY_POINTS.items()
    for bad in [*BAD_ENTRIES, "length"] if bad != "length" or length_message])
def test_every_vector_entry_point_refuses_with_one_message_form(entry, bad):
    build, name, n, length_message = VECTOR_ENTRY_POINTS[entry]
    build((1.0,) * n)
    if bad == "length":
        vector, message = (1.0,) * (n + 1), f"vector lengths must agree, got {length_message}"
    else:
        value, message = BAD_ENTRIES[bad]
        vector, message = (1.0, value) + (1.0,) * (n - 2), message.format(name=name)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(vector)
