"""Verdicts and bands under sigma -> 2^k sigma, k = -40..40.

Multiplying by a power of two is exact in floating point, and every verdict
below is invariant under that scaling of the growth rates (the intercept
hull, the barrier levels and the nonexistence thresholds scale with it), so
a verdict that changes with k is decided by rounding, not by the system.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbarrier import (
    HullBounds,
    ReactionSpec,
    SystemSpec,
    ThreeSpeciesParams,
    bounds_for,
    build_lower_barrier,
    build_upper_barrier,
    check,
    hull_intercepts,
    verify_containment,
    verify_hypothesis_H,
)

POWERS = range(-40, 41)

rates = st.floats(min_value=0.1, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
moves = st.sampled_from((0.5, 0.9, 1.0, 1.1, 2.0))


def vector(draw, n):
    return tuple(draw(rates) for _ in range(n))


def scaled(reaction, k):
    return ReactionSpec(sigma=tuple(math.ldexp(s, k) for s in reaction.sigma),
                        C=reaction.C)


def spec_of(reaction, m=2.0, d=None):
    n = reaction.n
    return SystemSpec(n=n, m=m, d=d or (1.0,) * n, l=(1.0,) * n, theta=0.0,
                      reaction=reaction)


def moved_intercepts(reaction, inner_scale, outer_scale):
    """The intercept hull's ubar and ulow, scaled by outer_scale and inner_scale."""
    base = hull_intercepts(reaction)
    return (tuple(outer_scale * hi for hi in base.ubar),
            tuple(inner_scale * lo for lo in base.ulow))


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=4), moves, moves)
@settings(max_examples=40, deadline=None)
def test_hypothesis_H_verdicts_do_not_depend_on_the_scale_of_sigma(
        data, n, inner_scale, outer_scale):
    """Moving ulow out or ubar in fails H at every scale; the rest passes."""
    r = ReactionSpec(sigma=vector(data.draw, n),
                     C=tuple(vector(data.draw, n) for _ in range(n)))
    ubar, ulow = moved_intercepts(r, inner_scale, outer_scale)
    assume(all(hi > lo for hi, lo in zip(ubar, ulow)))
    expected = (inner_scale <= 1.0, outer_scale >= 1.0)
    for k in POWERS:
        rk = scaled(r, k)
        ubar, ulow = moved_intercepts(rk, inner_scale, outer_scale)
        report = verify_hypothesis_H(spec_of(rk), HullBounds(ubar=ubar, ulow=ulow), 4)
        assert (report.inner_ok, report.outer_ok) == expected, k


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=4),
       st.sampled_from((1.5, 2.0, 3.0)), moves, moves)
@settings(max_examples=25, deadline=None)
def test_containment_verdicts_do_not_depend_on_the_scale_of_sigma(
        data, n, m, inner_scale, outer_scale):
    """Envelopes built on a moved hull are checked against the intercept hull."""
    r = ReactionSpec(sigma=vector(data.draw, n),
                     C=tuple(vector(data.draw, n) for _ in range(n)))
    alpha, d = vector(data.draw, n), vector(data.draw, n)
    assume(not hull_intercepts(r).is_degenerate())

    def verdicts(reaction):
        hull = hull_intercepts(reaction)
        ubar, ulow = moved_intercepts(reaction, inner_scale, outer_scale)
        lower = build_lower_barrier(alpha, d, ulow, m)
        upper = build_upper_barrier(alpha, d, ubar, m)
        return tuple(link.ok for env in (lower, upper)
                     for link in verify_containment(env, hull, 4).links)

    expected = verdicts(r)
    if inner_scale == outer_scale == 1.0:
        assert all(expected)
    for k in POWERS:
        assert verdicts(scaled(r, k)) == expected, k


@pytest.mark.filterwarnings("ignore:degenerate hull")
@given(st.data(), st.integers(min_value=2, max_value=4),
       st.sampled_from((1.0, 1.5, 2.0, 3.0)), st.sampled_from((0, 1)))
@settings(max_examples=30, deadline=None)
def test_bounds_scale_with_sigma(data, n, m, chi):
    """The band scales by 2^k, up to the rounding of the powers in the
    envelope levels."""
    r = ReactionSpec(sigma=vector(data.draw, n),
                     C=tuple(vector(data.draw, n) for _ in range(n)))
    assume(not hull_intercepts(r).is_degenerate())
    alpha, d = vector(data.draw, n), vector(data.draw, n)
    band = bounds_for(spec_of(r, m, d), alpha, chi)
    for k in POWERS:
        scaled_band = bounds_for(spec_of(scaled(r, k), m, d), alpha, chi)
        assert scaled_band.lower == pytest.approx(math.ldexp(band.lower, k), rel=1e-12)
        assert scaled_band.upper == pytest.approx(math.ldexp(band.upper, k), rel=1e-12)


boundary = st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0))


@given(st.data(), st.floats(min_value=0.1, max_value=50.0), boundary, boundary)
@settings(max_examples=60, deadline=None)
def test_nonexistence_verdicts_do_not_depend_on_the_scale_of_sigma(
        data, sigma3, w_minus, w_plus):
    """sigma and the boundary values of the third species scale together."""
    d = vector(data.draw, 3)
    sigma = vector(data.draw, 2) + (sigma3,)
    C = tuple(vector(data.draw, 3) for _ in range(3))

    def verdicts(k):
        def scale(w):
            return None if w is None else math.ldexp(w, k)
        v = check(ThreeSpeciesParams(d=d, sigma=tuple(math.ldexp(s, k) for s in sigma), C=C,
                                     w_minus_inf=scale(w_minus), w_plus_inf=scale(w_plus)))
        return (v.case_i.applicable, v.case_i.blocked,
                v.case_ii.applicable, v.case_ii.blocked, v.case_ii.conclusive)

    expected = verdicts(0)
    for k in POWERS:
        assert verdicts(k) == expected, k
