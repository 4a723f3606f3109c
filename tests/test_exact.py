"""Closed-form wave families and their induced systems."""

import ast
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbarrier import (ReactionSpec, SystemSpec, cos_family, kernels, reaction_eval,
                      residual, tanh_family)
from nbarrier.exact import COS_FORM, TANH_FORM, Profile, TanhSolution
from nbarrier.kernels import FORM_PREFIX, UNROLL_LIMIT, ClosedForm

from conftest import COS_ARGS, EDGE_ROWS, bench_range_member, unchecked_system


def test_tanh_coefficient_ties():
    sol = tanh_family(3, 4, 1, 2)
    assert sol.k1 == 60
    assert sol.k2 == 8
    assert sol.sigma1 == 240
    assert sol.sigma2 == 32
    assert sol.c12 == 27
    assert sol.c21 == pytest.approx(0.4, rel=1e-15)
    assert sol.theta == 0


def test_tanh_family_preserves_exact_number_types():
    sol = tanh_family(Fraction(3), Fraction(4), Fraction(1), Fraction(2))
    assert sol.c21 == Fraction(2, 5)
    assert isinstance(sol.c21, Fraction)


def test_tanh_family_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        tanh_family(3, 4, 0, 2)


def _cos_with(k, value):
    args = [float(a) for a in COS_ARGS]
    args[k] = value
    return cos_family(*args)


# NaN passes every sign and zero test, so without a finiteness check these
# would return members with NaN or infinite coefficients.
@pytest.mark.parametrize("solve, message", [
    (lambda: tanh_family(math.nan, 4, 1, 2), "d1 must be finite, got nan"),
    (lambda: tanh_family(math.inf, 4, 1, 2), "d1 must be finite, got inf"),
    (lambda: tanh_family(3, 4, 1, -math.inf), "c22 must be finite, got -inf"),
    (lambda: _cos_with(3, math.nan), "mu must be finite, got nan"),
    (lambda: _cos_with(0, -math.inf), "m1 must be finite, got -inf"),
    (lambda: _cos_with(12, math.inf), "c32 must be finite, got inf"),
], ids=["tanh-nan-d1", "tanh-inf-d1", "tanh-minus-inf-c22", "cos-nan-mu",
        "cos-minus-inf-m1", "cos-inf-c32"])
def test_family_solvers_refuse_non_finite_parameters(solve, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve()


# Finite parameters whose derived system coefficient or tanh amplitude k_i
# overflows: to inf, or to NaN where two overflowed terms cancel, or
# underflows to 0 where tanh needs it positive.  The member is refused,
# naming the derived value, before SystemSpec would blame a sigma or C that
# was never passed, or an infinite k_i reached the profile.
@pytest.mark.parametrize("solve, message", [
    (lambda: tanh_family(1e300, 1e-10, 1.0, 1e10), "c12 must be finite, got inf"),
    (lambda: tanh_family(1e-10, 1e300, 1e10, 1.0), "c21 must be finite, got inf"),
    (lambda: tanh_family(1e307, 1.0, 1.0, 1.0), "sigma1 must be finite, got inf"),
    (lambda: tanh_family(1.0, 1e-200, 1e-200, 1e-200), "c21 must be strictly positive"),
    (lambda: tanh_family(1e300, 1, 1e-10, 1), "k1 must be finite, got inf"),
    (lambda: tanh_family(1, 1e300, 1, 1e-10), "k2 must be finite, got inf"),
    (lambda: cos_family(-0.1, 2.0, 1 / 12, 2.0, 1e308, 1, 1, 1.7e308, 1, 1000.0,
                        6 / 11, 100.0, 11 / 12), "sigma1 must be finite, got nan"),
    (lambda: _cos_with(4, 1e308), "sigma1 must be finite, got -inf"),
    (lambda: _cos_with(9, 1.7e308), "c22 must be finite, got inf"),
], ids=["tanh-c12", "tanh-c21", "tanh-sigma1", "tanh-c21-underflow", "tanh-k1", "tanh-k2",
        "cos-sigma1-nan", "cos-sigma1-minus-inf", "cos-c22"])
def test_family_solvers_refuse_out_of_range_derived_coefficients(solve, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve()


def test_tanh_induced_system(tanh_sol):
    spec = tanh_sol.system()
    assert spec.n == 2 and spec.m == 2 and spec.theta == 0.0
    assert spec.l == (2, 2)
    assert spec.reaction.sigma == (240, 32)


def test_tanh_residual_vanishes(tanh_sol):
    grid = [-20 + k * 0.01 for k in range(4001)]
    worst = residual(tanh_sol.system(), tanh_sol.profile(), grid)
    assert max(worst) < 1e-8


@pytest.mark.parametrize("grid", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_residual_refuses_an_empty_grid(tanh_sol, grid):
    with pytest.raises(ValueError, match="empty grid"):
        residual(tanh_sol.system(), tanh_sol.profile(), grid)


def test_residual_reads_a_numpy_grid(tanh_sol):
    grid = [-1.0, 0.0, 1.0]
    spec, profile = tanh_sol.system(), tanh_sol.profile()
    assert residual(spec, profile, np.array(grid)) == residual(spec, profile, grid)


def test_a_nan_residual_is_reported_as_the_maximum():
    # At d1 = 1e102 the first residual is inf - inf at 396 of the grid points;
    # the second species stays finite.
    sol = tanh_family(1e102, 4, 1, 2)
    grid = [-20 + k * 0.01 for k in range(4001)]
    first, second = residual(sol.system(), sol.profile(), grid)
    assert math.isnan(first)
    assert math.isfinite(second)


def test_tanh_residual_detects_perturbed_growth_rate(tanh_sol):
    """Shifting sigma1 by +1 adds u1(x)^2 to the first residual."""
    base = tanh_sol.system()
    bumped = SystemSpec(
        n=2, m=2, d=base.d, l=base.l, theta=base.theta,
        reaction=ReactionSpec(sigma=(base.reaction.sigma[0] + 1,
                                     base.reaction.sigma[1]),
                              C=base.reaction.C))
    grid = [-20 + k * 0.5 for k in range(81)]
    prof = tanh_sol.profile()
    worst = residual(bumped, prof, grid)
    expected = max(prof.at(x).u[0] ** 2 for x in grid)
    assert worst[0] == pytest.approx(expected, rel=1e-6)
    assert worst[1] < 1e-8


def test_profile_derivatives_match_finite_differences(tanh_sol, cos_sol):
    h = 1e-5
    for prof, x in product((tanh_sol.profile(), cos_sol.profile()),
                           (-2.0, -0.5, 0.0, 1.0, 2.5)):
        pt = prof.at(x)
        ahead, behind = prof.at(x + h), prof.at(x - h)
        for i in range(prof.n):
            fd1 = (ahead.u[i] - behind.u[i]) / (2 * h)
            fd2 = (ahead.u[i] - 2 * pt.u[i] + behind.u[i]) / h ** 2
            assert pt.du[i] == pytest.approx(fd1, rel=1e-7, abs=1e-7)
            assert pt.ddu[i] == pytest.approx(fd2, rel=1e-4, abs=1e-4)
            # Chain rule for the m = 2 flux variables.
            assert pt.dum[i] == pytest.approx(2 * pt.u[i] * pt.du[i], rel=1e-12)
            assert pt.ddum[i] == pytest.approx(
                2 * (pt.du[i] ** 2 + pt.u[i] * pt.ddu[i]), rel=1e-12)


def test_profile_m1_flux_is_the_plain_derivative():
    prof = Profile.of(1, 1.0, lambda x: ((math.exp(x),) * 3,))
    pt = prof.at(0.7)
    assert pt.dum == pt.du
    assert pt.ddum == pt.ddu


def test_cos_worked_member_is_exactly_normalized(cos_sol_exact):
    one = Fraction(1)
    assert (cos_sol_exact.sigma1, cos_sol_exact.sigma2,
            cos_sol_exact.sigma3) == (one, one, one)
    assert (cos_sol_exact.c11, cos_sol_exact.c22,
            cos_sol_exact.c33) == (one, one, one)


def test_cos_float_member_agrees_with_exact(cos_sol):
    for name in ("sigma1", "sigma2", "sigma3", "c11", "c22", "c33"):
        assert getattr(cos_sol, name) == pytest.approx(1.0, rel=1e-12)


def test_cos_period_and_induced_system(cos_sol):
    assert cos_sol.period == pytest.approx(math.pi, rel=1e-15)
    spec = cos_sol.system()
    assert spec.n == 3 and spec.m == 2 and spec.l == (1, 1, 1)


def test_cos_residual_vanishes_over_one_period(cos_sol):
    period = cos_sol.period
    grid = [k * period / 2000 for k in range(2001)]
    worst = residual(cos_sol.system(), cos_sol.profile(), grid)
    assert max(worst) < 1e-8


def test_cos_family_rejects_infeasible_members():
    args = [float(a) for a in COS_ARGS]
    with pytest.raises(ValueError):
        cos_family(0.0, *args[1:])
    with pytest.raises(ValueError):
        cos_family(*args[:3], 0.0, *args[4:])
    # Positive first amplitude flips k1 negative.
    with pytest.raises(ValueError, match="infeasible"):
        cos_family(0.1, *args[1:])
    # A tiny c12 starves c11 of its positive part.
    with pytest.raises(ValueError, match="infeasible"):
        cos_family(args[0], args[1], args[2], args[3], args[4], args[5],
                   args[6], 0.01, *args[8:])


POSITIVE = st.one_of(st.floats(0.01, 10.0), st.fractions(Fraction(1, 100), 10))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[POSITIVE] * 13))
def test_every_feasible_cos_member_has_floor_zero(draw):
    # c12, c21 and c31 are set so that c11, c22 and c33 come out as
    # (e1 + c13 a3) / a1, e2 / a2 and e3 / a3, so every draw is feasible.
    a1, a2, a3, mu, d1, d2, d3, c13, c23, c32, e1, e2, e3 = draw
    w1, w2, w3 = (4 * d * mu * mu * a for d, a in ((d1, a1), (d2, a2), (d3, a3)))
    sol = cos_family(-a1, a2, a3, mu, d1, d2, d3, (w1 + e1) / a2, c13,
                     (c23 * a3 + w2 + e2) / a1, c23, (c32 * a2 + w3 + e3) / a1, c32)
    assert (sol.k1, sol.k2, sol.k3) == (abs(sol.m1), abs(sol.m2), abs(sol.m3))


def test_residual_rejects_mismatched_profile(tanh_sol, cos_sol):
    with pytest.raises(ValueError):
        residual(cos_sol.system(), tanh_sol.profile(), [0.0])


def residual_via_profile_points(spec, profile, grid):
    """The residual built from Profile.at and reaction_eval, point by point;
    a complex residual (a negative base to a fractional power) is NaN, and a
    NaN residual is kept as the maximum, as residual keeps it."""
    worst = [0.0] * spec.n
    for x in grid:
        pt = profile.at(x)
        f = reaction_eval(spec.reaction, pt.u)
        for i in range(spec.n):
            res = (spec.d[i] * pt.ddum[i]
                   + spec.theta * pt.du[i]
                   + pt.u[i] ** spec.l[i] * f[i])
            r = math.nan if isinstance(res, complex) else abs(res)
            if r > worst[i] or r != r:
                worst[i] = r
    return tuple(worst)


# The README's tanh and cos members, as the CLI parses their flags.
README_TANH = (3.0, 4.0, 1.0, 2.0)
README_COS = (-0.1, 0.0909090909, 0.0833333333, 2.0, 1.0, 1.0, 1.0,
              17.7833333333, 1.0, 15.9090909091, 0.5454545455, 15.0, 0.9166666667)


def sine_member(n, m, seed, l=None):
    """A seeded n-species system with exponent m and the positive profile
    u_i = a_i + b_i sin(c_i x), behind system() and profile() as a family
    member has them.  Every l_i is l if given, else drawn from 1, 1.5 and 2.

    The profile solves nothing; the two residual routes only have to agree.
    """
    rng = random.Random(seed)
    spec = SystemSpec(
        n=n, m=m, d=tuple(rng.uniform(0.3, 3.0) for _ in range(n)),
        l=tuple(l or rng.choice((1.0, 1.5, 2.0)) for _ in range(n)),
        theta=rng.uniform(0.2, 1.0),
        reaction=ReactionSpec(
            sigma=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            C=tuple(tuple(rng.uniform(0.1, 2.0) for _ in range(n)) for _ in range(n))))
    harmonics = tuple((rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
                      for _ in range(n))

    def derivs(x):
        return tuple((a + b * math.sin(c * x), b * c * math.cos(c * x),
                      -b * c * c * math.sin(c * x)) for a, b, c in harmonics)

    profile = Profile.of(n, m, derivs)
    return SimpleNamespace(system=lambda: spec, profile=lambda: profile)


SINE_GRID = [-5.0 + k * 0.05 for k in range(201)]


@pytest.mark.parametrize("sol, grid", [
    (tanh_family(*README_TANH), [-20.0 + i * 0.01 for i in range(4001)]),
    (cos_family(*README_COS),
     [i * cos_family(*README_COS).period / 2000.0 for i in range(2001)]),
    (cos_family(*COS_ARGS), [k * math.pi / 200 for k in range(201)]),
    (sine_member(3, 1.0, 1), SINE_GRID),
    (sine_member(3, 1.5, 2), SINE_GRID),
    # Beyond the unroll limit, where rows are summed with sum(map(mul, ...)).
    (sine_member(12, 2.0, 3), SINE_GRID),
    # Folded exponents: m - 1 = 1 and m - 2 = 0 at m = 2 (every l_i = 1 in
    # the first), m - 2 = 1 at m = 3.
    (sine_member(3, 2.0, 4, l=1.0), SINE_GRID),
    (sine_member(4, 2.0, 5), SINE_GRID),
    (sine_member(3, 3.0, 6), SINE_GRID),
], ids=["readme-tanh", "readme-cos", "exact-cos", "m1", "m-fractional", "n12",
        "m2-l1", "m2", "m3"])
def test_residual_equals_the_profile_point_route_bit_for_bit(sol, grid):
    spec, profile = sol.system(), sol.profile()
    assert residual(spec, profile, grid) == residual_via_profile_points(spec, profile, grid)


# The tanh front solves its system at m = 2 only; given the same coefficients
# with another m, residual must use that m, not the profile's.
@pytest.mark.parametrize("m", [3.0, 1.0])
def test_residual_takes_m_from_the_system(tanh_sol, m):
    spec = replace(tanh_sol.system(), m=m)
    profile = tanh_sol.profile()
    grid = [-20.0 + i * 0.01 for i in range(4001)]
    worst = residual(spec, profile, grid)
    assert worst == residual_via_profile_points(spec, replace(profile, m=m), grid)
    assert min(worst) > 1e-8


# The kernel writes a row of one or two products as a + chain from 0.0, which
# a compensated sum matches: its first addend joins 0.0 exactly, and the
# compensation it keeps for the second is the rounding error of fl(a + b),
# which added back rounds to fl(a + b).  From three species on the two can
# round a row differently, so the kernel sums those rows with sum.
@pytest.mark.parametrize("n", range(1, UNROLL_LIMIT + 3))
def test_residual_routes_agree_under_a_compensated_sum(builtin_sum_compensated, n):
    member = sine_member(n, 2.0, 20 + n)
    spec, profile = member.system(), member.profile()
    assert (residual(spec, profile, SINE_GRID)
            == residual_via_profile_points(spec, profile, SINE_GRID))


def outcome(f, *args):
    """repr of f(*args), or the name of the exception it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc).__name__


# At m = 3 the overflowing rows' u = 1e308 also overflows u^(m - 1), which
# both routes raise.
@pytest.mark.parametrize("products", list(EDGE_ROWS.values()), ids=list(EDGE_ROWS))
@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
def test_residual_adds_edge_rows_as_sum_does(each_sum, m, products):
    n = len(products)
    spec = unchecked_system(n, m)
    profile = Profile.of(n, m, lambda x: tuple((u, 0.5, 0.25) for u in products))
    assert (outcome(residual, spec, profile, [0.0])
            == outcome(residual_via_profile_points, spec, profile, [0.0]))


# m = 1.5 and l = (1.5, 1.5), where a negative u_1 to either fractional power
# is a complex, whose abs would be a finite residual.
LV_FRACTIONAL = SystemSpec(n=2, m=1.5, d=(1.0, 1.0), l=(1.5, 1.5), theta=0.7,
                           reaction=ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 2.0), (3.0, 1.0))))


def test_a_negative_base_to_a_fractional_power_is_a_nan_residual():
    # u_1 = -0.5 at x = 0 only; u_2 stays positive.  At m = 1.5 both
    # u_1^(m - 1) and u_1^1.5 are a complex there, at m = 2 only u_1^1.5.
    for m in (1.5, 2.0):
        spec = replace(LV_FRACTIONAL, m=m)
        profile = Profile.of(2, m, lambda x: ((x - 0.5, 1.0, 0.0), (1.0 + x, 1.0, 0.0)))
        worst = residual(spec, profile, [0.0, 1.0])
        # repr, since nan != nan.
        assert repr(worst) == repr(residual_via_profile_points(spec, profile, [0.0, 1.0])), m
        assert math.isnan(worst[0]) and math.isfinite(worst[1]), m
        point = profile.at(0.0)
        assert math.isnan(point.dum[0]) == math.isnan(point.ddum[0]) == (m == 1.5)
        assert math.isfinite(point.dum[1]) and math.isfinite(point.ddum[1])


def test_a_profile_checks_the_function_it_shows(tanh_sol):
    # The README tanh front with u scaled by 1.01 solves nothing, so its
    # residual is far above the 1e-8 that the front itself meets.
    front = tanh_sol.profile()
    scaled = Profile.of(2, 2.0, lambda x: tuple(
        tuple(1.01 * v for v in state) for state in front.derivs(x)))
    grid = [-20.0 + i * 0.01 for i in range(4001)]
    assert max(residual(tanh_sol.system(), front, grid)) < 1e-8
    assert min(residual(tanh_sol.system(), scaled, grid)) > 1e-8
    assert scaled.at(0.5).u == tuple(1.01 * u for u in front.at(0.5).u)
    # A profile holds its closed form and constants only; no other function
    # can be put beside them.
    with pytest.raises(TypeError):
        replace(front, derivs=scaled.derivs)


@pytest.mark.parametrize("states", [1, 3])
def test_a_callable_profile_names_a_wrong_species_count(tanh_sol, states):
    # Both routes run call_form's statements, so both name the two counts
    # rather than fail in an unpacking.
    profile = Profile.of(2, 2.0, lambda x: ((1.0, 0.0, 0.0),) * states)
    message = f"^profile derivs returned {states} species, expected 2$"
    with pytest.raises(ValueError, match=message):
        residual(tanh_sol.system(), profile, [0.0, 1.0])
    with pytest.raises(ValueError, match=message):
        profile.at(0.0)


STATE = r"expected \(u, u', u''\)"


@pytest.mark.parametrize("derivs, message", [
    (lambda x: ((1.0, 0.0), (1.0, 0.0, 0.0)), rf"\(1.0, 0.0\) for species 1, {STATE}"),
    (lambda x: ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
     rf"\(1.0, 0.0, 0.0, 0.0\) for species 2, {STATE}"),
    (lambda x: ((1.0, 0.0, 0.0), 2.0), rf"2.0 for species 2, {STATE}"),
    (lambda x: 1.0, "a float, not 2 species"),
], ids=["short-state", "long-state", "float-state", "float"])
def test_a_callable_profile_names_a_return_that_is_not_its_states(tanh_sol, derivs, message):
    # Both routes run call_form's statements, so both name what is wrong
    # rather than fail in an unpacking or a len().
    profile = Profile.of(2, 2.0, derivs)
    with pytest.raises(ValueError, match=f"^profile derivs returned {message}$"):
        residual(tanh_sol.system(), profile, [0.0, 1.0])
    with pytest.raises(ValueError, match=f"^profile derivs returned {message}$"):
        profile.at(0.0)


@pytest.mark.parametrize("form, constants", [
    (TANH_FORM, (60.0, 8.0, -120.0, 120.0)),
    (COS_FORM, ()),
    (kernels.call_form(2), (None, None)),
], ids=["tanh-short", "cos-empty", "callable-long"])
def test_a_profile_refuses_constants_that_do_not_match_its_form(form, constants):
    with pytest.raises(ValueError, match="^profile constants must match the form's names, "
                                         f"got {len(constants)} for {len(form.names)} names$"):
        Profile(m=2.0, form=form, constants=constants)


@pytest.mark.parametrize("m, message", [
    (math.nan, "m must be finite, got nan"),
    (math.inf, "m must be finite, got inf"),
    (-math.inf, "m must be finite, got -inf"),
    (0.5, "diffusion exponent m must be >= 1"),
    (0.0, "diffusion exponent m must be >= 1"),
], ids=["nan", "inf", "-inf", "half", "zero"])
def test_a_profile_refuses_an_exponent_a_system_refuses(m, message):
    # Unchecked, at() of such a profile returned NaN or numbers for an
    # exponent that no SystemSpec takes.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Profile(m=m, form=TANH_FORM, constants=(60.0, 8.0, -120.0, 120.0, -16.0))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Profile.of(2, m, lambda x: ((1.0, 0.0, 0.0),) * 2)


def closed_form_by_hand(sol):
    """The member's (u_i, u_i', u_i'') tuples at x, each family's closed form
    written out as its own expressions, independent of its ClosedForm."""
    if isinstance(sol, TanhSolution):
        k1, k2 = float(sol.k1), float(sol.k2)

        def derivs(x):
            t = math.tanh(x)
            s = 1.0 - t * t
            return ((k1 * (1.0 - t) ** 2,
                     -2.0 * k1 * (1.0 - t) * s,
                     2.0 * k1 * s * (1.0 - t) * (1.0 + 3.0 * t)),
                    (k2 * (1.0 + t), k2 * s, -2.0 * k2 * t * s))
        return derivs
    mu = float(sol.mu)
    members = [(float(k), float(a)) for k, a in ((sol.k1, sol.m1), (sol.k2, sol.m2),
                                                (sol.k3, sol.m3))]

    def derivs(x):
        c, s = math.cos(mu * x), math.sin(mu * x)
        return tuple((k + a * c, -a * mu * s, -a * mu * mu * c) for k, a in members)
    return derivs


def test_inlined_closed_forms_give_the_profile_point_residual_bit_for_bit():
    # 150 tanh and 50 cos members against their own system (m = 2), the same
    # coefficients at m = 3 and m = 1, and at a fractional l, so the
    # inlined statements meet m - 1 of class 1, int and 0 and l of class 1,
    # int and frac (the complex guard).  The profile points are those of the
    # closed form written out by hand.
    rng = random.Random(2016)
    for k in range(200):
        sol, grid = bench_range_member(rng, "cos" if k % 4 == 3 else "tanh")
        spec, profile = sol.system(), sol.profile()
        by_hand = closed_form_by_hand(sol)
        for x in grid:
            assert profile.derivs(x) == by_hand(x), (k, x)
        for variant in (spec, replace(spec, m=3.0), replace(spec, m=1.0),
                        replace(spec, l=(1.5,) * spec.n)):
            assert (residual(variant, profile, grid)
                    == residual_via_profile_points(variant, replace(profile, m=variant.m),
                                                   grid)), (k, variant.m, variant.l)


# Profile.at(x).u, .du and .ddu of the README tanh and cos members, as the
# closed forms gave them when each family was its own Python function; the
# statements now written once must reproduce every float.
PINNED_POINTS = {
    ("tanh", -20.0): ((240.0, 0.0), (-0.0, 0.0), (-0.0, 0.0)),
    ("tanh", -1.0): ((186.1928382178502, 1.9072467523538812),
                     (-88.7789215006366, 3.359794732912209),
                     (-114.06160186018472, 5.117600067593797)),
    ("tanh", 0.0): ((60.0, 8.0), (-120.0, 8.0), (120.0, -0.0)),
    ("tanh", 0.5): ((17.35907715084318, 11.696937258080078),
                    (-50.762009072896056, 6.291581863727419),
                    (121.13599506161668, -5.814895851068698)),
    ("tanh", 20.0): ((0.0, 16.0), (-0.0, 0.0), (0.0, -0.0)),
    ("cos", -20.0): ((0.1666938061652262, 0.030278358028584723, 0.027755161517876117),
                     (-0.14902263209586977, 0.13547512007360682, 0.12418552669688394),
                     (-0.26677522466090475, 0.24252293148566112, 0.22231268712849556)),
    ("cos", -1.0): ((0.14161468365471425, 0.053077560308588394, 0.048654430268276365),
                    (-0.18185948536513635, 0.165326804860864, 0.1515495710769938),
                    (-0.16645873461885696, 0.15132612236564644, 0.13871561212689457)),
    ("cos", 0.0): ((0.0, 0.1818181818, 0.1666666666), (0.0, -0.0, -0.0),
                   (0.4, -0.3636363636, -0.3333333332)),
    ("cos", 0.5): ((0.04596976941318603, 0.14002748233764634, 0.12835852543766824),
                   (0.16829419696157932, -0.15299472449522716, -0.14024516407855137),
                   (0.2161209223472559, -0.1964735657505853, -0.18010076855067297)),
    ("cos", 20.0): ((0.1666938061652262, 0.030278358028584723, 0.027755161517876117),
                    (0.14902263209586977, -0.13547512007360682, -0.12418552669688394),
                    (-0.26677522466090475, 0.24252293148566112, 0.22231268712849556)),
}


@pytest.mark.parametrize("family, x", list(PINNED_POINTS),
                         ids=[f"{f}{x:g}" for f, x in PINNED_POINTS])
def test_profile_points_of_the_readme_members_are_pinned(family, x):
    sol = tanh_family(*README_TANH) if family == "tanh" else cos_family(*README_COS)
    point = sol.profile().at(x)
    got = (point.u, point.du, point.ddu)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(got) == repr(PINNED_POINTS[family, x])


def test_a_forms_derivs_is_compiled_on_first_call_only(monkeypatch):
    monkeypatch.setattr(kernels, "_KERNELS", {})
    form = ClosedForm(TANH_FORM.n, TANH_FORM.names, TANH_FORM.source)
    sol = tanh_family(*README_TANH)
    profile = replace(sol.profile(), form=form)
    residual(sol.system(), profile, [0.0, 1.0])
    assert len(kernels._KERNELS) == 1
    assert profile.at(0.5) == sol.profile().at(0.5)
    assert profile.at(-1.0) == sol.profile().at(-1.0)
    assert len(kernels._KERNELS) == 2


@pytest.mark.parametrize("form", [TANH_FORM, COS_FORM], ids=["tanh", "cos"])
def test_closed_forms_bind_only_prefixed_names_and_the_species_state(form):
    # So that no statement inlined into a kernel shadows one of its names.
    tree = ast.parse(form.source)
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    state = {f"{v}{i}" for v in ("u", "du", "ddu") for i in range(form.n)}
    assert state <= bound
    assert all(name.startswith(FORM_PREFIX) for name in (bound - state) | set(form.names))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert read - bound - set(form.names) <= {"x", "tanh", "cos", "sin"}
