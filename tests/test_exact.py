"""Closed-form wave families and their induced systems."""

import math
from fractions import Fraction
from itertools import product

import pytest

from nbarrier import cos_family, reaction_eval, residual, tanh_family
from nbarrier.exact import Profile

from conftest import COS_ARGS


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


def test_tanh_induced_system(tanh_sol):
    spec = tanh_sol.system()
    assert spec.n == 2 and spec.m == 2 and spec.theta == 0.0
    assert spec.l == (2, 2)
    assert spec.reaction.sigma == (240, 32)


def test_tanh_residual_vanishes(tanh_sol):
    grid = [-20 + k * 0.01 for k in range(4001)]
    worst = residual(tanh_sol.system(), tanh_sol.profile(), grid)
    assert max(worst) < 1e-8


def test_tanh_residual_detects_perturbed_growth_rate(tanh_sol):
    """Shifting sigma1 by +1 adds u1(x)^2 to the first residual."""
    from nbarrier import ReactionSpec, SystemSpec

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
    prof = Profile(n=1, m=1.0,
                   derivs=lambda x: ((math.exp(x),) * 3,))
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


def test_residual_rejects_mismatched_profile(tanh_sol, cos_sol):
    with pytest.raises(ValueError):
        residual(cos_sol.system(), tanh_sol.profile(), [0.0])


def residual_via_profile_points(spec, profile, grid):
    """The residual built from Profile.at and reaction_eval, point by point."""
    worst = [0.0] * spec.n
    for x in grid:
        pt = profile.at(x)
        f = reaction_eval(spec.reaction, pt.u)
        for i in range(spec.n):
            res = (spec.d[i] * pt.ddum[i]
                   + spec.theta * pt.du[i]
                   + pt.u[i] ** spec.l[i] * f[i])
            if abs(res) > worst[i]:
                worst[i] = abs(res)
    return tuple(worst)


# The README's tanh and cos members, as the CLI parses their flags.
README_TANH = (3.0, 4.0, 1.0, 2.0)
README_COS = (-0.1, 0.0909090909, 0.0833333333, 2.0, 1.0, 1.0, 1.0,
              17.7833333333, 1.0, 15.9090909091, 0.5454545455, 15.0, 0.9166666667)


@pytest.mark.parametrize("sol, grid", [
    (tanh_family(*README_TANH), [-20.0 + i * 0.01 for i in range(4001)]),
    (cos_family(*README_COS),
     [i * cos_family(*README_COS).period / 2000.0 for i in range(2001)]),
    (cos_family(*COS_ARGS), [k * math.pi / 200 for k in range(201)]),
], ids=["readme-tanh", "readme-cos", "exact-cos"])
def test_residual_equals_the_profile_point_route_bit_for_bit(sol, grid):
    spec, profile = sol.system(), sol.profile()
    assert residual(spec, profile, grid) == residual_via_profile_points(spec, profile, grid)
