"""Shared fixtures: the two closed-form wave families used across the suite,
seeded members from the benchmark's parameter ranges, one instance of every
record, builtin sum with the rounding it has from Python 3.12 on, and a
50-digit evaluation of the barrier envelope chains."""

import builtins
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nbarrier import (ThreeSpeciesParams, bounds_general, build_lower_barrier, check,
                      check_bounds, cos_family, hull_intercepts, integrate, tanh_family,
                      verify_containment, verify_hypothesis_H)

# Worked three-species member with unit growth rates and unit self-limitation.
COS_ARGS = (Fraction(-1, 10), Fraction(1, 11), Fraction(1, 12), 2,
            1, 1, 1,
            Fraction(1067, 60), 1, Fraction(175, 11), Fraction(6, 11),
            15, Fraction(11, 12))


def bench_range_member(rng, kind):
    """A seeded tanh or cos family member drawn from the ranges the
    wave_verify benchmark draws from (k1 = 20 d1 / c11 at most 60; cos
    amplitudes m1 < 0 < m2, m3 with c11, c22, c33 positive by a margin),
    with a grid over its front or one period."""
    if kind == "tanh":
        sol = tanh_family(rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0),
                          rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
        return sol, [-20.0 + i * 0.4 for i in range(101)]
    m1 = -rng.uniform(0.05, 0.2)
    m2, m3 = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)
    mu = rng.uniform(0.5, 3.0)
    d1, d2, d3 = (rng.uniform(0.5, 2.0) for _ in range(3))
    c13, c23, c32 = (rng.uniform(0.2, 2.0) for _ in range(3))
    w = mu * mu
    c12 = (4 * d1 * w * -m1 + rng.uniform(0.05, 0.5)) / m2
    c21 = (c23 * m3 + 4 * d2 * w * m2 + rng.uniform(0.05, 0.5)) / -m1
    c31 = (c32 * m2 + 4 * d3 * w * m3 + rng.uniform(0.05, 0.5)) / -m1
    sol = cos_family(m1, m2, m3, mu, d1, d2, d3, c12, c13, c21, c23, c31, c32)
    return sol, [i * sol.period / 100 for i in range(101)]


def record_samples() -> dict:
    """One library-built instance of every record, by class."""
    sol = tanh_family(3.0, 4.0, 1.0, 2.0)
    spec = sol.system()
    hull = hull_intercepts(spec.reaction)
    alpha = (0.5, 0.25)
    env = build_lower_barrier(alpha, spec.d, hull.ulow, spec.m)
    containment = verify_containment(env, hull, 1)
    bounds = bounds_general(alpha, spec.d, hull, spec.m, 1)
    traj = integrate(spec, (1.0, 2.0), (-0.1, 0.1), (0.0, 0.05), 0.01, alpha=alpha)
    params = ThreeSpeciesParams(d=(1.0, 2.0, 1.0), sigma=(10.0, 12.0, 40.0),
                                C=((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0)),
                                w_minus_inf=4.0)
    verdict = check(params)
    cos = cos_family(*[float(a) for a in COS_ARGS])
    found = [spec.reaction, spec, hull, verify_hypothesis_H(spec, hull, 1), env,
             containment.links[0], containment, bounds, sol.profile(), sol, cos,
             params, verdict.case_i, verdict.case_ii, verdict, traj,
             check_bounds(traj, alpha, bounds)]
    return {type(obj): obj for obj in found}


@pytest.fixture(scope="session")
def tanh_sol():
    return tanh_family(3, 4, 1, 2)


@pytest.fixture(scope="session")
def cos_sol():
    return cos_family(*[float(a) for a in COS_ARGS])


@pytest.fixture(scope="session")
def cos_sol_exact():
    return cos_family(*COS_ARGS)


def compensated_sum(values, start=0):
    """sum with Neumaier's compensation, as builtin sum adds floats from Python 3.12 on.

    The first item joins start by plain +, the rest are compensated, and a
    non-finite compensation is dropped, as there.
    """
    items = iter(values)
    total = start
    for v in items:
        total = total + v
        break
    comp = 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def builtin_sum_compensated(monkeypatch):
    """Builtin sum replaced by compensated_sum for one test, so the routes
    that must agree bit for bit are compared under the rounding sum has on
    Python 3.12 and later."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)


@pytest.fixture(params=["plain-sum", "compensated-sum"])
def each_sum(request):
    """Runs a test once with builtin sum as it is and once under
    builtin_sum_compensated."""
    if request.param == "compensated-sum":
        request.getfixturevalue("builtin_sum_compensated")


# Rows of C for the kernel routes to add as builtin sum does, as their row
# products; a row of n products is read at n species.  The one- and
# two-product rows are the cases where a + chain written otherwise than from
# 0.0 could differ from sum: a sign of zero, an exact cancellation, an
# overflow and non-finite addends.  The three-product row is one that a +
# chain (1.0) and a compensated sum (1.0000000000000002) round apart.
_EDGE_PAIRS = {
    "minus-zeros": (-0.0, -0.0),
    "cancelling": (0.3, -0.3),
    "overflowing": (1e308, 1e308),
    "inf-minus-inf": (math.inf, -math.inf),
    "nan": (math.nan, 1.0),
}
EDGE_ROWS = {
    **{f"n{n}-{name}": pair[:n] for n in (1, 2) for name, pair in _EDGE_PAIRS.items()},
    "n3-rounded-apart": (1.0, 1e-16, 1e-16),
}


def unchecked_system(n, m):
    """The fields of an n-species SystemSpec with exponent m, unit d, l and C,
    theta = -1 and sigma = -0.0, without SystemSpec's checks.

    The kernels and the test oracles read only these fields.  A valid sigma
    is positive and hides the sign of a zero row in sigma_i - row; -0.0 lets
    it through to the result.
    """
    reaction = SimpleNamespace(n=n, sigma=(-0.0,) * n, C=((1.0,) * n,) * n)
    return SimpleNamespace(n=n, m=m, d=(1.0,) * n, l=(1.0,) * n, theta=-1.0,
                           reaction=reaction)


def decimal_chains(alpha, d, ulow, ubar, m, digits=50):
    """The lower and upper envelope chains of the closed forms, evaluated in
    decimal at the given digits from the exact values of the float inputs.

    Lower: grow = max_i d_i alpha_i^(1-m), S = sum_i (w_i ulow_i^m)^(-e) with
    w_i = alpha_i d_i and e = 1/(m-1), lambda1 = S^(1-m), eta1 = (lambda1 /
    grow)^(1/m), S_plain = sum_i (w_i alpha_i^(-m))^(-e), lambda2 = eta1^m
    S_plain^(1-m), eta2 = (lambda2 / grow)^(1/m).  Upper: S = sum_i alpha_i
    d_i^(-e), lambda1 = max_i w_i ubar_i^m, eta1 = lambda1^(1/m)
    S^((m-1)/m), lambda2 = eta1^m grow, eta2 = lambda2^(1/m) S^((m-1)/m).
    Returns two dicts of Decimal, keyed by those names.
    """
    with localcontext(prec=digits):
        alpha, d, ulow, ubar = ([Decimal(x) for x in v] for v in (alpha, d, ulow, ubar))
        m = Decimal(m)
        e, inv_m = 1 / (m - 1), 1 / m
        w = [a * di for a, di in zip(alpha, d)]
        grow = max(di * a ** (1 - m) for a, di in zip(alpha, d))
        S = sum((wi * lo ** m) ** -e for wi, lo in zip(w, ulow))
        lambda1 = S ** (1 - m)
        eta1 = (lambda1 / grow) ** inv_m
        S_plain = sum((wi * a ** -m) ** -e for wi, a in zip(w, alpha))
        lambda2 = eta1 ** m * S_plain ** (1 - m)
        lower = {"grow": grow, "S": S, "lambda1": lambda1, "eta1": eta1,
                 "S_plain": S_plain, "lambda2": lambda2,
                 "eta2": (lambda2 / grow) ** inv_m}
        S = sum(a * di ** -e for a, di in zip(alpha, d))
        lambda1 = max(wi * hi ** m for wi, hi in zip(w, ubar))
        eta1 = lambda1 ** inv_m * S ** ((m - 1) / m)
        lambda2 = eta1 ** m * grow
        upper = {"S": S, "lambda1": lambda1, "eta1": eta1, "lambda2": lambda2,
                 "eta2": lambda2 ** inv_m * S ** ((m - 1) / m)}
    return lower, upper


def rel_gap(got, want):
    """|got - want| / |want| for a float got and a Decimal want."""
    return float(abs(Decimal(got) - want) / abs(want))
