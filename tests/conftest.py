"""Shared fixtures: the two closed-form wave families used across the suite,
and builtin sum with the rounding it has from Python 3.12 on."""

import builtins
import math
from fractions import Fraction

import pytest

from nbarrier import cos_family, tanh_family

# Worked three-species member with unit growth rates and unit self-limitation.
COS_ARGS = (Fraction(-1, 10), Fraction(1, 11), Fraction(1, 12), 2,
            1, 1, 1,
            Fraction(1067, 60), 1, Fraction(175, 11), Fraction(6, 11),
            15, Fraction(11, 12))


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
