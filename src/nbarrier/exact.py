"""Closed-form wave and periodic solution families, with residual checking.

Two families solve the degenerate system exactly once their coefficients are
tied together: a hyperbolic-tangent front for two species with quadratic
reaction prefactors, and a single-harmonic cosine profile for three species
with linear prefactors.  Derived coefficients are computed with plain
arithmetic so exact number types (fractions.Fraction) pass through unchanged.

Profiles carry analytic first and second derivatives; residuals of the wave
equation are evaluated from those, never from finite differences, so a true
family member shows nothing but roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin, tanh
from typing import Callable, NamedTuple, Sequence

from .model import ReactionSpec, SystemSpec, wave_terms


class ProfilePoint(NamedTuple):
    """State and analytic derivatives at one x: u, u', u'', (u^m)', (u^m)''."""

    u: tuple
    du: tuple
    ddu: tuple
    dum: tuple
    ddum: tuple


@dataclass(frozen=True)
class Profile:
    """Closed-form profile evaluator for an n-species system with exponent m.

    derivs(x) returns one (u_i, u_i', u_i'') tuple per species, all three
    from the closed form, so at(x) evaluates the family's transcendental
    functions once per point.
    """

    n: int
    m: float
    derivs: Callable[[float], tuple]

    def at(self, x: float) -> ProfilePoint:
        states = self.derivs(x)
        u, du, ddu = zip(*states)
        dum, ddum = zip(*(_power_derivs(self.m, *state) for state in states))
        return ProfilePoint(u=u, du=du, ddu=ddu, dum=dum, ddum=ddum)


def _power_derivs(m: float, u: float, du: float, ddu: float) -> tuple:
    """(u^m)' and (u^m)'' of one species by the chain rule, from u, u', u''."""
    if m == 1:
        return du, ddu
    grad = m * u ** (m - 1.0)
    return grad * du, m * (m - 1.0) * u ** (m - 2.0) * du * du + grad * ddu


@dataclass(frozen=True)
class TanhSolution:
    """Two-species tanh front.  Free: d1, d2, c11, c22.  Everything else tied.

    The front is u(x) = k1 (1 - tanh x)^2, v(x) = k2 (1 + tanh x), a standing
    wave (theta = 0) of the quadratic-prefactor system.  Coefficient ties:
    k1 = 20 d1/c11, k2 = 4 d2/c22, sigma1 = 80 d1, sigma2 = 8 d2,
    c12 = 18 c22 d1/d2, c21 = 3 c11 d2 / (10 d1).
    """

    d1: float
    d2: float
    c11: float
    c22: float
    k1: float
    k2: float
    sigma1: float
    sigma2: float
    c12: float
    c21: float
    theta: float

    def system(self) -> SystemSpec:
        """The induced wave system; both reaction prefactor exponents are 2."""
        reaction = ReactionSpec(sigma=(self.sigma1, self.sigma2),
                                C=((self.c11, self.c12), (self.c21, self.c22)))
        return SystemSpec(n=2, m=2, d=(self.d1, self.d2), l=(2, 2),
                          theta=0.0, reaction=reaction)

    def profile(self) -> Profile:
        k1, k2 = float(self.k1), float(self.k2)

        def derivs(x):
            t = tanh(x)
            s = 1.0 - t * t
            return ((k1 * (1.0 - t) ** 2,
                     -2.0 * k1 * (1.0 - t) * s,
                     2.0 * k1 * s * (1.0 - t) * (1.0 + 3.0 * t)),
                    (k2 * (1.0 + t), k2 * s, -2.0 * k2 * t * s))

        return Profile(n=2, m=2.0, derivs=derivs)


def tanh_family(d1, d2, c11, c22) -> TanhSolution:
    """Solve the coefficient ties of the tanh front family.

    Inputs must be positive; exact number types are preserved in the derived
    coefficients.
    """
    if min(d1, d2, c11, c22) <= 0:
        raise ValueError("family parameters must be strictly positive")
    return TanhSolution(
        d1=d1, d2=d2, c11=c11, c22=c22,
        k1=20 * d1 / c11,
        k2=4 * d2 / c22,
        sigma1=80 * d1,
        sigma2=8 * d2,
        c12=18 * c22 * d1 / d2,
        c21=3 * c11 * d2 / (10 * d1),
        theta=0,
    )


@dataclass(frozen=True)
class CosSolution:
    """Three-species single-harmonic periodic profile u_i = k_i + m_i cos(mu x).

    Free: amplitudes m1..m3, wavenumber mu, diffusions d1..d3 and the six
    off-diagonal competition coefficients.  Growth rates and the diagonal
    coefficients are tied to those; theta = 0.
    """

    m1: float
    m2: float
    m3: float
    mu: float
    d1: float
    d2: float
    d3: float
    c12: float
    c13: float
    c21: float
    c23: float
    c31: float
    c32: float
    k1: float
    k2: float
    k3: float
    sigma1: float
    sigma2: float
    sigma3: float
    c11: float
    c22: float
    c33: float
    theta: float

    @property
    def period(self) -> float:
        return 2.0 * pi / abs(float(self.mu))

    def system(self) -> SystemSpec:
        reaction = ReactionSpec(
            sigma=(self.sigma1, self.sigma2, self.sigma3),
            C=((self.c11, self.c12, self.c13),
               (self.c21, self.c22, self.c23),
               (self.c31, self.c32, self.c33)))
        return SystemSpec(n=3, m=2, d=(self.d1, self.d2, self.d3), l=(1, 1, 1),
                          theta=0.0, reaction=reaction)

    def profile(self) -> Profile:
        mu = float(self.mu)
        levels = tuple((float(k), float(amp)) for k, amp in
                       ((self.k1, self.m1), (self.k2, self.m2), (self.k3, self.m3)))

        def derivs(x):
            c, s = cos(mu * x), sin(mu * x)
            return tuple((k + a * c, -a * mu * s, -a * mu * mu * c) for k, a in levels)

        return Profile(n=3, m=2.0, derivs=derivs)


def cos_family(m1, m2, m3, mu, d1, d2, d3,
               c12, c13, c21, c23, c31, c32) -> CosSolution:
    """Solve the coefficient ties of the cosine family, rejecting infeasible signs.

    The profile floor k_i - |m_i| must be nonnegative and the derived diagonal
    competition coefficients positive, otherwise the family member is not a
    valid profile and a ValueError is raised.  Exact number types are
    preserved in the derived coefficients.
    """
    if m1 == 0 or m2 == 0 or m3 == 0:
        raise ValueError("amplitudes must be nonzero")
    if mu == 0:
        raise ValueError("wavenumber must be nonzero")
    musq = mu * mu
    k1, k2, k3 = -m1, m2, m3
    sigma1 = 2 * (c12 * m2 + c13 * m3 + 3 * d1 * musq * m1)
    c11 = -(c12 * m2 + c13 * m3 + 4 * d1 * musq * m1) / m1
    sigma2 = -2 * (c21 * m1 + 3 * d2 * musq * m2)
    c22 = -(c21 * m1 + c23 * m3 + 4 * d2 * musq * m2) / m2
    sigma3 = -2 * (c31 * m1 + 3 * d3 * musq * m3)
    c33 = -(c31 * m1 + c32 * m2 + 4 * d3 * musq * m3) / m3
    for name, k, amp in (("k1", k1, m1), ("k2", k2, m2), ("k3", k3, m3)):
        if k <= 0:
            raise ValueError(f"infeasible family member: {name} = {k} is not positive")
        if abs(amp) > k:
            raise ValueError(f"infeasible family member: |amplitude| exceeds {name}")
    for name, c in (("c11", c11), ("c22", c22), ("c33", c33)):
        if c <= 0:
            raise ValueError(f"infeasible family member: {name} = {c} is not positive")
    return CosSolution(m1=m1, m2=m2, m3=m3, mu=mu, d1=d1, d2=d2, d3=d3,
                       c12=c12, c13=c13, c21=c21, c23=c23, c31=c31, c32=c32,
                       k1=k1, k2=k2, k3=k3,
                       sigma1=sigma1, sigma2=sigma2, sigma3=sigma3,
                       c11=c11, c22=c22, c33=c33, theta=0)


def residual(spec: SystemSpec, profile: Profile, grid: Sequence[float]) -> tuple:
    """Max absolute wave-equation residual per species over the grid.

    Equation i residual at x is d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u),
    evaluated from the profile's analytic derivatives.  One loop reads
    profile.derivs(x), takes (u_i^m)'' by the chain rule Profile.at uses and
    the reaction terms from model.wave_terms, so each residual is the same
    float as the one built from Profile.at and reaction_eval.
    """
    if profile.n != spec.n:
        raise ValueError("profile dimension does not match system")
    terms = wave_terms(spec)
    derivs, m = profile.derivs, profile.m
    theta = float(spec.theta)
    d = tuple(map(float, spec.d))
    worst = [0.0] * spec.n
    for x in grid:
        states = derivs(x)
        for i, (u, du, ddu), term in zip(range(spec.n), states,
                                         terms([state[0] for state in states])):
            res = abs(d[i] * _power_derivs(m, u, du, ddu)[1] + theta * du + term)
            if res > worst[i]:
                worst[i] = res
    return tuple(worst)
