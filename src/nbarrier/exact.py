"""Closed-form wave and periodic solution families, with residual checking.

Two families solve the degenerate system exactly once their coefficients are
tied together: a hyperbolic-tangent front for two species with quadratic
reaction prefactors, and a single-harmonic cosine profile for three species
with linear prefactors.  Derived coefficients are computed with plain
arithmetic so exact number types (fractions.Fraction) pass through unchanged.

Profiles carry analytic first and second derivatives; residuals of the wave
equation are evaluated from those, never from finite differences, so a true
family member shows nothing but roundoff.  Each family writes its closed
form once, as the statements of a ClosedForm (TANH_FORM, COS_FORM), a class
defined here and re-exported by kernels; the residual kernel inlines them in
its grid loop, and Profile.derivs runs the same statements.  profile()
computes the member constants they read, each factor that hoists exactly
computed once with the operands and order of the written expression, so the
floats are those of the expression itself.  kernels, which writes and
compiles that code, is imported on first use: ClosedForm.at, Profile.of and
residual import it in their bodies, so this module loads without it.
"""

from __future__ import annotations

from functools import cached_property
from math import nan, pi
from typing import Callable, NamedTuple, Sequence

from .model import ReactionSpec, SystemSpec, record, require_finite, require_positive


class ProfilePoint(NamedTuple):
    """State and analytic derivatives at one x: u, u', u'', (u^m)', (u^m)''."""

    u: tuple
    du: tuple
    ddu: tuple
    dum: tuple
    ddum: tuple


class ClosedForm:
    """A family's closed form for n species, written once as statements.

    source is straight-line statements that read x, math's names and the
    member constants named in names, and bind u_i, du_i and ddu_i (u_i, u_i'
    and u_i'') for each species i < n.  Every other name that they bind, and
    every name in names, starts with kernels.FORM_PREFIX, so that none of
    them shadows a kernel name.  The residual kernel writes the statements
    into its grid loop, and at(constants, x) runs them.  A plain class, not a
    record: every CLI process builds the two family forms at import.
    """

    def __init__(self, n: int, names: tuple, source: str):
        self.n, self.names, self.source = n, names, source

    @cached_property
    def at(self) -> Callable:
        """at(constants, x): one (u_i, u_i', u_i'') tuple per species at x, for
        the member whose values of names are constants.  Compiled on first
        use, so a process that only takes residuals never compiles it, and
        one that evaluates no profile never loads kernels."""
        from .kernels import compile_at
        return compile_at(self)


# u = k1 (1 - tanh x)^2, v = k2 (1 + tanh x), with s = 1 - t^2 = tanh'(x).
# cf_n2k1, cf_2k1 and cf_n2k2 are -2.0 * k1, 2.0 * k1 and -2.0 * k2, the
# leading products of the derivatives, which * takes first from the left,
# so computing them once per member changes no float.
TANH_FORM = ClosedForm(n=2, names=(
    "cf_k1", "cf_k2", "cf_n2k1", "cf_2k1", "cf_n2k2"), source="""\
cf_t = tanh(x)
cf_s = 1.0 - cf_t * cf_t
cf_r = 1.0 - cf_t
u0 = cf_k1 * cf_r ** 2
du0 = cf_n2k1 * cf_r * cf_s
ddu0 = cf_2k1 * cf_s * cf_r * (1.0 + 3.0 * cf_t)
u1 = cf_k2 * (1.0 + cf_t)
du1 = cf_k2 * cf_s
ddu1 = cf_n2k2 * cf_t * cf_s""")

# u_i = k_i + a_i cos(mu x), a_i being the amplitude m_i.  cf_na{i}mu and
# cf_na{i}mu2 are -a_i * mu and -a_i * mu * mu, the leading products of the
# derivatives, likewise computed once per member.
COS_FORM = ClosedForm(n=3, names=(
    "cf_mu", "cf_k1", "cf_k2", "cf_k3", "cf_a1", "cf_a2", "cf_a3",
    "cf_na1mu", "cf_na2mu", "cf_na3mu", "cf_na1mu2", "cf_na2mu2", "cf_na3mu2"), source="""\
cf_z = cf_mu * x
cf_c = cos(cf_z)
cf_s = sin(cf_z)
u0 = cf_k1 + cf_a1 * cf_c
du0 = cf_na1mu * cf_s
ddu0 = cf_na1mu2 * cf_c
u1 = cf_k2 + cf_a2 * cf_c
du1 = cf_na2mu * cf_s
ddu1 = cf_na2mu2 * cf_c
u2 = cf_k3 + cf_a3 * cf_c
du2 = cf_na3mu * cf_s
ddu2 = cf_na3mu2 * cf_c""")


@record
class Profile:
    """Closed-form profile with exponent m: a ClosedForm of form.n species
    and the member constants its statements read, one per form.names.

    derivs(x) runs the statements, one (u_i, u_i', u_i'') tuple per species,
    so at(x) evaluates the family's transcendental functions once per point,
    and residual inlines the same statements with the same constants.
    Profile.of(n, m, derivs) makes a bare callable a profile.  m must be
    finite and at least 1, as a SystemSpec's.
    """

    m: float
    form: ClosedForm
    constants: tuple

    def __post_init__(self):
        require_finite(m=(self.m,))
        if self.m < 1:
            raise ValueError("diffusion exponent m must be >= 1")
        if len(self.constants) != len(self.form.names):
            raise ValueError(f"profile constants must match the form's names, got "
                             f"{len(self.constants)} for {len(self.form.names)} names")

    @classmethod
    def of(cls, n: int, m: float, derivs: Callable[[float], tuple]) -> Profile:
        """The profile whose derivs(x) is the callable derivs, over n species."""
        from .kernels import call_form
        return cls(m, call_form(n), (derivs,))

    @property
    def n(self) -> int:
        return self.form.n

    def derivs(self, x: float) -> tuple:
        return self.form.at(self.constants, x)

    def at(self, x: float) -> ProfilePoint:
        states = self.derivs(x)
        u, du, ddu = zip(*states)
        dum, ddum = zip(*(_power_derivs(self.m, *state) for state in states))
        return ProfilePoint(u=u, du=du, ddu=ddu, dum=dum, ddum=ddum)


def _power_derivs(m: float, u: float, du: float, ddu: float) -> tuple:
    """(u^m)' and (u^m)'' of one species by the chain rule, from u, u', u'';
    both are NaN where a negative u to a fractional m - 1 is a complex."""
    if m == 1:
        return du, ddu
    grad = m * u ** (m - 1.0)
    if grad.__class__ is complex:
        return nan, nan
    return grad * du, m * (m - 1.0) * u ** (m - 2.0) * du * du + grad * ddu


@record
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
        return Profile(m=2.0, form=TANH_FORM,
                       constants=(k1, k2, -2.0 * k1, 2.0 * k1, -2.0 * k2))


def tanh_family(d1, d2, c11, c22) -> TanhSolution:
    """Solve the coefficient ties of the tanh front family.

    Inputs must be finite and positive, and so must the derived growth rates,
    competition coefficients and amplitudes k1, k2, which extreme inputs can
    overflow or underflow; exact number types are preserved in the derived
    coefficients.
    """
    require_positive(d1=(d1,), d2=(d2,), c11=(c11,), c22=(c22,))
    k1, k2 = 20 * d1 / c11, 4 * d2 / c22
    sigma1, sigma2 = 80 * d1, 8 * d2
    c12, c21 = 18 * c22 * d1 / d2, 3 * c11 * d2 / (10 * d1)
    require_positive(sigma1=(sigma1,), sigma2=(sigma2,), c12=(c12,), c21=(c21,),
                     k1=(k1,), k2=(k2,))
    return TanhSolution(d1=d1, d2=d2, c11=c11, c22=c22, k1=k1, k2=k2,
                        sigma1=sigma1, sigma2=sigma2, c12=c12, c21=c21, theta=0)


@record
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
        levels = (float(self.k1), float(self.k2), float(self.k3))
        amps = (float(self.m1), float(self.m2), float(self.m3))
        return Profile(m=2.0, form=COS_FORM, constants=(
            mu, *levels, *amps, *(-a * mu for a in amps), *(-a * mu * mu for a in amps)))


def cos_family(m1, m2, m3, mu, d1, d2, d3,
               c12, c13, c21, c23, c31, c32) -> CosSolution:
    """Solve the coefficient ties of the cosine family, rejecting infeasible signs.

    k_1 = -m_1, k_2 = m_2, k_3 = m_3 and the derived diagonal competition
    coefficients must be positive, otherwise the family member is not a valid
    profile and a ValueError is raised.  So the profile floor k_i - |m_i| is
    always 0: every cos profile touches zero.  Exact number types are
    preserved in the derived coefficients.  NaN and +-inf inputs are refused,
    and so are derived coefficients that finite inputs overflow.
    """
    # At entry the locals are exactly the thirteen parameters.
    require_finite(**{name: (value,) for name, value in locals().items()})
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
    require_finite(sigma1=(sigma1,), sigma2=(sigma2,), sigma3=(sigma3,),
                   c11=(c11,), c22=(c22,), c33=(c33,))
    for name, value in (("k1", k1), ("k2", k2), ("k3", k3),
                        ("c11", c11), ("c22", c22), ("c33", c33)):
        if not value > 0:
            raise ValueError(f"infeasible family member: {name} = {value} is not positive")
    return CosSolution(m1=m1, m2=m2, m3=m3, mu=mu, d1=d1, d2=d2, d3=d3,
                       c12=c12, c13=c13, c21=c21, c23=c23, c31=c31, c32=c32,
                       k1=k1, k2=k2, k3=k3,
                       sigma1=sigma1, sigma2=sigma2, sigma3=sigma3,
                       c11=c11, c22=c22, c33=c33, theta=0)


def residual(spec: SystemSpec, profile: Profile, grid: Sequence[float]) -> tuple:
    """Max absolute wave-equation residual per species over the grid.

    Equation i residual at x is d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u)
    with spec's own m, from the profile's analytic derivatives, by the
    compiled kernel kernels.residual_maxima.  A species with a NaN residual
    at any grid point reports NaN.  An empty grid is refused, as it would
    report a residual of 0.0 over no points, and a residual that overflows
    floating point raises a ValueError naming the species and the point.
    """
    if profile.n != spec.n:
        raise ValueError("profile dimension does not match system")
    if len(grid) == 0:
        raise ValueError("residual needs a grid of at least one point, got an empty grid")
    from .kernels import residual_maxima
    return residual_maxima(spec, profile.form, profile.constants, grid)
