"""Decision procedure for blocking three-species waves with an invading third.

Two independent criteria rule out a positive wave profile for the
three-species degenerate system.  Case (i) bounds the first two species away
from zero after discounting the third's ceiling, and blocks when the
resulting weighted floor already exceeds the third's growth rate.  Case (ii)
caps the first two species and blocks when the third's equation cannot dip
below the level its boundary data would need.  Both reuse the two-species
m = 2 closed forms with the third row's competition coefficients as weights.

Hypotheses about the (hypothetical) profile itself, its positivity and
boundary limits and interior minimum, cannot be computed from parameters;
every verdict records them as asserted (profile_hypotheses_asserted is
always true).
"""

from __future__ import annotations

from .bounds import two_species_m2_lower, two_species_m2_upper
from .model import (ReactionSpec, axis_intercepts, fields_from_dict, float_matrix,
                    float_vector, number, record, record_dict, require_finite,
                    require_vectors)


@record
class ThreeSpeciesParams:
    """Parameters of the three-species system, plus optional boundary data
    w_minus_inf / w_plus_inf for the third species (case ii only)."""

    d: tuple
    sigma: tuple
    C: tuple
    w_minus_inf: float | None = None
    w_plus_inf: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "C", tuple(map(tuple, self.C)))
        require_vectors(3, d=self.d, sigma=self.sigma)
        ReactionSpec(sigma=self.sigma, C=self.C)
        for name, w in (("w_minus_inf", self.w_minus_inf),
                        ("w_plus_inf", self.w_plus_inf)):
            if w is None:
                continue
            require_finite(**{name: (w,)})
            if w < 0:
                raise ValueError(f"{name} must be nonnegative")


@record
class CaseIVerdict:
    """Floor-based blocking: applicable when both discounted rates are positive."""

    applicable: bool
    phi1: float
    phi2: float
    ulow_star: float | None
    vlow_star: float | None
    lambda_star: float | None
    blocked: bool
    profile_hypotheses_asserted: bool

@record
class CaseIIVerdict:
    """Cap-based blocking: needs boundary data for the third species.

    conclusive is False when neither boundary value was supplied; blocked is
    then False by construction, not a finding.
    """

    applicable: bool
    ubar_star: float
    vbar_star: float
    lambda_star_upper: float
    threshold: float | None
    blocked: bool
    conclusive: bool
    profile_hypotheses_asserted: bool

@record
class NonexistenceVerdict:
    """Both blocking criteria evaluated on one parameter set."""

    case_i: CaseIVerdict
    case_ii: CaseIIVerdict

    def to_dict(self) -> dict:
        return record_dict(self)


def check_case_i(params: ThreeSpeciesParams) -> CaseIVerdict:
    """Evaluate the floor criterion.

    phi_i discount the first two growth rates by the third species' ceiling
    sigma3/c33.  Both must be strictly positive (a tie fails); then the
    intercept floors u*, v* feed the two-species m = 2 lower closed form with
    weights (c31, c32), and the wave is blocked when that floor level already
    reaches sigma3.
    """
    (d1, d2, _), (s1, s2, s3), C = params.d, params.sigma, params.C
    phi1 = s1 - C[0][2] * s3 / C[2][2]
    phi2 = s2 - C[1][2] * s3 / C[2][2]
    if not (phi1 > 0 and phi2 > 0):
        return CaseIVerdict(applicable=False, phi1=phi1, phi2=phi2,
                            ulow_star=None, vlow_star=None, lambda_star=None,
                            blocked=False,
                            profile_hypotheses_asserted=True)
    ulow_star, vlow_star = map(min, axis_intercepts((phi1, phi2), C[:2]))
    lambda_star = two_species_m2_lower(C[2][0], C[2][1], d1, d2,
                                       ulow_star, vlow_star)
    return CaseIVerdict(applicable=True, phi1=phi1, phi2=phi2,
                        ulow_star=ulow_star, vlow_star=vlow_star,
                        lambda_star=lambda_star, blocked=lambda_star >= s3,
                        profile_hypotheses_asserted=True)


def check_case_ii(params: ThreeSpeciesParams) -> CaseIIVerdict:
    """Evaluate the cap criterion.

    The intercept caps u*, v* feed the two-species m = 2 upper closed form
    with weights (c31, c32).  Applicable when that cap level stays below
    sigma3; blocked additionally needs a supplied boundary value of the third
    species below (sigma3 - cap)/c33.  With neither boundary value given the
    verdict is inconclusive rather than an error.
    """
    (d1, d2, _), (s1, s2, s3), C = params.d, params.sigma, params.C
    ubar_star, vbar_star = map(max, axis_intercepts((s1, s2), C[:2]))
    lam_upper = two_species_m2_upper(C[2][0], C[2][1], d1, d2,
                                     ubar_star, vbar_star)
    applicable = lam_upper < s3
    threshold = (s3 - lam_upper) / C[2][2] if applicable else None
    supplied = [w for w in (params.w_minus_inf, params.w_plus_inf) if w is not None]
    conclusive = bool(supplied)
    blocked = bool(applicable and supplied and min(supplied) < threshold)
    return CaseIIVerdict(applicable=applicable, ubar_star=ubar_star,
                         vbar_star=vbar_star, lambda_star_upper=lam_upper,
                         threshold=threshold, blocked=blocked,
                         conclusive=conclusive,
                         profile_hypotheses_asserted=True)


def check(params: ThreeSpeciesParams) -> NonexistenceVerdict:
    """Run both criteria and bundle the verdicts."""
    return NonexistenceVerdict(
        case_i=check_case_i(params), case_ii=check_case_ii(params))


def params_from_dict(doc: dict) -> ThreeSpeciesParams:
    """Build parameters from a JSON document with keys d, sigma, C and
    optional w_minus_inf / w_plus_inf; raises ValueError naming any missing
    or malformed key."""
    def optional(value):
        return None if value is None else number(value)

    return ThreeSpeciesParams(**fields_from_dict(
        {"w_minus_inf": None, "w_plus_inf": None, **doc},
        {"d": float_vector, "sigma": float_vector, "C": float_matrix,
         "w_minus_inf": optional, "w_plus_inf": optional}, "parameter"))
