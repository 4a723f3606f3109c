"""Barrier-based a-priori bounds for degenerate competition-diffusion waves.

The package builds nested plane/ellipsoid barriers around the coexistence
region of n-species competition systems with porous-medium diffusion,
evaluates the resulting closed-form bounds on weighted species totals,
provides exact solution families for end-to-end verification, integrates
wave trajectories, and decides closed-form wave-blocking criteria for
three-species systems.
"""

from .barrier import (BarrierEnvelope, ContainmentReport, barrier_curves,
                      build_lower_barrier, build_upper_barrier, verify_containment)
from .bounds import (BoundsResult, bounds_for, bounds_general, bounds_m1,
                     bounds_two_species_m2)
from .exact import (CosSolution, Profile, TanhSolution, cos_family, residual,
                    tanh_family)
from .model import (HullBounds, HypothesisReport, ReactionSpec, SystemSpec,
                    hull_intercepts, reaction_eval, system_from_dict,
                    system_to_dict, verify_hypothesis_H)
from .nonexistence import (CaseIIVerdict, CaseIVerdict, NonexistenceVerdict,
                           ThreeSpeciesParams, check, check_case_i,
                           check_case_ii, params_from_dict)
from .waves import (BoundCheckReport, Trajectory, check_bounds,
                    flux_balance_defect, integrate)

__version__ = "0.1.0"

__all__ = [
    "BarrierEnvelope", "BoundCheckReport", "BoundsResult", "CaseIIVerdict",
    "CaseIVerdict", "ContainmentReport", "CosSolution",
    "HullBounds", "HypothesisReport", "NonexistenceVerdict", "Profile",
    "ReactionSpec", "SystemSpec", "TanhSolution",
    "ThreeSpeciesParams", "Trajectory", "barrier_curves", "bounds_for",
    "bounds_general", "bounds_m1", "bounds_two_species_m2",
    "build_lower_barrier", "build_upper_barrier", "check", "check_bounds",
    "check_case_i", "check_case_ii", "cos_family",
    "flux_balance_defect", "hull_intercepts", "integrate", "params_from_dict",
    "reaction_eval", "residual", "system_from_dict", "system_to_dict",
    "tanh_family", "verify_containment", "verify_hypothesis_H",
]
