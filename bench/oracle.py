"""Reference values for the benchmark's output checks, computed without nbarrier.

Every function here works from the problem data alone: the affine
competition factors, the paper's closed forms for the barrier levels and
bands, the coefficient ties of the two exact families and their analytic
profiles.  Nothing in this module imports or calls the package under test,
so a wrong result from the package cannot also make its reference wrong.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

# The default tolerance of `nbarrier residual`, restated so the check does
# not read it from the code it checks.
RESIDUAL_TOL = 1e-8
# Relative agreement demanded between a closed form and the package.
REL = 1e-12
# RK4 tracking of the tanh front: max |u - u_exact| <= RK4_ERR_CONST * h^4
# * max(k1, k2) * exp(FRONT_GROWTH * span).  The front sits on a saddle whose
# unstable rate is sqrt(40) for every family member, so deviations grow by
# that exponential over the window.  Over 80 seeded members with spans up to
# 1.6 the measured constant stayed below 6; 100 leaves a wide margin.
RK4_ERR_CONST = 100.0
FRONT_GROWTH = math.sqrt(40.0)


class Checker:
    """Collects one line per mismatch between a result and its reference."""

    def __init__(self):
        self.problems: list[str] = []

    def close(self, what, got, want, rel=REL, abs_tol=0.0):
        try:
            ok = math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol)
        except TypeError:
            ok = False
        if not ok:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what, got, want):
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what, cond):
        if not cond:
            self.problems.append(what)


# ---- hull and sign hypothesis -------------------------------------------

def intercepts(sigma, C):
    """Largest and smallest axis intercept sigma_j / c_ji per axis i."""
    n = len(sigma)
    cuts = [[sigma[j] / C[j][i] for j in range(n)] for i in range(n)]
    return tuple(max(c) for c in cuts), tuple(min(c) for c in cuts)


def _factors(sigma, C, u):
    return [s - sum(c * x for c, x in zip(row, u)) for s, row in zip(sigma, C)]


def hypothesis_extremes(sigma, C, ubar, ulow):
    """Worst sign-hypothesis values over the two hull regions, at vertices.

    Each f_j is affine, so its extremes over a polytope sit at vertices.  The
    inner region is the solid simplex with vertices 0 and ulow_i e_i.  The
    outer region is the truncated cone between the ubar face and twice it,
    with vertices s * ubar_i e_i for s in {1, 2}.
    Returns (min over inner of min_j f_j, max over outer of max_j f_j).
    """
    n = len(sigma)

    def axis(i, x):
        return [x if k == i else 0.0 for k in range(n)]

    inner = [min(sigma)] + [min(_factors(sigma, C, axis(i, ulow[i]))) for i in range(n)]
    outer = [max(_factors(sigma, C, axis(i, s * ubar[i])))
             for i in range(n) for s in (1.0, 2.0)]
    return min(inner), max(outer)


def lattice_points_H(n, r):
    """Points the sign-hypothesis sweep evaluates at resolution r.

    Solid simplex lattice C(r+n, n), plus the ubar-face simplex lattice
    C(r+n-1, n-1) at r+1 radial scales.
    """
    return comb(r + n, n) + (r + 1) * comb(r + n - 1, n - 1)


def lattice_points_containment(n, s):
    """Points one containment check evaluates: four links, one face each."""
    return 4 * comb(s + n - 1, n - 1)


# ---- barrier levels and bands -------------------------------------------

def _min_q_on_plane(w, b, m):
    """min of sum_i w_i u_i^m over u >= 0 with sum_i b_i u_i = 1 (Hoelder)."""
    e = 1.0 / (m - 1.0)
    return sum(bi ** (m * e) * wi ** -e for wi, bi in zip(w, b)) ** (1.0 - m)


def _plane_vertex_q(alpha, d, m):
    """max of q over the simplex p = 1: its vertices 1/alpha_i e_i."""
    return max(di * a ** (1.0 - m) for a, di in zip(alpha, d))


def lower_envelope(alpha, d, ulow, m):
    """(lambda1, eta1, lambda2, eta2) of the lower barrier, m > 1.

    Largest ellipsoid inside the ulow face, largest plane inside that
    (convex q peaks at the plane simplex's vertices), then once more.
    """
    w = [a * di for a, di in zip(alpha, d)]
    g = _plane_vertex_q(alpha, d, m)
    lam1 = _min_q_on_plane(w, [1.0 / lo for lo in ulow], m)
    eta1 = (lam1 / g) ** (1.0 / m)
    lam2 = eta1 ** m * _min_q_on_plane(w, alpha, m)
    eta2 = (lam2 / g) ** (1.0 / m)
    return lam1, eta1, lam2, eta2


def upper_envelope(alpha, d, ubar, m):
    """(lambda1, eta1, lambda2, eta2) of the upper barrier, m > 1.

    Smallest ellipsoid over the ubar face (vertex maximum), smallest plane
    over that ellipsoid (the dual of the plane's smallest q), then again.
    """
    w = [a * di for a, di in zip(alpha, d)]
    g = _plane_vertex_q(alpha, d, m)
    qmin = _min_q_on_plane(w, alpha, m)
    lam1 = max(wi * hi ** m for wi, hi in zip(w, ubar))
    eta1 = (lam1 / qmin) ** (1.0 / m)
    lam2 = eta1 ** m * g
    eta2 = (lam2 / qmin) ** (1.0 / m)
    return lam1, eta1, lam2, eta2


def band(alpha, d, ubar, ulow, m, chi):
    """(lower, upper, branch) of the closed-form band on p = sum alpha_i u_i."""
    if m == 1:
        contrast = max(d) / min(d)
        upper = max(a * hi for a, hi in zip(alpha, ubar)) * contrast
        lower = min(a * lo for a, lo in zip(alpha, ulow)) / contrast * chi
        return lower, upper, "m1"
    return (lower_envelope(alpha, d, ulow, m)[3] * chi,
            upper_envelope(alpha, d, ubar, m)[3], "general")


def two_species_m2(alpha, d, ubar, ulow):
    """(lower, upper) from the paper's two-species m = 2 corollary."""
    (a1, a2), (d1, d2) = alpha, d
    upper = (a1 / d1 + a2 / d2) * math.sqrt(
        max(d1 / a1, d2 / a2) * max(a1 * d1 * ubar[0] ** 2, a2 * d2 * ubar[1] ** 2))
    lower = (d1 * d2 * ulow[0] * ulow[1] * min(a1 / d1, a2 / d2)
             * math.sqrt(a1 * a2 / ((a1 * d1 * ulow[0] ** 2 + a2 * d2 * ulow[1] ** 2)
                                    * (a1 * d2 + a2 * d1))))
    return lower, upper


# ---- three-species wave blocking ----------------------------------------

def blocking(d, sigma, C, w_minus=None, w_plus=None):
    """Both wave-blocking verdicts, keyed as the package's JSON keys them."""
    (d1, d2, _), (s1, s2, s3) = d, sigma
    phi1 = s1 - C[0][2] * s3 / C[2][2]
    phi2 = s2 - C[1][2] * s3 / C[2][2]
    case_i = {"applicable": phi1 > 0 and phi2 > 0, "phi1": phi1, "phi2": phi2,
              "ulow_star": None, "vlow_star": None, "lambda_star": None,
              "blocked": False, "profile_hypotheses_asserted": True}
    if case_i["applicable"]:
        lo = (min(phi1 / C[0][0], phi2 / C[1][0]), min(phi1 / C[0][1], phi2 / C[1][1]))
        lam = two_species_m2((C[2][0], C[2][1]), (d1, d2), lo, lo)[0]
        case_i.update(ulow_star=lo[0], vlow_star=lo[1], lambda_star=lam,
                      blocked=lam >= s3)
    hi = (max(s1 / C[0][0], s2 / C[1][0]), max(s1 / C[0][1], s2 / C[1][1]))
    lam_up = two_species_m2((C[2][0], C[2][1]), (d1, d2), hi, hi)[1]
    applicable = lam_up < s3
    threshold = (s3 - lam_up) / C[2][2] if applicable else None
    given = [w for w in (w_minus, w_plus) if w is not None]
    case_ii = {"applicable": applicable, "ubar_star": hi[0], "vbar_star": hi[1],
               "lambda_star_upper": lam_up, "threshold": threshold,
               "blocked": bool(applicable and given and min(given) < threshold),
               "conclusive": bool(given), "profile_hypotheses_asserted": True}
    return {"case_i": case_i, "case_ii": case_ii}


# ---- exact families -----------------------------------------------------

def tanh_ties(d1, d2, c11, c22):
    """Tied coefficients of the two-species tanh front."""
    return {"k1": 20 * d1 / c11, "k2": 4 * d2 / c22, "sigma1": 80 * d1,
            "sigma2": 8 * d2, "c12": 18 * c22 * d1 / d2,
            "c21": 3 * c11 * d2 / (10 * d1)}


def cos_ties(m1, m2, m3, mu, d1, d2, d3, c12, c13, c21, c23, c31, c32):
    """Tied coefficients of the three-species cosine family."""
    w = mu * mu
    return {"k1": -m1, "k2": m2, "k3": m3,
            "sigma1": 2 * (c12 * m2 + c13 * m3 + 3 * d1 * w * m1),
            "sigma2": -2 * (c21 * m1 + 3 * d2 * w * m2),
            "sigma3": -2 * (c31 * m1 + 3 * d3 * w * m3),
            "c11": -(c12 * m2 + c13 * m3 + 4 * d1 * w * m1) / m1,
            "c22": -(c21 * m1 + c23 * m3 + 4 * d2 * w * m2) / m2,
            "c33": -(c31 * m1 + c32 * m2 + 4 * d3 * w * m3) / m3}


def tanh_front(k1, k2, xs):
    """Analytic front states u (N, 2) and fluxes w = (u^2)' (N, 2) at xs."""
    t = np.tanh(np.asarray(xs, dtype=float))
    u = np.stack([k1 * (1.0 - t) ** 2, k2 * (1.0 + t)], axis=-1)
    du = np.stack([-2.0 * k1 * (1.0 - t) * (1.0 - t * t), k2 * (1.0 - t * t)], axis=-1)
    return u, 2.0 * u * du


def rk4_error_bound(h, span, scale):
    return RK4_ERR_CONST * h ** 4 * scale * math.exp(FRONT_GROWTH * span)


def flux_defect(d, l, sigma, C, theta, xs, u, w, alpha):
    """Integrated flux-balance identity on stored states, trapezoidal rule.

    Returns (defect, scale): scale sums the magnitudes of the cancelling
    terms, so a comparison can allow for their roundoff.
    """
    alpha, d = np.asarray(alpha, float), np.asarray(d, float)
    f = np.asarray(sigma, float)[None, :] - np.einsum("ij,kj->ki", np.asarray(C, float), u)
    F = np.sum(alpha * u ** np.asarray(l, float) * f, axis=1)
    qprime = w @ (alpha * d)
    p = u @ alpha
    pieces = np.diff(xs) * (F[1:] + F[:-1]) / 2.0
    defect = qprime[-1] - qprime[0] + theta * (p[-1] - p[0]) + np.sum(pieces)
    scale = abs(qprime[-1]) + abs(qprime[0]) + abs(theta) * (abs(p[-1]) + abs(p[0])) \
        + np.sum(np.abs(pieces))
    return float(defect), float(scale)
