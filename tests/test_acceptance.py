"""End-to-end acceptance gate.

Nine numbered checks; each prints one PASS/FAIL line on the terminal even
under captured output, then asserts.  Randomized checks use fixed seeds.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from nbarrier import (
    HullBounds,
    bounds_general,
    bounds_two_species_m2,
    build_lower_barrier,
    build_upper_barrier,
    check_case_i,
    check_case_ii,
    cos_family,
    hull_intercepts,
    integrate,
    residual,
    tanh_family,
    verify_containment,
)

from conftest import COS_ARGS


def run_criterion(capsys, idx, fn):
    """Run one check, always printing the verdict line before re-raising."""
    try:
        note = fn()
    except BaseException as exc:
        with capsys.disabled():
            print(f"criterion {idx}: FAIL ({type(exc).__name__}: {exc})")
        raise
    with capsys.disabled():
        print(f"criterion {idx}: PASS" + (f" ({note})" if note else ""))


def rel_err(got, want):
    return abs(got - want) / abs(want)


def quadruple(env):
    return (env.lambda1, env.eta1, env.lambda2, env.eta2)


def assert_quadruple(env, want, rel=1e-12):
    for got, target in zip(quadruple(env), want):
        assert rel_err(got, target) < rel, (quadruple(env), want)


def golden_min(f, a, b, tol=1e-12):
    """Golden-section minimizer for a strictly convex section."""
    inv = (math.sqrt(5) - 1) / 2
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def test_criterion_1_lower_envelope_reference(capsys):
    def check():
        args = ((1.0, 2.0), (3.0, 4.0), (1 / 3, 1 / 2), 2.0)
        build_lower_barrier(*args)  # warm path before timing
        t0 = time.perf_counter()
        env = build_lower_barrier(*args)
        dt = time.perf_counter() - t0
        assert_quadruple(env, (2 / 7, math.sqrt(2 / 21), 4 / 35,
                               2 / math.sqrt(105)))
        env_unit = build_lower_barrier((1.0, 1.0), (3.0, 4.0),
                                       (1 / 3, 1 / 2), 2.0)
        assert_quadruple(env_unit, (1 / 4, 1 / 4, 3 / 28,
                                    math.sqrt(3 / 7) / 4))
        assert dt < 1e-3, f"build took {dt:.2e} s"
        return f"both quadruples at rel 1e-12, build {dt * 1e6:.0f} us"

    run_criterion(capsys, 1, check)


def test_criterion_2_upper_envelope_reference(capsys):
    def check():
        cases = (
            (((1.0, 2.0), (3.0, 4.0)),
             (8.0, 2 * math.sqrt(5 / 3), 20.0, 5 * math.sqrt(2 / 3))),
            (((1.0, 1.0), (3.0, 4.0)),
             (4.0, math.sqrt(7 / 3), 28 / 3, 7 / 3)),
            (((1.0, 0.5), (3.0, 4.0)),
             (3.0, 0.5 * math.sqrt(11 / 2), 11.0, 11 / (2 * math.sqrt(6)))),
            (((1.0, 0.75), (3.0, 2.0)),
             (3.0, 0.5 * math.sqrt(17 / 2), 51 / 8, 17 / 8)),
        )
        for (alpha, d), want in cases:
            env = build_upper_barrier(alpha, d, (1.0, 1.0), 2.0)
            assert_quadruple(env, want)
        return "four quadruples at rel 1e-12"

    run_criterion(capsys, 2, check)


def test_criterion_3_two_species_reference_bounds(capsys):
    def check():
        hull = HullBounds(ubar=(240.0, 16.0), ulow=(80.0, 80 / 9))
        direct = bounds_two_species_m2(0.5, 1 / 3, 3.0, 4.0, hull, 1)
        assert rel_err(direct.lower, 80 / math.sqrt(2211)) < 1e-12
        assert rel_err(direct.upper, 180 * math.sqrt(2)) < 1e-12
        via = bounds_general((0.5, 1 / 3), (3.0, 4.0), hull, 2.0, 1)
        assert rel_err(direct.lower, via.lower) < 1e-12
        assert rel_err(direct.upper, via.upper) < 1e-12
        return "closed forms and envelope route agree at rel 1e-12"

    run_criterion(capsys, 3, check)


def test_criterion_4_exact_solution_residuals(capsys):
    def check():
        tanh_sol = tanh_family(3, 4, 1, 2)
        grid = [-20 + k * 0.01 for k in range(4001)]
        tanh_res = max(residual(tanh_sol.system(), tanh_sol.profile(), grid))
        assert tanh_res < 1e-8, tanh_res

        cos_sol = cos_family(*[float(a) for a in COS_ARGS])
        period = cos_sol.period
        cgrid = [k * period / 2000 for k in range(2001)]
        cos_res = max(residual(cos_sol.system(), cos_sol.profile(), cgrid))
        assert cos_res < 1e-8, cos_res

        exact = cos_family(*COS_ARGS)
        one = Fraction(1)
        assert (exact.sigma1, exact.sigma2, exact.sigma3) == (one, one, one)
        assert (exact.c11, exact.c22, exact.c33) == (one, one, one)
        return (f"tanh residual {tanh_res:.1e}, cos residual {cos_res:.1e}, "
                "rational ties exact")

    run_criterion(capsys, 4, check)


def test_criterion_5_bounds_hold_along_the_front(capsys):
    def check():
        sol = tanh_family(3, 4, 1, 2)
        prof = sol.profile()
        alpha = (0.5, 1 / 3)
        hull = hull_intercepts(sol.system().reaction)
        bounds = bounds_two_species_m2(alpha[0], alpha[1], 3.0, 4.0, hull, 1)

        # Analytic trajectory out to the tails.
        xs = [-30 + k * 0.01 for k in range(6001)]
        ps = [alpha[0] * prof.at(x).u[0] + alpha[1] * prof.at(x).u[1]
              for x in xs]
        assert all(bounds.lower <= p <= bounds.upper for p in ps)
        left_err = abs(ps[0] - 120.0)
        right_err = abs(ps[-1] - 16 / 3)
        assert left_err < 1e-6 and right_err < 1e-6

        # RK4 leg on the window where shooting is faithful (see notes on the
        # transverse instability of the tails).
        start = prof.at(-1.0)
        traj = integrate(sol.system(), start.u, start.dum, (-1.0, 1.0), 1e-3,
                         alpha=alpha)
        assert not traj.truncated
        worst = max(
            float(np.max(np.abs(traj.u[k]
                                - np.array(prof.at(float(traj.xs[k])).u))))
            for k in range(len(traj.xs)))
        assert worst < 1e-4, worst
        assert float(traj.p.min()) >= bounds.lower
        assert float(traj.p.max()) <= bounds.upper
        return (f"zero violations; endpoint errors {left_err:.1e}/"
                f"{right_err:.1e}; RK4 tracks front to {worst:.1e}")

    run_criterion(capsys, 5, check)


def test_criterion_6_tangency_against_brute_force(capsys):
    """The builder's two tangency levels and the certificate's tangent points
    against golden-section minimisation of q along each plane.

    lambda1 is the tangency with the face sum_i u_i / ulow_i = 1, so a
    hull of theta ulow gives the level on sum_i u_i / ulow_i = theta.
    lambda2 is the tangency with the plane p = eta1.
    """
    def check():
        rng = random.Random(20260816)
        worst_gap = 0.0
        for _ in range(50):
            alpha = (rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            d = (rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            ulow = (rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            theta = rng.uniform(0.5, 2.0)

            def q(u):
                return sum(a * di * ui ** 2
                           for a, di, ui in zip(alpha, d, u))

            face = tuple(theta * lo for lo in ulow)
            env = build_lower_barrier(alpha, d, face, 2.0)
            hull = HullBounds(ubar=tuple(2 * lo for lo in face), ulow=face)
            links = {link.name: link for link in verify_containment(env, hull, 1).links}

            seg_w = lambda t: q((ulow[0] * theta * t,
                                 ulow[1] * theta * (1 - t)))
            t_star, brute = golden_min(seg_w, 0.0, 1.0)
            worst_gap = max(worst_gap, rel_err(env.lambda1, brute))
            assert rel_err(env.lambda1, brute) < 1e-6
            point = (ulow[0] * theta * t_star, ulow[1] * theta * (1 - t_star))
            for got, want in zip(links["ellipsoid_lambda1_in_inner_hull"].worst_point, point):
                assert rel_err(got, want) < 1e-5

            seg_p = lambda t: q((env.eta1 * t / alpha[0],
                                 env.eta1 * (1 - t) / alpha[1]))
            t_star, brute = golden_min(seg_p, 0.0, 1.0)
            worst_gap = max(worst_gap, rel_err(env.lambda2, brute))
            assert rel_err(env.lambda2, brute) < 1e-6
            point = (env.eta1 * t_star / alpha[0], env.eta1 * (1 - t_star) / alpha[1])
            for got, want in zip(links["ellipsoid_lambda2_in_plane_eta1"].worst_point, point):
                assert rel_err(got, want) < 1e-5
        return f"50 cases, worst level gap {worst_gap:.1e}"

    run_criterion(capsys, 6, check)


def test_criterion_7_containment_property_suite(capsys):
    def check():
        rng = random.Random(1145)
        for _ in range(50):
            n = rng.choice((2, 3))
            m = rng.choice((1.5, 2.0, 3.0))
            alpha = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
            d = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
            ulow = tuple(rng.uniform(0.2, 1.0) for _ in range(n))
            ubar = tuple(lo + rng.uniform(0.2, 2.0) for lo in ulow)
            hull = HullBounds(ubar=ubar, ulow=ulow)

            lo = build_lower_barrier(alpha, d, ulow, m)
            hi = build_upper_barrier(alpha, d, ubar, m)
            assert lo.eta2 <= lo.eta1 * (1 + 1e-12)
            assert lo.lambda2 <= lo.lambda1 * (1 + 1e-12)
            assert hi.eta2 * (1 + 1e-12) >= hi.eta1
            assert hi.lambda2 * (1 + 1e-12) >= hi.lambda1

            rep_lo = verify_containment(lo, hull, 25, orientation="lower")
            rep_hi = verify_containment(hi, hull, 25, orientation="upper")
            assert len(rep_lo.links) == 4 and len(rep_hi.links) == 4
            assert rep_lo.ok, [l.name for l in rep_lo.links if not l.ok]
            assert rep_hi.ok, [l.name for l in rep_hi.links if not l.ok]
        return "50 cases, all eight links and both orderings"

    run_criterion(capsys, 7, check)


def test_criterion_8_integrator_convergence(capsys):
    def check():
        sol = tanh_family(3, 4, 1, 2)
        prof = sol.profile()
        start = prof.at(-1.0)
        t0 = time.perf_counter()
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            traj = integrate(sol.system(), start.u, start.dum,
                             (-1.0, 1.0), h)
            worst = max(
                float(np.max(np.abs(traj.u[k]
                                    - np.array(prof.at(float(traj.xs[k])).u))))
                for k in range(len(traj.xs)))
            errs.append(worst)
        wall = time.perf_counter() - t0
        ratios = (errs[0] / errs[1], errs[1] / errs[2])
        assert 12 <= ratios[0] <= 20, (errs, ratios)
        assert 12 <= ratios[1] <= 20, (errs, ratios)
        assert wall < 5.0, wall
        return (f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}; "
                f"{wall:.2f} s")

    run_criterion(capsys, 8, check)


def test_criterion_9_nonexistence_formula_fidelity(capsys):
    def check():
        rng = random.Random(31415)
        from nbarrier import ThreeSpeciesParams

        for _ in range(20):
            d1, d2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            sigma = (rng.uniform(5.0, 15.0), rng.uniform(5.0, 15.0),
                     rng.uniform(0.5, 3.0))
            C = ((rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                  rng.uniform(0.1, 0.3)),
                 (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                  rng.uniform(0.1, 0.3)),
                 (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                  rng.uniform(1.0, 3.0)))
            params = ThreeSpeciesParams(d=(d1, d2, rng.uniform(0.5, 3.0)),
                                        sigma=sigma, C=C,
                                        w_minus_inf=rng.uniform(0.0, 2.0))

            ci = check_case_i(params)
            assert ci.applicable
            phi1 = sigma[0] - C[0][2] * sigma[2] / C[2][2]
            phi2 = sigma[1] - C[1][2] * sigma[2] / C[2][2]
            lo = (min(phi1 / C[0][0], phi2 / C[1][0]),
                  min(phi1 / C[0][1], phi2 / C[1][1]))
            hull_lo = HullBounds(ubar=(2 * lo[0], 2 * lo[1]), ulow=lo)
            want = bounds_two_species_m2(C[2][0], C[2][1], d1, d2,
                                         hull_lo, 1).lower
            assert rel_err(ci.lambda_star, want) < 1e-12

            cii = check_case_ii(params)
            hi = (max(sigma[0] / C[0][0], sigma[1] / C[1][0]),
                  max(sigma[0] / C[0][1], sigma[1] / C[1][1]))
            hull_hi = HullBounds(ubar=hi, ulow=(hi[0] * 1e-6, hi[1] * 1e-6))
            want_hi = bounds_two_species_m2(C[2][0], C[2][1], d1, d2,
                                            hull_hi, 1).upper
            assert rel_err(cii.lambda_star_upper, want_hi) < 1e-12

        # Monotone screening over a sigma3 grid.
        base = dict(d=(1.0, 2.0, 1.0),
                    C=((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0)))
        flags_i, flags_ii, thresholds = [], [], []
        for k in range(1, 90):
            s3 = 0.5 * k
            params = ThreeSpeciesParams(sigma=(10.0, 12.0, s3), **base)
            ci = check_case_i(params)
            cii = check_case_ii(params)
            flags_i.append(bool(ci.blocked))
            flags_ii.append(bool(cii.applicable))
            if cii.applicable:
                thresholds.append(cii.threshold)
        assert flags_i == sorted(flags_i, reverse=True)
        assert flags_ii == sorted(flags_ii)
        assert any(flags_i) and any(flags_ii)
        assert thresholds == sorted(thresholds)
        return "20 cases at rel 1e-12; screening monotone"

    run_criterion(capsys, 9, check)
