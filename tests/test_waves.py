"""Fixed-step RK4 reduction of the wave system and trajectory checks."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nbarrier import (
    BoundsResult,
    ReactionSpec,
    SystemSpec,
    bounds_two_species_m2,
    check_bounds,
    hull_intercepts,
    integrate,
)
from nbarrier import waves
from nbarrier.waves import MAX_STEPS, POSITIVITY_FLOOR, flux_balance_defect

LV = SystemSpec(n=2, m=1.0, d=(1.0, 1.0), l=(1.0, 1.0), theta=0.7,
                reaction=ReactionSpec(sigma=(1.0, 1.0),
                                      C=((1.0, 2.0), (3.0, 1.0))))


def max_profile_error(traj, profile):
    worst = 0.0
    for k in range(len(traj.xs)):
        exact = profile.at(float(traj.xs[k]))
        worst = max(worst, float(np.max(np.abs(traj.u[k] - np.array(exact.u)))))
    return worst


def test_integrate_validates_inputs(tanh_sol):
    spec = tanh_sol.system()
    with pytest.raises(ValueError):
        integrate(spec, (1.0,), (0.0, 0.0), (0, 1), 1e-2)
    with pytest.raises(ValueError):
        integrate(spec, (1.0, -1.0), (0.0, 0.0), (0, 1), 1e-2)
    with pytest.raises(ValueError):
        integrate(spec, (1.0, 1.0), (0.0, 0.0), (1, 0), 1e-2)
    with pytest.raises(ValueError):
        integrate(spec, (1.0, 1.0), (0.0, 0.0), (0, 1), 0.0)
    with pytest.raises(ValueError):
        integrate(spec, (1.0, 1.0), (0.0, 0.0), (0, 1), 1e-2, alpha=(1.0,))


@pytest.mark.parametrize("x_span, step, named", [
    ((0.0, 1.0), math.nan, "finite"),
    ((0.0, 1.0), math.inf, "finite"),
    ((0.0, math.inf), 1e-2, "finite"),
    ((0.0, math.nan), 1e-2, "finite"),
    ((0.0, 1.0), 1e-300, "1e+300 steps"),
    ((-1e308, 1e308), 1.0, "inf steps"),
    ((0.0, MAX_STEPS + 0.5), 1.0, f"{MAX_STEPS + 1} steps"),
], ids=["nan-step", "inf-step", "inf-span", "nan-span", "tiny-step", "span-overflow",
        "partial-step"])
def test_integrate_caps_the_step_count_before_allocating(tanh_sol, x_span, step, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        integrate(tanh_sol.system(), (1.0, 1.0), (0.0, 0.0), x_span, step)


def test_step_cap_counts_the_final_partial_step(tanh_sol, monkeypatch):
    monkeypatch.setattr(waves, "MAX_STEPS", 10)
    start = tanh_sol.profile().at(0.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (0.0, 0.1), 1e-2)
    assert len(traj.xs) == 11
    with pytest.raises(ValueError, match="11 steps"):
        integrate(tanh_sol.system(), start.u, start.dum, (0.0, 0.105), 1e-2)


def test_coexistence_state_is_a_fixed_point_m1():
    # 1 = u + 2v, 1 = 3u + v meet at (1/5, 2/5); w = u' = 0 there.
    traj = integrate(LV, (0.2, 0.4), (0.0, 0.0), (0.0, 3.0), 1e-2)
    assert not traj.truncated
    assert np.max(np.abs(traj.u - np.array([0.2, 0.4]))) < 1e-12
    assert np.max(np.abs(traj.w)) < 1e-12


def test_coexistence_state_is_a_fixed_point_m2(tanh_sol):
    spec = tanh_sol.system()
    # 240 = u + 27v and 32 = 0.4u + 2v meet inside the positive quadrant.
    v = 64 / 8.8
    u = 240 - 27 * v
    traj = integrate(spec, (u, v), (0.0, 0.0), (0.0, 2.0), 1e-2)
    assert np.max(np.abs(traj.u - np.array([u, v]))) < 1e-9


def test_rk4_tracks_tanh_front_on_central_window(tanh_sol):
    """Step 1e-3 on [-1, 1] stays within 1e-4 of the analytic front."""
    prof = tanh_sol.profile()
    start = prof.at(-1.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (-1.0, 1.0), 1e-3)
    assert not traj.truncated
    assert max_profile_error(traj, prof) < 1e-4


def test_rk4_tracks_cos_orbit_between_touch_points(cos_sol):
    """Accurate while every component stays clear of zero."""
    prof = cos_sol.profile()
    x0 = math.pi / 4
    start = prof.at(x0)
    traj = integrate(cos_sol.system(), start.u, start.dum, (x0, x0 + 0.5), 1e-3)
    assert not traj.truncated
    assert max_profile_error(traj, prof) < 1e-9


def test_shooting_from_the_far_tail_truncates(tanh_sol):
    """The front is transversally unstable; fp seeds grow like e^(6.3 dx).

    Shooting from x = -10 therefore leaves the orbit and hits the positivity
    floor well before the crossover, but the stored prefix must stay clamped
    to nonnegative states and inside the closed-form bounds.
    """
    prof = tanh_sol.profile()
    start = prof.at(-10.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (-10.0, 10.0), 1e-3,
                     alpha=(0.5, 1 / 3))
    assert traj.truncated
    assert "positivity floor" in traj.truncation_reason
    assert float(traj.xs[-1]) < 10.0
    assert np.all(traj.u >= 0.0)
    hull = hull_intercepts(tanh_sol.system().reaction)
    bounds = bounds_two_species_m2(0.5, 1 / 3, 3.0, 4.0, hull, 1)
    assert check_bounds(traj, (0.5, 1 / 3), bounds).ok


def test_final_partial_step_lands_on_the_endpoint(tanh_sol):
    prof = tanh_sol.profile()
    start = prof.at(0.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (0.0, 0.0505), 1e-2)
    assert traj.xs[-1] == pytest.approx(0.0505, abs=1e-12)
    assert len(traj.xs) == 7


def test_trajectory_stores_weighted_totals(tanh_sol):
    prof = tanh_sol.profile()
    start = prof.at(0.0)
    alpha = (0.5, 1 / 3)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (0.0, 0.1), 1e-2,
                     alpha=alpha)
    assert traj.alpha == alpha
    k = len(traj.xs) // 2
    p_hand = sum(a * ui for a, ui in zip(alpha, traj.u[k]))
    q_hand = sum(a * di * ui ** 2
                 for a, di, ui in zip(alpha, (3.0, 4.0), traj.u[k]))
    assert traj.p[k] == pytest.approx(p_hand, rel=1e-14)
    assert traj.q[k] == pytest.approx(q_hand, rel=1e-14)


def test_default_alpha_is_all_ones(tanh_sol):
    prof = tanh_sol.profile()
    start = prof.at(0.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (0.0, 0.1), 1e-2)
    assert traj.alpha == (1.0, 1.0)
    assert traj.p[0] == pytest.approx(sum(start.u), rel=1e-14)


def test_check_bounds_reports_excursions(tanh_sol):
    prof = tanh_sol.profile()
    start = prof.at(-1.0)
    traj = integrate(tanh_sol.system(), start.u, start.dum, (-1.0, 1.0), 1e-2)
    tight = BoundsResult(lower=50.0, upper=60.0, chi=1, branch="general")
    report = check_bounds(traj, (0.5, 1 / 3), tight)
    assert not report.ok
    assert report.violations
    x, p = report.violations[0]
    assert p > 60.0 or p < 50.0
    assert report.min_p < 50.0 or report.max_p > 60.0
    with pytest.raises(ValueError):
        check_bounds(traj, (1.0,), tight)


def test_flux_balance_holds_along_accurate_trajectories(tanh_sol):
    spec = tanh_sol.system()
    prof = tanh_sol.profile()
    start = prof.at(-1.0)
    alpha = (0.5, 1 / 3)
    traj = integrate(spec, start.u, start.dum, (-1.0, 1.0), 1e-3, alpha=alpha)
    defect = flux_balance_defect(spec, traj, alpha)
    scale = float(np.max(np.abs(traj.w @ np.array([0.5 * 3, 4 / 3]))))
    assert abs(defect) / scale < 1e-5
    with pytest.raises(ValueError):
        flux_balance_defect(spec, traj, (1.0,))


@pytest.mark.parametrize("u0, w0", [
    ((1.0, math.nan), (0.0, 0.0)),
    ((math.inf, 1.0), (0.0, 0.0)),
    ((1.0, 1.0), (0.0, -math.inf)),
], ids=["nan-u0", "inf-u0", "inf-w0"])
def test_integrate_rejects_non_finite_initial_data(u0, w0):
    with pytest.raises(ValueError, match="finite"):
        integrate(LV, u0, w0, (0.0, 1.0), 1e-2)


def test_trajectory_is_cut_at_the_first_non_finite_state():
    # m = 1 with l = 1.5: a stage state goes negative, u^1.5 is NaN there.
    spec = replace(LV, l=(1.5, 1.5), theta=0.0,
                   reaction=ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 0.5), (0.4, 1.2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(spec, (0.1, 0.1), (-1.0, -1.0), (0.0, 5.0), 0.01)
    assert traj.truncated
    assert traj.truncation_reason == "non-finite state at x = 0.1"
    assert len(traj.xs) == len(traj.u) == len(traj.w) == len(traj.p) == 10
    for arr in (traj.xs, traj.u, traj.w, traj.p, traj.q):
        assert np.isfinite(arr).all()


def numpy_rk4_reference(spec, u0, w0, x_span, step):
    """The earlier numpy stepper: RK4 stages on length-n arrays, errors ignored.

    Returns (xs, u, w, truncation reason).  States are stored unclamped until
    the end of the span or the positivity floor; the stored prefix is then
    cut before its first non-finite state and clamped at zero.
    """
    m, theta = spec.m, spec.theta
    d, l = np.asarray(spec.d, dtype=float), np.asarray(spec.l, dtype=float)
    sigma = np.asarray(spec.reaction.sigma, dtype=float)
    C = np.asarray(spec.reaction.C, dtype=float)

    class FloorHit(Exception):
        pass

    def rhs(u, w):
        if m > 1:
            if np.any(u < POSITIVITY_FLOOR):
                raise FloorHit
            du = w / (m * u ** (m - 1.0))
        else:
            du = w
        return du, (-theta * du - u ** l * (sigma - C @ u)) / d

    x0, x1 = x_span
    n_full = int((x1 - x0) / step + 1e-9)
    remainder = (x1 - x0) - n_full * step
    n_steps = n_full + (remainder > step * 1e-9)
    xs, us, ws = [x0], [np.asarray(u0, dtype=float)], [np.asarray(w0, dtype=float)]
    reason, x = None, x0
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            h = step if k < n_full else remainder
            u, w = us[-1], ws[-1]
            try:
                k1u, k1w = rhs(u, w)
                k2u, k2w = rhs(u + 0.5 * h * k1u, w + 0.5 * h * k1w)
                k3u, k3w = rhs(u + 0.5 * h * k2u, w + 0.5 * h * k2w)
                k4u, k4w = rhs(u + h * k3u, w + h * k3w)
                u_next = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                w_next = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                if m > 1 and np.any(u_next < POSITIVITY_FLOOR):
                    raise FloorHit
            except FloorHit:
                reason = (f"positivity floor {POSITIVITY_FLOOR:g} reached "
                          f"near x = {x + h:.6g}")
                break
            x += h
            xs.append(x)
            us.append(u_next)
            ws.append(w_next)
    xs, u, w = np.array(xs), np.array(us), np.array(ws)
    finite = np.isfinite(u).all(axis=1) & np.isfinite(w).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        reason = f"non-finite state at x = {xs[first]:.6g}"
        xs, u, w = xs[:first], u[:first], w[:first]
    return xs, np.maximum(u, 0.0), w, reason


def _window(sol, x0, length):
    start = sol.profile().at(x0)
    return sol.system(), start.u, start.dum, (x0, x0 + length), 1e-3


def _lv(m, l, u0, w0):
    return replace(LV, m=m, l=(l, l)), u0, w0, (0.0, 1.0), 0.01


# One species with m = 2: the state list y = (u, w) splits at n = 1.
SINGLE = SystemSpec(n=1, m=2.0, d=(1.5,), l=(1.0,), theta=0.3,
                    reaction=ReactionSpec(sigma=(1.0,), C=((2.0,),)))


# name -> (case built from the two family fixtures, stored points, reason)
REFERENCE_CASES = {
    "tanh": (lambda tanh_sol, _: _window(tanh_sol, -1.0, 2.0), 2001, None),
    "cos": (lambda _, cos_sol: _window(cos_sol, math.pi / 4, 0.5), 501, None),
    "lv-m1": (lambda *_: _lv(1.0, 1.0, (0.3, 0.2), (0.5, -0.4)), 101, None),
    "n1-m2": (lambda *_: (SINGLE, (0.2,), (0.05,), (0.0, 1.0), 0.01), 101, None),
    # u^2 overflows: a Python float power raises, numpy gave inf.
    "power-overflow": (lambda *_: _lv(1.0, 2.0, (1e200, 1.0), (0.0, 0.0)), 1,
                       "non-finite state at x = 0.01"),
    # u^59 underflows to 0: a Python float division raises, numpy gave inf.
    "zero-division": (lambda *_: _lv(60.0, 1.0, (2e-8, 1.0), (1.0, 0.0)), 1,
                      "non-finite state at x = 0.01"),
    # The same with w < 0 sends the next stage state to -inf, below the floor.
    "zero-division-floor": (lambda *_: _lv(60.0, 1.0, (2e-8, 1.0), (-1.0, 0.0)), 1,
                            "positivity floor 1e-08 reached near x = 0.01"),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_float_stepper_matches_the_numpy_reference(tanh_sol, cos_sol, name):
    build, points, reason = REFERENCE_CASES[name]
    spec, u0, w0, x_span, step = build(tanh_sol, cos_sol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(spec, u0, w0, x_span, step)
    xs, u, w, ref_reason = numpy_rk4_reference(spec, u0, w0, x_span, step)
    assert (len(traj.xs), traj.truncation_reason) == (points, reason)
    assert ref_reason == reason and traj.truncated == (reason is not None)
    assert traj.xs.tolist() == xs.tolist()
    for got, want in ((traj.u, u), (traj.w, w)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_float_stepper_goes_on_where_numpy_divided_an_overflow_away():
    # u^59 overflows for u = 1e6, so u' = w / (60 u^59) is 0 in IEEE
    # arithmetic and the step stays finite; only the stored q = u^60 column
    # overflows, as it did before.
    spec, u0, w0, x_span, step = _lv(60.0, 1.0, (1e6, 1.0), (1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(spec, u0, w0, x_span, step)
    xs, u, w, reason = numpy_rk4_reference(spec, u0, w0, x_span, step)
    assert not traj.truncated and reason is None
    assert traj.q[0] == math.inf
    assert traj.xs.tolist() == xs.tolist()
    assert np.max(np.abs(traj.u - u)) <= 1e-12 * np.max(np.abs(u))
    assert np.max(np.abs(traj.w - w)) <= 1e-12 * np.max(np.abs(w))


def test_stepping_stops_at_the_first_non_finite_state(monkeypatch):
    # m = 1 with l = 1.5: a stage state goes negative at x = 0.1, and u^1.5 is
    # a complex there (NaN in IEEE arithmetic); nothing after it is stepped.
    spec = replace(LV, l=(1.5, 1.5), theta=0.0,
                   reaction=ReactionSpec(sigma=(1.0, 1.0), C=((1.0, 0.5), (0.4, 1.2))))
    calls = 0
    make_terms = waves.wave_terms

    def counting_wave_terms(spec):
        terms = make_terms(spec)

        def counted(u):
            nonlocal calls
            calls += 1
            return terms(u)

        return counted

    monkeypatch.setattr(waves, "wave_terms", counting_wave_terms)
    traj = integrate(spec, (0.1, 0.1), (-1.0, -1.0), (0.0, 100.0), 0.001)
    assert traj.truncation_reason == "non-finite state at x = 0.1"
    assert len(traj.xs) == 100
    assert calls <= 4 * len(traj.xs)
