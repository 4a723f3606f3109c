"""Trajectory integration and empirical bound checking for wave profiles.

The second-order wave system is reduced to first order in the flux variable
w_i = (u_i^m)'.  For m > 1 the back-map u_i' = w_i / (m u_i^{m-1}) is
singular at u_i = 0, so integration stops at a small positivity floor rather
than stepping into the degenerate set.  Stepping is classical fixed-step
RK4 on Python floats; outputs are bit-reproducible for identical inputs.

The step loop is the compiled kernel kernels.rk4_march, called once for
the full steps and once for a final partial step; each call returns how it
stopped, which names the truncation.  It stores one state tuple
y = (u.., w..) per grid point, and the stored history is one array split
once into its column halves, Trajectory.u and .w.

numpy only builds the stored Trajectory arrays, once after the loop, and
re-runs on float64 scalars a step whose float arithmetic overflowed or
divided by zero, so such a step ends in inf as IEEE arithmetic has it; the
march on Python floats resumes after it.
check_bounds and flux_balance_defect stay vectorised over the stored
arrays; flux_balance_defect evaluates the reaction with numpy, so it checks
the stepper independently.  numpy is imported inside these three
functions, not at module level, so importing the package (and every CLI
subcommand except simulate) does not load it.
"""

from __future__ import annotations

from math import isfinite
from typing import TYPE_CHECKING, Callable, Sequence

from .bounds import BoundsResult
from .model import SystemSpec, record, require_finite, require_vectors

if TYPE_CHECKING:
    import numpy as np

POSITIVITY_FLOOR = 1e-8
MAX_STEPS = 10 ** 6


def rk4_march(spec: SystemSpec, floor: float) -> Callable:
    """kernels.rk4_march(spec, floor), loading kernels on first use: integrate
    takes its step loop through this name, and among the subcommands only
    simulate integrates."""
    from . import kernels
    return kernels.rk4_march(spec, floor)


@record
class Trajectory:
    """Stored integration output on a fixed grid.

    xs, u, w are the grid and states; p and q are the weighted totals
    sum alpha_i u_i and sum alpha_i d_i u_i^m for the alpha the trajectory
    was integrated with.  truncation_reason names an early stop at the
    positivity floor or at the first non-finite state, and truncated whether
    there is one; clamped marks a stored component lifted from below 0.
    """

    xs: np.ndarray
    u: np.ndarray
    w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    alpha: tuple
    truncation_reason: str | None
    clamped: bool

    @property
    def n(self) -> int:
        return self.u.shape[1]

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None


def integrate(spec: SystemSpec, u0: Sequence[float], w0: Sequence[float],
              x_span: tuple, step: float,
              alpha: Sequence[float] | None = None) -> Trajectory:
    """Integrate the first-order reduction over x_span with fixed-step RK4.

    Args:
        spec: system to integrate.
        u0: strictly positive initial state.
        w0: initial flux state w_i = (u_i^m)'(x0) (= u_i'(x0) when m = 1).
        x_span: (x0, x1) with x1 > x0; a final short step lands exactly on x1
            when the span is not an integer multiple of step.
        step: positive grid spacing; x_span and step must be finite and give
            at most MAX_STEPS steps.
        alpha: weights for the stored p and q columns (default all ones).

    Returns a Trajectory, truncated early if any species reaches the
    positivity floor while m > 1, or stopped at the first state with a NaN
    or infinite component, which is not stored.
    """
    import numpy as np

    n = spec.n
    require_vectors(n, u0=u0)
    if len(w0) != n:
        raise ValueError(f"w0 needs {n} entries, got {len(w0)}")
    require_finite(w0=w0)
    if step <= 0:
        raise ValueError("step must be positive")
    x0, x1 = float(x_span[0]), float(x_span[1])
    if not all(isfinite(v) for v in (x0, x1, step)):
        raise ValueError(f"step {step!r} over x_span ({x0!r}, {x1!r}) gives no "
                         "finite step count; both must be finite")
    if not x1 > x0:
        raise ValueError("x_span must satisfy x1 > x0")
    span = x1 - x0
    full = span / step + 1e-9
    # Capped before int() and before any allocation: a tiny step overflows.
    n_full = int(min(full, MAX_STEPS + 1))
    remainder = span - n_full * step
    n_steps = n_full + (remainder > step * 1e-9)
    if n_steps > MAX_STEPS:
        raise ValueError(f"integration would take {max(full, n_steps):.7g} steps, "
                         f"more than the limit of {MAX_STEPS}")
    if alpha is None:
        alpha = (1.0,) * n
    elif len(alpha) != n:
        raise ValueError("alpha length must match the system")
    require_finite(alpha=alpha)
    alpha_vec = np.asarray(alpha, dtype=float)

    march = rk4_march(spec, POSITIVITY_FLOOR)
    xs = [x0]
    ys = [(*map(float, u0), *map(float, w0))]
    finished = True
    while finished and len(xs) <= n_steps:
        done = len(xs) - 1
        h, count = (step, n_full - done) if done < n_full else (remainder, 1)
        try:
            finished = march(ys[-1], xs[-1], h, count, xs, ys)
        except ArithmeticError:
            # Python floats raise on overflow and on division by zero, where
            # the step may still end finite (w / inf is 0).  float64 scalars
            # give IEEE inf there, so that step alone is re-run on them.
            with np.errstate(all="ignore"):
                finished = march(tuple(map(np.float64, ys[-1])), xs[-1], h, 1, xs, ys)
            if finished:
                ys[-1] = tuple(map(float, ys[-1]))
        except TypeError:
            # A complex: a negative base to a fractional power, NaN in IEEE.
            finished = False
    if finished is None:
        reason = (f"positivity floor {POSITIVITY_FLOOR:g} reached "
                  f"near x = {xs[-1] + h:.6g}")
    else:
        reason = None if finished else f"non-finite state at x = {xs[-1] + h:.6g}"

    y_arr = np.array(ys)
    u_arr, w_arr = y_arr[:, :n], y_arr[:, n:]
    clamped = bool(np.any(u_arr < 0.0))
    if clamped:
        u_arr = np.maximum(u_arr, 0.0)
    # u^m past the float range is inf in the stored q column, as IEEE has it.
    with np.errstate(all="ignore"):
        p_arr = u_arr @ alpha_vec
        q_arr = (u_arr ** spec.m) @ (alpha_vec * np.array(spec.d, dtype=float))
    return Trajectory(xs=np.array(xs), u=u_arr, w=w_arr, p=p_arr, q=q_arr,
                      alpha=tuple(alpha), truncation_reason=reason, clamped=clamped)


@record
class BoundCheckReport:
    """Extrema of the weighted total and any excursions past the bounds."""

    min_p: float
    max_p: float
    violations: tuple  # (x, p) pairs outside [lower, upper]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_bounds(traj: Trajectory, alpha: Sequence[float],
                 bounds: BoundsResult) -> BoundCheckReport:
    """Scan p(x) = sum alpha_i u_i over the stored grid against the bounds."""
    import numpy as np

    if len(alpha) != traj.n:
        raise ValueError("alpha length must match the trajectory")
    require_finite(alpha=alpha)
    p = traj.u @ np.asarray(alpha, dtype=float)
    outside = (p < bounds.lower) | (p > bounds.upper)
    violations = tuple((float(x), float(pv)) for x, pv in
                       zip(traj.xs[outside], p[outside]))
    return BoundCheckReport(min_p=float(p.min()), max_p=float(p.max()),
                            violations=violations)


def flux_balance_defect(spec: SystemSpec, traj: Trajectory,
                        alpha: Sequence[float]) -> float:
    """Integrated identity defect along the stored trajectory.

    Summing the wave equations with weights alpha and integrating once gives
    q'(x1) - q'(x0) + theta (p(x1) - p(x0)) + int F dx = 0 with
    q' = sum alpha_i d_i w_i and F = sum alpha_i u_i^{l_i} f_i(u).  Returns
    the left side evaluated with trapezoidal quadrature on the stored grid;
    small means the stored states are consistent with the system.
    """
    import numpy as np

    if len(alpha) != traj.n:
        raise ValueError("alpha length must match the trajectory")
    require_finite(alpha=alpha)
    alpha_vec = np.asarray(alpha, dtype=float)
    d_vec = np.asarray(spec.d, dtype=float)
    l_vec = np.asarray(spec.l, dtype=float)
    sigma_vec = np.asarray(spec.reaction.sigma, dtype=float)
    C_mat = np.asarray(spec.reaction.C, dtype=float)

    qprime = traj.w @ (alpha_vec * d_vec)
    p = traj.u @ alpha_vec
    f = sigma_vec - traj.u @ C_mat.T
    F = (traj.u ** l_vec * f) @ alpha_vec
    dx = np.diff(traj.xs)
    integral = float(np.sum(0.5 * dx * (F[1:] + F[:-1])))
    return float(qprime[-1] - qprime[0] + spec.theta * (p[-1] - p[0]) + integral)
