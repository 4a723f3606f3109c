"""Trajectory integration and empirical bound checking for wave profiles.

The second-order wave system is reduced to first order in the flux variable
w_i = (u_i^m)'.  For m > 1 the back-map u_i' = w_i / (m u_i^{m-1}) is
singular at u_i = 0, so integration stops at a small positivity floor rather
than stepping into the degenerate set.  Stepping is classical fixed-step
RK4 on Python floats, with the reaction terms from model.wave_terms;
outputs are bit-reproducible for identical inputs.  The state is one list
y = u + w of 2n floats: each RK4 stage and the final combine is one pass
over it, the loop stores one y per grid point, and the stored history is
one array split once into its column halves, Trajectory.u and .w.

numpy only builds the stored Trajectory arrays, once after the loop, and
re-runs on float64 scalars a step whose float arithmetic overflowed or
divided by zero, so such a step ends in inf as IEEE arithmetic has it.
check_bounds and flux_balance_defect stay vectorised over the stored
arrays.  numpy is imported inside these three functions, not at module
level, so importing the package (and every CLI subcommand except simulate)
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Sequence

from .bounds import BoundsResult
from .model import SystemSpec, wave_terms

if TYPE_CHECKING:
    import numpy as np

POSITIVITY_FLOOR = 1e-8
MAX_STEPS = 10 ** 6


class _FloorHit(Exception):
    """Internal: a stage state fell below the positivity floor."""


@dataclass(frozen=True)
class Trajectory:
    """Stored integration output on a fixed grid.

    xs, u, w are the grid and states; p and q are the weighted totals
    sum alpha_i u_i and sum alpha_i d_i u_i^m for the alpha the trajectory
    was integrated with.  truncated marks an early stop at the positivity
    floor or at the first non-finite state; clamped marks any stored
    component lifted from below zero.
    """

    xs: np.ndarray
    u: np.ndarray
    w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    alpha: tuple
    truncated: bool
    truncation_reason: str | None
    clamped: bool

    @property
    def n(self) -> int:
        return self.u.shape[1]


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
    if len(u0) != n or len(w0) != n:
        raise ValueError("initial data dimensions must match the system")
    if not all(isfinite(v) for v in (*u0, *w0)):
        raise ValueError("initial data must be finite")
    if any(ui <= 0 for ui in u0):
        raise ValueError("initial state must be strictly positive")
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
    alpha_vec = np.asarray(alpha, dtype=float)

    m = spec.m
    theta = float(spec.theta)
    d = tuple(map(float, spec.d))
    terms = wave_terms(spec)
    degenerate = m > 1

    def rhs(y):
        u, w = y[:n], y[n:]
        if degenerate:
            if any(ui < POSITIVITY_FLOOR for ui in u):
                raise _FloorHit
            du = [wi / (m * ui ** (m - 1.0)) for wi, ui in zip(w, u)]
        else:
            du = w
        return du + [(-theta * dui - term) / di for dui, term, di in zip(du, terms(u), d)]

    def rk4_step(y, h):
        half = 0.5 * h
        k1 = rhs(y)
        k2 = rhs([a + half * k for a, k in zip(y, k1)])
        k3 = rhs([a + half * k for a, k in zip(y, k2)])
        k4 = rhs([a + h * k for a, k in zip(y, k3)])
        sixth = h / 6.0
        y_next = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if degenerate and any(ui < POSITIVITY_FLOOR for ui in y_next[:n]):
            raise _FloorHit
        return y_next

    xs = [x0]
    ys = [[*map(float, u0), *map(float, w0)]]
    reason = None
    x = x0
    for k in range(n_steps):
        h = step if k < n_full else remainder
        try:
            try:
                y = rk4_step(ys[-1], h)
            except ArithmeticError:
                # Python floats raise on overflow and on division by zero, where
                # the step may still end finite (w / inf is 0).  float64 scalars
                # give IEEE inf there, so the step is re-run on them.
                with np.errstate(all="ignore"):
                    y = list(map(float, rk4_step(list(map(np.float64, ys[-1])), h)))
        except _FloorHit:
            reason = (f"positivity floor {POSITIVITY_FLOOR:g} reached "
                      f"near x = {x + h:.6g}")
            break
        x += h
        try:
            finite = all(map(isfinite, y))
        except TypeError:
            # A complex: a negative base to a fractional power, NaN in IEEE.
            finite = False
        if not finite:
            reason = f"non-finite state at x = {x:.6g}"
            break
        xs.append(x)
        ys.append(y)

    y_arr = np.array(ys)
    u_arr, w_arr = y_arr[:, :n], y_arr[:, n:]
    clamped = bool(np.any(u_arr < 0.0))
    if clamped:
        u_arr = np.maximum(u_arr, 0.0)
    # u^m past the float range is inf in the stored q column, as IEEE has it.
    with np.errstate(all="ignore"):
        p_arr = u_arr @ alpha_vec
        q_arr = (u_arr ** m) @ (alpha_vec * np.array(d))
    return Trajectory(xs=np.array(xs), u=u_arr, w=w_arr, p=p_arr, q=q_arr,
                      alpha=tuple(alpha), truncated=reason is not None,
                      truncation_reason=reason, clamped=clamped)


@dataclass(frozen=True)
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
