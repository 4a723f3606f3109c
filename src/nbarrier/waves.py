"""Trajectory integration and empirical bound checking for wave profiles.

The second-order wave system is reduced to first order in the flux variable
w_i = (u_i^m)'.  For m > 1 the back-map u_i' = w_i / (m u_i^{m-1}) is
singular at u_i = 0, so integration stops at a small positivity floor rather
than stepping into the degenerate set.  Stepping is classical fixed-step
RK4 on Python floats; outputs are bit-reproducible for identical inputs.

The step loop is the compiled kernel kernels.rk4_march, called once for
the full steps and once for a final partial step; each call returns how it
stopped, which names the truncation.  integrate_rows runs the input checks
and that march on Python floats, and returns one state tuple
y = (u.., w..) per grid point; integrate packs those tuples into one array
in a single np.fromiter pass over their chained components, and splits it
once into its column halves, Trajectory.u and .w; the grid takes one
np.fromiter pass too.

integrate_rows loads numpy only to re-run on float64 scalars a step whose
float arithmetic overflowed or divided by zero, so such a step ends in inf
as IEEE arithmetic has it; the march on Python floats resumes after it.
summarise_rows computes integrate's stored columns and check_bounds's
report from those rows in plain Python, so the simulate subcommand, which
takes these two routes, loads numpy only for such a re-run.  integrate
builds its Trajectory arrays with numpy once after the loop; check_bounds
and flux_balance_defect stay vectorised over the stored arrays, and
flux_balance_defect evaluates the reaction with numpy, so it checks the
stepper independently.  numpy is imported inside functions, not at module
level, so importing the package does not load it.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import inf, isfinite, isnan, nan
from operator import add, mul
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


def integrate_rows(spec: SystemSpec, u0: Sequence[float], w0: Sequence[float],
                   x_span: tuple, step: float,
                   alpha: Sequence[float] | None = None) -> tuple:
    """The RK4 march of integrate, with its input checks, on Python floats.

    Returns (xs, ys, alpha, reason): the grid, one state tuple
    (u_0.., w_0..) per grid point, unclamped, the checked alpha as a tuple
    (all ones by default) and the truncation reason, None for a full span.
    numpy is loaded only to re-run a step whose float arithmetic raised.
    """
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
            import numpy as np
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
    return xs, ys, tuple(alpha), reason


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

    xs, ys, alpha, reason = integrate_rows(spec, u0, w0, x_span, step, alpha)
    n = spec.n
    alpha_vec = np.asarray(alpha, dtype=float)
    rows, width = len(ys), 2 * n
    y_arr = np.fromiter(chain.from_iterable(ys), float, rows * width).reshape(rows, width)
    u_arr, w_arr = y_arr[:, :n], y_arr[:, n:]
    clamped = bool(np.any(u_arr < 0.0))
    if clamped:
        u_arr = np.maximum(u_arr, 0.0)
    # u^m past the float range is inf in the stored q column, as IEEE has it.
    with np.errstate(all="ignore"):
        p_arr = u_arr @ alpha_vec
        q_arr = (u_arr ** spec.m) @ (alpha_vec * np.array(spec.d, dtype=float))
    return Trajectory(xs=np.fromiter(xs, float, rows), u=u_arr, w=w_arr, p=p_arr, q=q_arr,
                      alpha=alpha, truncation_reason=reason, clamped=clamped)


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


def _weighted_sum(weights: Sequence[float], columns: list) -> list:
    """sum_i weights_i columns_i per row of the columns (iterables), the
    terms added in order."""
    total = repeat(0.0)
    for weight, column in zip(weights, columns):
        total = map(add, total, map(mul, repeat(weight), column))
    return list(total)


def _power(v: float, m: float) -> float:
    """v ** m for v >= 0, inf past the float range as IEEE has it."""
    try:
        return v ** m
    except OverflowError:
        return inf


def summarise_rows(spec: SystemSpec, xs: Sequence[float], ys: Sequence[tuple],
                   alpha: tuple, bounds: BoundsResult | None = None) -> tuple:
    """The columns integrate stores and check_bounds's report on them, from
    the grid, rows and alpha of integrate_rows, in plain Python.

    Returns (rows, clamped, report).  rows() iterates over one
    (x, u.., w.., p, q) tuple per grid point: u is lifted to 0.0 in every
    row if some stored component is below 0 (then clamped is True),
    p = sum alpha_i u_i and q = sum alpha_i d_i u_i^m, a u^m past the float
    range being inf as in integrate's q; q is computed on each call, so a
    caller that writes no table pays nothing for it.  p and q add their
    terms in order, so they may differ in the last bits from integrate's,
    which numpy's @ adds.  report is check_bounds's BoundCheckReport of p
    against bounds (no violations when bounds is None); a NaN p makes min_p
    and max_p NaN, as numpy's min and max have it.
    """
    n = spec.n
    columns = list(zip(*ys))
    us, ws = columns[:n], columns[n:]
    clamped = min(map(min, us)) < 0.0
    if clamped:
        us = [[max(v, 0.0) for v in u] for u in us]
    p = _weighted_sum(alpha, us)
    if any(map(isnan, p)):
        min_p = max_p = nan
    else:
        min_p, max_p = min(p), max(p)
    violations = () if bounds is None else tuple(
        (x, v) for x, v in zip(xs, p) if v < bounds.lower or v > bounds.upper)

    def rows():
        q = _weighted_sum([a * float(d) for a, d in zip(alpha, spec.d)],
                          [map(_power, u, repeat(spec.m)) for u in us])
        return zip(xs, *us, *ws, p, q)

    return rows, clamped, BoundCheckReport(min_p=min_p, max_p=max_p, violations=violations)


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
