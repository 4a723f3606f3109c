"""Compiled wave kernels: the one module that writes, compiles and binds them.

The wave equation d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u) = 0 is
evaluated by two kernels, the grid loop of exact.residual (residual_maxima)
and one RK4 step of waves.integrate (rk4_stepper).  Each is straight-line
Python source over scalars, written per species count n and per m == 1 or
not, compiled once and cached.  One header unpacks the coefficients and the
constants derived from m, and one binder passes them from the spec and picks
the variant from spec.m, so one kernel serves every spec with n species.

Every row of C in a reaction term u_i^{l_i} (sigma_i - sum_j c_ij u_j) is
added over the products reaction_eval adds, in its order, and rounds as its
builtin sum does on any interpreter.  A row of one or two products is the
+ chain (0.0 + c_i0 u_0 + c_i1 u_1); a row of three up to UNROLL_LIMIT is
sum((c_i0 u_0, ...)); a longer row is sum(map(mul, C_i, U)).  The chain is
exact for one or two addends: plain sum (Python 3.11 and earlier) is that
chain, 0.0 being its start, and the compensated sum of Python 3.12 on adds
the first addend a to 0.0 exactly and keeps for the second, b, the exact
rounding error of fl(a + b), which added back rounds to fl(a + b) again (a
non-finite one it drops).  From three addends on the two can round
differently, so those rows stay with sum.  The
residual takes (u_i^m)'' by the chain rule of Profile.at, and the RK4 step
performs the operations of the list stepper it replaced, in the same order,
so both give the floats of those routes bit for bit.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .model import SystemSpec

# Rows of C are added over written-out products up to this many species (as
# a + chain for one or two, by sum over a tuple display for three on), and
# with sum(map(mul, ...)) over one state tuple beyond it.  The written-out row
# is the faster one at every n measured (2 to 24: an RK4 step 10-35% faster),
# but it makes the source O(n^2) long and its compile time grows with it (an
# RK4 kernel at n = 24: 16-18 ms, against 6-7 ms), so above 8 species the
# source is kept O(n); at n = 8 the written-out rows cost about 1 ms more.
UNROLL_LIMIT = 8

_KERNELS: dict = {}


def _tuple(fmt: str, n: int) -> str:
    """fmt.format(i) for i < n as a tuple display, with its trailing comma."""
    return "".join(fmt.format(i) + ", " for i in range(n))


def _kernel(head: str, n: int, linear: bool, body: list) -> str:
    """Source of def kernel(<head>, m, theta, d, l, s, C) running body, with
    d, l, s and C unpacked into scalars (rows C{i} beyond UNROLL_LIMIT), and
    ntheta = -theta and, unless linear, m1, m2 = m - 1, m - 2, mm = m m1."""
    if n <= UNROLL_LIMIT:
        rows = "".join(f"({_tuple(f'c{i}_{{}}', n)}), " for i in range(n))
    else:
        rows = _tuple("C{}", n)
    return "\n".join([
        f"def kernel({head}, m, theta, d, l, s, C):",
        f"    {_tuple('d{}', n)}= d",
        f"    {_tuple('l{}', n)}= l",
        f"    {_tuple('s{}', n)}= s",
        f"    {rows}= C",
        "    ntheta = -theta",
        *([] if linear else ["    m1, m2, mm = m - 1.0, m - 2.0, m * (m - 1.0)"]),
        *("    " + line for line in body),
        ""])


def _reaction_terms(n: int) -> list:
    """Lines that read a state u0..u{n-1} and bind the reaction terms t0..;
    row i of C is (0.0 + c{i}_0 * u0 + c{i}_1 * u1) for n <= 2, which rounds
    as sum does with one or two addends under plain and compensated sum
    alike, sum((c{i}_0 * u0, ...)) up to UNROLL_LIMIT species, and
    sum(map(mul, C{i}, U)) beyond."""
    lines = []
    if n <= 2:
        sums = ["(0.0" + "".join(f" + c{i}_{j} * u{j}" for j in range(n)) + ")"
                for i in range(n)]
    elif n <= UNROLL_LIMIT:
        sums = [f"sum(({_tuple(f'c{i}_{{0}} * u{{0}}', n)}))" for i in range(n)]
    else:
        sums = [f"sum(map(mul, C{i}, U))" for i in range(n)]
        lines = [f"U = ({_tuple('u{}', n)})"]
    return lines + [f"t{i} = u{i} ** l{i} * (s{i} - {sums[i]})" for i in range(n)]


def _rk4_source(n: int, linear: bool) -> str:
    """Source of the RK4 kernel for n species; linear means m == 1.

    kernel(FloorHit, floor, ...) returns step(y, h), one RK4 step of the
    state y = (u_0.., w_0..).  Stage s writes its state to scalars u_i, w_i
    and binds its derivatives ks_0..ks_{2n-1}: unless linear it raises
    FloorHit if some u_i is below the floor and takes
    u_i' = w_i / (m u_i^(m-1)) (u_i' = w_i when linear) for every species,
    then every reaction term, then w_i' = (-theta u_i' - t_i) / d_i.
    """
    terms = _reaction_terms(n)

    def below(name):
        return " or ".join(f"{name}{i} < floor" for i in range(n))

    rng2 = range(2 * n)
    step = [f"{_tuple('y{}', 2 * n)}= {_tuple('u{}', n)}{_tuple('w{}', n)}= y",
            "half = 0.5 * h"]
    for stage, coef in enumerate((None, "half", "half", "h"), 1):
        if coef:
            step += [f"{'u' if j < n else 'w'}{j % n} = y{j} + {coef} * k{stage - 1}_{j}"
                     for j in rng2]
        if linear:
            step += [f"k{stage}_{i} = w{i}" for i in range(n)]
        else:
            step += [f"if {below('u')}:", "    raise FloorHit"]
            step += [f"k{stage}_{i} = w{i} / (m * u{i} ** m1)" for i in range(n)]
        step += terms
        step += [f"k{stage}_{n + i} = (ntheta * k{stage}_{i} - t{i}) / d{i}"
                 for i in range(n)]
    step.append("sixth = h / 6.0")
    step += [f"z{j} = y{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
             for j in rng2]
    if not linear:
        step += [f"if {below('z')}:", "    raise FloorHit"]
    step.append(f"return ({_tuple('z{}', 2 * n)})")
    body = ["def step(y, h):", *("    " + line for line in step), "return step"]
    return _kernel("FloorHit, floor", n, linear, body)


def _residual_source(n: int, linear: bool) -> str:
    """Source of the residual kernel for n species; linear means m == 1.

    kernel(derivs, grid, ...) unpacks derivs(x) into u_i, u_i', u_i'' per
    grid point, binds every reaction term, and then per species takes
    (u_i^m)'' by Profile.at's chain rule (grad first, then the u^(m-2)
    term), the residual d_i (u_i^m)'' + theta u_i' + t_i and its running
    maximum, which a NaN residual replaces and keeps.
    """
    point = [f"{_tuple('(u{0}, du{0}, ddu{0})', n)}= derivs(x)", *_reaction_terms(n)]
    for i in range(n):
        if linear:
            ddum = f"ddu{i}"
        else:
            point.append(f"g{i} = m * u{i} ** m1")
            ddum = f"(mm * u{i} ** m2 * du{i} * du{i} + g{i} * ddu{i})"
        point += [f"r{i} = abs(d{i} * {ddum} + theta * du{i} + t{i})",
                  f"if r{i} > w{i} or r{i} != r{i}:",
                  f"    w{i} = r{i}"]
    body = [f"{_tuple('w{}', n)}= {'0.0, ' * n}", "for x in grid:",
            *("    " + line for line in point), f"return ({_tuple('w{}', n)})"]
    return _kernel("derivs, grid", n, linear, body)


def _bind(kind: str, write: Callable[[int, bool], str], spec: SystemSpec, *head):
    """kernel(*head, m, theta, d, l, s, C) with every coefficient from spec,
    the kernel written by write(n, spec.m == 1) and compiled once per
    (kind, n, variant)."""
    n, linear = spec.n, spec.m == 1
    kernel = _KERNELS.get((kind, n, linear))
    if kernel is None:
        namespace = {"mul": mul}
        exec(compile(write(n, linear), f"<{kind} kernel, n = {n}>", "exec"), namespace)
        kernel = _KERNELS[kind, n, linear] = namespace["kernel"]
    reaction = spec.reaction
    return kernel(*head, float(spec.m), float(spec.theta), tuple(map(float, spec.d)),
                  tuple(map(float, spec.l)), tuple(map(float, reaction.sigma)),
                  tuple(tuple(map(float, row)) for row in reaction.C))


def rk4_stepper(spec: SystemSpec, floor_hit: type, floor: float) -> Callable:
    """The RK4 step (y, h) -> y' of spec over y = (u_0.., w_0..).

    When spec.m > 1 the step raises floor_hit as soon as a stage state or
    the stepped state has some u_i below floor.
    """
    return _bind("rk4", _rk4_source, spec, floor_hit, floor)


def residual_maxima(spec: SystemSpec, derivs: Callable[[float], tuple],
                    grid: Sequence[float]) -> tuple:
    """Max |d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u)| per species over
    grid, from the (u_i, u_i', u_i'') tuples of derivs(x) and spec's own m;
    a species with a NaN residual at any point reports NaN."""
    return _bind("residual", _residual_source, spec, derivs, grid)
