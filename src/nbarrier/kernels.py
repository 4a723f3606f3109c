"""Compiled wave kernels: the one module that writes, compiles and binds them.

The wave equation d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u) = 0 is
evaluated by two kernels, the grid loop of exact.residual (residual_maxima)
and the RK4 step loop of waves.integrate (rk4_march).  Each is straight-line
Python source over scalars, written per species count n and exponent
class, and compiled once per distinct source.  One header unpacks the
coefficients and the constants derived from m, and one binder passes them
from the spec and picks the source, so one kernel serves every spec with n
species whose exponents write the same source.

The residual kernel inlines the family's closed form: a ClosedForm is the
statements that bind u_i, u_i' and u_i'' at x from named member constants.
The class lives in exact.py, next to the families that write one, and this
module re-exports it; the grid loop runs the statements in place of a call.
The constants are an argument of the kernel, so every member of a family
shares one kernel per exponent-class pattern, and the same statements,
compiled on first use by compile_at, are the family's derivs(x).
Profile.of makes a bare callable a profile with call_form(n), which calls it
and names a bad return.

No module imports this one at load: ClosedForm.at, Profile.of,
exact.residual and waves.rk4_march import it in their bodies, so importing
the package, and every subcommand but residual and simulate, never loads it.

The exponents are m - 1, m - 2 and each l_i, and each has one of four
classes: 0.0, 1.0, another integer, or a fraction.  A power to 1.0 is
written as its base, and a factor that is a power to 0.0 is left out.
Both rewrites are exact for every float base, inf, NaN, -0.0 and negative
ones included: CPython returns 1.0 for any u ** 0.0, and glibc's pow, under
1 ulp, returns u itself for u ** 1.0.  So at m = 2 and l_i = 1 (every tanh
and cosine family member) those powers take no pow call, and m - 1 of class
0.0 (m = 1, linear diffusion) gives u_i' = w_i and (u_i^m)'' = u_i''.  A
negative base to a fraction is a complex; the residual reports NaN for such
a species, and only sources with a fractional exponent carry that guard,
since a negative base to an integer is real.  Classes that a writer does not
tell apart (RK4 reads no m - 2 and writes an integer power as a fraction)
share one compile, but a new source pays one: at large n, where a source
runs to megabytes (3.6 MB and 2.1 s to compile at n = 3000), every new
pattern of l pays that compile again.

A row of C in a reaction term u_i^{l_i} (sigma_i - sum_j c_ij u_j) of up
to UNROLL_LIMIT products is the + chain (c_i0 u_0 + c_i1 u_1 + ...), added
left to right from its first product; reaction_eval adds the same products
in the same order, so both round alike on every interpreter.  A longer row
is sum(map(mul, C_i, U)), the interpreter's builtin sum: plain + from 0 on
Python 3.11 and earlier, compensated from 3.12 on.  So n > UNROLL_LIMIT is
the one case whose last bits depend on the interpreter.  On 3.12 and later
the shorter rows give up the compensated sum's last-bit accuracy, orders of
magnitude below the CLI's residual tolerance (cli.RESIDUAL_TOL, 1e-8) and
the RK4 truncation error.

The residual takes (u_i^m)'' by the chain rule of Profile.at and keeps, per
species, the largest and the smallest signed residual, whose larger
magnitude is the largest absolute one; each RK4 step performs the
operations of the list stepper it replaced, in the same order, so both give
the floats of those routes bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .exact import ClosedForm  # re-exported

if TYPE_CHECKING:
    from .model import SystemSpec

# Rows of C are added as a + chain of written-out products up to this many
# species, and with sum(map(mul, ...)) over one state tuple beyond it.  The
# chain is the faster one at every n measured (2 to 24: an RK4 step 10-35%
# faster), but it makes the source O(n^2) long and its compile time grows with
# it (an RK4 kernel at n = 24: 16-18 ms, against 6-7 ms), so above 8 species
# the source is kept O(n); at n = 8 the written-out rows cost about 1 ms more.
UNROLL_LIMIT = 8

_KERNELS: dict = {}


def _refuse_states(states, n: int):
    """Raise a ValueError naming how states, a profile callable's return, is not n (u, u', u'')."""
    if not hasattr(states, "__len__"):
        raise ValueError(f"profile derivs returned a {type(states).__name__}, not {n} species")
    if len(states) != n:
        raise ValueError(f"profile derivs returned {len(states)} species, expected {n}")
    i, state = next((i, s) for i, s in enumerate(states, 1)
                    if not hasattr(s, "__len__") or len(s) != 3)
    raise ValueError(f"profile derivs returned {state!r} for species {i}, expected (u, u', u'')")


# What compiled source reads besides its own names: mul, math's functions
# and constants (inf, nan, tanh, cos, ...) and call_form's refusal.
_GLOBALS = {"mul": mul, "cf_refuse_states": _refuse_states,
            **{k: v for k, v in vars(math).items() if not k.startswith("_")}}

# Every name of a closed form but x, u_i, du_i and ddu_i starts with this,
# and no kernel name does.
FORM_PREFIX = "cf_"


def _compile(source: str, label: str) -> Callable:
    """The function named kernel that source defines, compiled once per
    distinct source."""
    kernel = _KERNELS.get(source)
    if kernel is None:
        namespace = dict(_GLOBALS)
        exec(compile(source, f"<{label}>", "exec"), namespace)
        kernel = _KERNELS[source] = namespace["kernel"]
    return kernel


def compile_at(form: ClosedForm) -> Callable:
    """form.at: at(constants, x), one (u_i, u_i', u_i'') tuple per species at
    x for the member whose values of form.names are constants."""
    return _compile("\n".join([
        "def kernel(constants, x):",
        f"    {_unpack(form)}",
        *("    " + line for line in form.source.splitlines()),
        f"    return ({_tuple('(u{0}, du{0}, ddu{0})', form.n)})",
        ""]), f"derivs, n = {form.n}")


def _unpack(form: ClosedForm) -> str:
    """The statement that unpacks the argument constants into form's names."""
    return "".join(name + ", " for name in form.names) + "= constants"


@lru_cache(maxsize=None)
def call_form(n: int) -> ClosedForm:
    """The closed form of a profile given as a bare callable, the one constant:
    call cf_derivs(x) and unpack its n states, or name how they are not."""
    return ClosedForm(n, ("cf_derivs",), f"""cf_states = cf_derivs(x)
try:
    {_tuple('(u{0}, du{0}, ddu{0})', n)}= cf_states
except (TypeError, ValueError):
    cf_refuse_states(cf_states, {n})""")


def _exponent_class(e: float) -> str:
    """The class of an exponent: "0" and "1" for 0.0 and 1.0, which fold,
    "int" for another integer and "frac" for the rest."""
    return "0" if e == 0.0 else "1" if e == 1.0 else "int" if e.is_integer() else "frac"


def _power(base: str, exponent: str, cls: str) -> str | None:
    """base ** exponent as its class writes it: the base alone for 1.0, None
    (a factor left out) for 0.0."""
    return None if cls == "0" else base if cls == "1" else f"{base} ** {exponent}"


def _product(*factors) -> str:
    """The factors that are not None, joined by *."""
    return " * ".join(f for f in factors if f is not None)


def _tuple(fmt: str, n: int) -> str:
    """fmt.format(i) for i < n as a tuple display, with its trailing comma."""
    return "".join(fmt.format(i) + ", " for i in range(n))


def _kernel(head: str, n: int, body: list) -> str:
    """Source of def kernel(<head>, m, theta, d, l, s, C) running body, with
    d, l, s and C unpacked into scalars (rows C{i} beyond UNROLL_LIMIT), and
    ntheta = -theta, m1, m2 = m - 1, m - 2 and mm = m m1."""
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
        "    m1, m2, mm = m - 1.0, m - 2.0, m * (m - 1.0)",
        *("    " + line for line in body),
        ""])


def _reaction_terms(n: int, l_classes: list) -> list:
    """Lines that read a state u0..u{n-1} and bind the reaction terms t0..,
    u{i} ** l{i} folded by its class; row i of C is the + chain
    (c{i}_0 * u0 + c{i}_1 * u1 + ...) up to UNROLL_LIMIT species and
    sum(map(mul, C{i}, U)) beyond."""
    lines = []
    if n <= UNROLL_LIMIT:
        sums = ["(" + " + ".join(f"c{i}_{j} * u{j}" for j in range(n)) + ")" for i in range(n)]
    else:
        sums = [f"sum(map(mul, C{i}, U))" for i in range(n)]
        lines = [f"U = ({_tuple('u{}', n)})"]
    return lines + [f"t{i} = " + _product(_power(f"u{i}", f"l{i}", cls), f"(s{i} - {sums[i]})")
                    for i, cls in enumerate(l_classes)]


@lru_cache(maxsize=None)
def _rk4_source(n: int, classes: tuple) -> str:
    """Source of the RK4 kernel for n species, classes being the exponent
    classes of _bind.

    kernel(floor, ...) returns march(y, x, h, count, xs, ys), which takes
    up to count RK4 steps of size h from the state y = (u_0.., w_0..) at x,
    appends each finite state to ys and its x to xs, and returns how it
    stopped: True after count steps, False at a state with a NaN or infinite
    component and None at a state below the floor, neither of them stored.
    A complex state raises TypeError; the steps taken before stay stored.

    Stage s writes its state to scalars u_i, w_i and binds its derivatives
    ks_0..ks_{2n-1}: unless m - 1 is of class 0.0 it returns None if some
    u_i is below the floor, as the stepped state does, and takes
    u_i' = w_i / (m u_i^(m-1)) (else u_i' = w_i) for every species, then
    every reaction term, then w_i' = (-theta u_i' - t_i) / d_i.
    """
    m1, _, *l_classes = classes
    terms = _reaction_terms(n, l_classes)
    floor_exit = [f"if {' or '.join(f'u{i} < floor' for i in range(n))}:", "    return None"]

    rng2 = range(2 * n)
    step = []
    for stage, coef in enumerate((None, "half", "half", "h"), 1):
        if coef:
            step += [f"{'u' if j < n else 'w'}{j % n} = y{j} + {coef} * k{stage - 1}_{j}"
                     for j in rng2]
        if m1 == "0":
            step += [f"k{stage}_{i} = w{i}" for i in range(n)]
        else:
            step += floor_exit
            step += [f"k{stage}_{i} = w{i} / ({_product('m', _power(f'u{i}', 'm1', m1))})"
                     for i in range(n)]
        step += terms
        step += [f"k{stage}_{n + i} = (ntheta * k{stage}_{i} - t{i}) / d{i}"
                 for i in range(n)]
    # The stepped state is the next step's first stage state.
    step += [f"{'u' if j < n else 'w'}{j % n} = y{j} = "
             f"y{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
             for j in rng2]
    if m1 != "0":
        step += floor_exit
    # A complex component raises TypeError at its comparison.
    step += ["x = x + h",
             "if not (" + " and ".join(f"ninf < y{j} < inf" for j in rng2) + "):",
             "    return False",
             "add_x(x)",
             f"add_y(({_tuple('y{}', 2 * n)}))"]
    body = ["ninf = -inf",
            "def march(y, x, h, count, xs, ys):",
            f"    {_tuple('y{}', 2 * n)}= {_tuple('u{}', n)}{_tuple('w{}', n)}= y",
            "    half = 0.5 * h",
            "    sixth = h / 6.0",
            "    add_x, add_y = xs.append, ys.append",
            "    for _ in range(count):",
            *("        " + line for line in step),
            "    return True",
            "return march"]
    return _kernel("floor", n, body)


@lru_cache(maxsize=None)
def _residual_source(form: ClosedForm, classes: tuple) -> str:
    """Source of the residual kernel for form's n species, classes being
    the exponent classes of _bind.

    kernel(constants, grid, ...) unpacks constants into form's names and
    per grid point runs form's statements, binds every reaction term, and
    then per species takes (u_i^m)'' by Profile.at's chain rule (grad
    first, then the u^(m-2) term) and the residual
    r_i = d_i (u_i^m)'' + theta u_i' + t_i.  It keeps the signed running
    maximum hi_i and minimum lo_i of r_i, both from 0.0, and returns
    hi_i if hi_i >= -lo_i else abs(lo_i), which is max |r_i| with no abs
    per point; a NaN r_i sets both and stays, and the return is then NaN.
    A species with a fractional exponent first takes a complex residual as
    NaN.
    """
    n = form.n
    m1, m2, *l_classes = classes
    point = [*form.source.splitlines(), *_reaction_terms(n, l_classes)]
    for i in range(n):
        if m1 == "0":
            ddum = f"ddu{i}"
        else:
            point.append(f"g{i} = {_product('m', _power(f'u{i}', 'm1', m1))}")
            ddum = (f"({_product('mm', _power(f'u{i}', 'm2', m2), f'du{i}', f'du{i}')}"
                    f" + g{i} * ddu{i})")
        residual = f"d{i} * {ddum} + theta * du{i} + t{i}"
        if "frac" in (m1, l_classes[i]):
            point += [f"e{i} = {residual}",
                      f"r{i} = nan if e{i}.__class__ is complex else e{i}"]
        else:
            point.append(f"r{i} = {residual}")
        point += [f"if r{i} > hi{i}:",
                  f"    hi{i} = r{i}",
                  f"elif r{i} < lo{i}:",
                  f"    lo{i} = r{i}",
                  f"elif r{i} != r{i}:",
                  f"    hi{i} = lo{i} = r{i}"]
    body = [_unpack(form),
            f"{_tuple('hi{}', n)}= {_tuple('lo{}', n)}= {'0.0, ' * n}", "for x in grid:",
            *("    " + line for line in point),
            f"return ({_tuple('hi{0} if hi{0} >= -lo{0} else abs(lo{0})', n)})"]
    return _kernel("constants, grid", n, body)


def _bind(kind: str, write: Callable[[object, tuple], str], shape, spec: SystemSpec, *head):
    """kernel(*head, m, theta, d, l, s, C) with every coefficient from spec,
    the kernel written by write(shape, classes) and compiled once per
    distinct source.  classes is the _exponent_class of m - 1, m - 2 and
    each l_i."""
    n, m, l = spec.n, float(spec.m), tuple(map(float, spec.l))
    reaction = spec.reaction
    classes = tuple(map(_exponent_class, (m - 1.0, m - 2.0, *l)))
    kernel = _compile(write(shape, classes), f"{kind} kernel, n = {n}")
    return kernel(*head, m, float(spec.theta), tuple(map(float, spec.d)), l,
                  tuple(map(float, reaction.sigma)),
                  tuple(tuple(map(float, row)) for row in reaction.C))


def rk4_march(spec: SystemSpec, floor: float) -> Callable:
    """The RK4 step loop march(y, x, h, count, xs, ys) of spec over
    y = (u_0.., w_0..), as _rk4_source writes it: True after count steps,
    False at a non-finite state and, unless spec.m is 1, None at a stage or
    stepped state with some u_i below floor."""
    return _bind("rk4", _rk4_source, spec.n, spec, floor)


def residual_maxima(spec: SystemSpec, form: ClosedForm, constants: tuple,
                    grid: Sequence[float]) -> tuple:
    """Max |d_i (u_i^m)'' + theta u_i' + u_i^{l_i} f_i(u)| per species over
    grid, from the u_i, u_i', u_i'' that form's statements bind with
    constants and from spec's own m; a species with a NaN or complex
    residual at any point reports NaN, and a residual that overflows, or
    that takes 0 to the negative power m - 2 (1 < m < 2), raises a
    ValueError naming its species and grid point."""
    try:
        return _bind("residual", _residual_source, form, spec, constants, grid)
    except (OverflowError, ZeroDivisionError) as exc:
        _name_power_fault(spec, form, constants, grid, type(exc))
        raise


def _name_power_fault(spec: SystemSpec, form: ClosedForm, constants: tuple,
                      grid: Sequence[float], fault: type) -> None:
    """Raise a ValueError naming the first grid point, and a species there,
    where a power that the residual takes raises fault: u_i^{l_i}, and unless
    m is 1, u_i^(m-1) and u_i^(m-2).  These are the only operations of the
    residual kernel, besides form's own statements, that raise
    OverflowError or ZeroDivisionError; the latter is u_i = 0 to a negative
    m - 2.  Returns if no power raises fault."""
    m = float(spec.m)
    exponents = () if m == 1.0 else (m - 1.0, m - 2.0)
    at = compile_at(form)
    for x in grid:
        for i, ((u, _, _), l) in enumerate(zip(at(constants, x), spec.l), 1):
            for e in (*exponents, float(l)):
                try:
                    u ** e
                except fault:
                    if fault is OverflowError:
                        raise ValueError(f"residual of species {i} overflows floating point at "
                                         f"x = {x!r}; the parameters overflow floating point"
                                         ) from None
                    raise ValueError(f"residual of species {i} cannot be evaluated in "
                                     f"floating point at x = {x!r}: u{i} rounds to 0.0 there "
                                     f"and the exponent m - 2 = {e!r} is negative") from None
                except ArithmeticError:
                    # The other fault of the two; the kernel raised fault elsewhere.
                    pass
