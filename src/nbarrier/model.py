"""Problem description layer: competition systems of porous-medium type.

A system couples n species through degenerate diffusion d_i (u_i^m)'' and
Lotka-Volterra competition f_i(u) = sigma_i - sum_j c_ij u_j, entering the
wave equation as u_i^{l_i} f_i(u).  This module holds the immutable spec
types, the axis intercepts sigma_j / c_ji of the competition planes and the
hull they bound, and an exact check of the sign hypothesis H on a hull.
The compiled wave kernels live in kernels.

Coefficient vectors (d, l, sigma, C, ubar, ulow, the band weights alpha)
hold finite floats > 0 and share one length; require_vectors checks that.

The per-element work of this module and of barrier, bounds and
nonexistence runs at C level: map over operator functions and
itertools.repeat, and builtins applied to tuples, in place of generator
expressions.  Each such expression applies the same operations to the same
operands in the same order as the element-wise loop it stands for, so every
float, verdict, worst point, message and exception class is that loop's.
Validation has one definition and one path, the element-wise
0.0 < v <= FLOAT_MAX over every entry v of a coefficient vector, which for
a float is 0.0 < v < inf.  An int or Fraction above FLOAT_MAX fails it too,
and is refused as not finite where no float holds it, and so does a Decimal
NaN, whose comparison raises instead of failing.  The check stays a
generator expression, as require_finite stays a plain loop: on vectors of
2 to 6 entries both measured faster than their map equivalents.

Every value type of the package is a record: the record decorator makes a
frozen value type whose __init__, __repr__, __eq__, __hash__, __setattr__
and __delattr__ are closures shared by all records, where
@dataclass(frozen=True) would write and compile six methods per class each
time the package is imported.  record reads the fields from the class
annotations and imports neither dataclasses nor inspect; a record's
dataclass metadata and __signature__ are built on first use, so fields,
asdict, replace and inspect.signature work on records as on any dataclass.
A call that passes every field by keyword takes the fast path: __init__
checks the keyword count and that each keyword is a field, and copies them
into the instance dict.  A keyword call that leaves out fields with
defaults gets the defaults merged in, and any other call is bound through
__signature__.  A post-init that normalises a field, to a tuple say,
writes the instance dict, since __setattr__ refuses every write.
record_dict turns records into the dicts that the CLI emits.

Since C > 0, H holds on a hull exactly when every ulow_k is at most and
every ubar_k at least each intercept on axis k, so the verdict compares the
hull with the intercepts and needs no tolerance; the intercept hull
satisfies H by construction.
"""

from __future__ import annotations

import warnings
from functools import reduce
from itertools import chain, islice, repeat
from math import isfinite
from operator import add, eq, ge, le, lt, mul, neg, sub, truediv
from sys import float_info
from typing import Callable, Sequence

REGION_REL_TOL = 1e-9      # relative tolerance for region membership
FLOAT_MAX = float_info.max  # the largest float

_RECORD_FIELDS: dict = {}  # record class -> its field names, in declared order


class _BuiltOnFirstRead:
    """A class attribute of a record that build() makes the first time it is
    read, on the class or on an instance; build stores the value on the
    class in place of this descriptor and returns it."""

    def __init__(self, build: Callable):
        self.build = build

    def __get__(self, instance, owner=None):
        return self.build()


def record(cls: type) -> type:
    """Make cls a frozen value type over its annotated fields, as
    @dataclass(frozen=True) does, without generating any method source and
    without importing dataclasses or inspect.

    The fields are cls's own annotations, in order, and a class attribute of
    the same name is the field's default.  cls is a dataclass to whoever
    asks: __dataclass_fields__ and __signature__ are built on first read (by
    is_dataclass, fields, asdict, replace or inspect.signature, whose
    callers have imported dataclasses or inspect already), and
    __match_args__ lists the fields.  __init__, __repr__, __eq__, __hash__,
    __setattr__ and __delattr__ are closures shared by every record.
    __init__ fills the instance dict from keyword arguments and defaults,
    calls __post_init__ if there is one, and binds any other call through
    __signature__, so that a missing, unknown or repeated argument or
    surplus positional ones raise a TypeError, as the generated __init__
    does.  Keyword arguments enter the instance dict in the order they were
    passed, so vars() need not list the fields in declared order;
    record_dict does.  Setting or deleting an attribute raises
    dataclasses.FrozenInstanceError.  cls needs a docstring of its own:
    dataclass would otherwise write one from a signature it cannot see.
    """
    names = tuple(cls.__annotations__)
    nfields, field_set = len(names), frozenset(names)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    required = field_set.difference(defaults)
    post_init = getattr(cls, "__post_init__", None)
    _RECORD_FIELDS[cls] = names

    def dataclass_fields() -> dict:
        # dataclass stores __dataclass_fields__ on cls; with eq=False it
        # leaves __hash__ alone, and cls's docstring keeps it from writing
        # one through inspect.
        from dataclasses import dataclass
        dataclass(cls, init=False, repr=False, eq=False)
        return cls.__dataclass_fields__

    def signature():
        from inspect import Parameter, Signature
        cls.__signature__ = Signature(
            [Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                       default=defaults.get(name, Parameter.empty), annotation=annotation)
             for name, annotation in cls.__annotations__.items()],
            return_annotation=None)
        return cls.__signature__

    def values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, names))

    def arguments(args: tuple, kwargs: dict):
        """The field -> value dict of a call that does not pass every field
        by keyword, defaults included."""
        if not args and required <= kwargs.keys() <= field_set:
            return {**defaults, **kwargs}
        try:
            bound = cls.__signature__.bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{cls.__qualname__}(): {exc}") from None
        bound.apply_defaults()
        return bound.arguments

    def __init__(self, *args, **kwargs):
        if args or len(kwargs) != nfields or not field_set.issuperset(kwargs):
            kwargs = arguments(args, kwargs)
        self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    def __repr__(self) -> str:
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values(self))) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    cls.__dataclass_fields__ = _BuiltOnFirstRead(dataclass_fields)
    cls.__signature__ = _BuiltOnFirstRead(signature)
    return cls


def record_dict(value):
    """value with every record in it made a dict of its fields in declared
    order, through lists and tuples too, as dataclasses.asdict does; the
    values are not copied."""
    names = _RECORD_FIELDS.get(type(value))
    if names is not None:
        return {name: record_dict(getattr(value, name)) for name in names}
    if type(value) in (list, tuple):
        return type(value)(map(record_dict, value))
    return value


def require_finite(**fields) -> None:
    """Raise a ValueError naming the first field with a NaN or +-inf entry, or
    an int or Fraction that no float holds.

    Each keyword maps a field name to an iterable of its numbers.  NaN
    passes every sign check (NaN <= 0 is False), so specs call this before
    their range checks.
    """
    for name, values in fields.items():
        try:
            for v in values:
                if not isfinite(v):
                    break
            else:
                continue
        except OverflowError:  # from isfinite's conversion of v to float
            raise ValueError(f"{name} must be finite, got a number beyond the largest float"
                             ) from None
        except ValueError:  # the same conversion of a signaling Decimal NaN
            pass
        raise ValueError(f"{name} must be finite, got {v!r}")


def require_positive(**fields) -> None:
    """Raise a ValueError naming the first field with a NaN, infinite or
    nonpositive entry, or an int or Fraction that no float holds.  An int
    above FLOAT_MAX that rounds to it passes."""
    for name, values in fields.items():
        # Comparing a Decimal NaN raises decimal.InvalidOperation; its base
        # ArithmeticError is caught, so that validation imports no decimal.
        try:
            positive = all(0.0 < v <= FLOAT_MAX for v in values)
        except ArithmeticError:
            positive = False
        if not positive:
            require_finite(**{name: values})
            if not all(0.0 < v for v in values):
                raise ValueError(f"{name} must be strictly positive")


def require_vectors(n: int | None = None, **vectors) -> None:
    """Refuse sequences whose lengths disagree with each other or with n,
    naming the lengths, then any entry that require_positive refuses."""
    expected = n
    try:
        for values in vectors.values():
            if expected is None:
                expected = len(values)
            if len(values) != expected or not all(0.0 < v <= FLOAT_MAX for v in values):
                break
        else:
            return
    except ArithmeticError:  # comparing a Decimal NaN, as in require_positive
        pass
    if any(len(values) != expected for values in vectors.values()):
        raise ValueError("vector lengths must agree, got " + ", ".join(
            ([] if n is None else [f"n = {n}"])
            + [f"len({name}) = {len(values)}" for name, values in vectors.items()]))
    require_positive(**vectors)


def number(value) -> float:
    """A document number as a float; JSON true, false and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def integer(value) -> int:
    """A document integer; a float is accepted only when it is integral."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _list(value):
    # A JSON string is iterable too, so "34" would otherwise read as [3, 4].
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def float_vector(value) -> tuple:
    """A document list of numbers as a tuple of floats."""
    return tuple(number(x) for x in _list(value))


def float_matrix(value) -> tuple:
    """A document list of rows as a tuple of float tuples."""
    return tuple(float_vector(row) for row in _list(value))


def fields_from_dict(doc: dict, converters: dict[str, Callable], kind: str) -> dict:
    """Convert doc[key] with converters[key] for every key, in order.

    Raises a ValueError naming the key when doc holds a key that converters
    do not list, when a key is missing, or when its value has the wrong shape
    or type, or is out of range for its conversion (a scalar where a list
    belongs, a string or true where a number belongs, 2.5 or Infinity where
    an integer belongs).
    """
    unknown = [key for key in doc if key not in converters]
    if unknown:
        raise ValueError(f"{kind} document has unknown key "
                         + ", ".join(repr(key) for key in unknown))
    out = {}
    for key, convert in converters.items():
        if key not in doc:
            raise ValueError(f"{kind} document is missing key {key!r}")
        try:
            out[key] = convert(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} document key {key!r} is malformed: {exc}") from exc
    return out


@record
class ReactionSpec:
    """Affine competition kinetics: growth rates and competition matrix.

    f_i(u) = sigma[i] - sum_j C[i][j] * u[j].  All rates strictly positive.
    """

    sigma: tuple
    C: tuple

    def __post_init__(self):
        self.__dict__["sigma"] = tuple(self.sigma)
        self.__dict__["C"] = tuple(map(tuple, self.C))
        require_positive(sigma=self.sigma, C=tuple(chain.from_iterable(self.C)))
        n = len(self.sigma)
        if n == 0:
            raise ValueError("reaction needs at least one species")
        if len(self.C) != n or set(map(len, self.C)) != {n}:
            raise ValueError(f"competition matrix must be {n}x{n}")

    @property
    def n(self) -> int:
        return len(self.sigma)


@record
class SystemSpec:
    """Full wave-equation data: diffusion, degeneracy exponents, speed, kinetics."""

    n: int
    m: float
    d: tuple
    l: tuple
    theta: float
    reaction: ReactionSpec

    def __post_init__(self):
        self.__dict__["d"] = tuple(self.d)
        self.__dict__["l"] = tuple(self.l)
        require_finite(m=(self.m,), theta=(self.theta,))
        if self.n < 1:
            raise ValueError("need at least one species")
        require_vectors(self.n, d=self.d, l=self.l)
        if self.m < 1:
            raise ValueError("diffusion exponent m must be >= 1")
        if self.reaction.n != self.n:
            raise ValueError("reaction dimension does not match n")


@record
class HullBounds:
    """Outer and inner axis intercepts bracketing the coexistence region.

    Strict ubar_i > ulow_i > 0 is what the sign hypothesis needs; equality is
    tolerated here with a warning because symmetric coefficient matrices
    produce it, and downstream verification refuses to run on it.
    """

    ubar: tuple
    ulow: tuple

    def __post_init__(self):
        self.__dict__["ubar"] = tuple(self.ubar)
        self.__dict__["ulow"] = tuple(self.ulow)
        # sigma_j / c_ji overflows to inf for extreme finite rates.
        require_vectors(ubar=self.ubar, ulow=self.ulow)
        if any(map(lt, self.ubar, self.ulow)):
            raise ValueError("ubar must dominate ulow componentwise")
        if self.is_degenerate():
            warnings.warn("degenerate hull: ubar_i == ulow_i for some i", stacklevel=3)

    @property
    def n(self) -> int:
        return len(self.ubar)

    def is_degenerate(self) -> bool:
        return any(map(eq, self.ubar, self.ulow))


def vertex_peak(values: list) -> tuple:
    """Largest of values and the simplex vertex e_i attaining it, a tuple of
    0.0 and 1.0; on ties the vertex of the highest index i."""
    largest, i = max(zip(values, range(len(values))))
    vertex = [0.0] * len(values)
    vertex[i] = 1.0
    return largest, tuple(vertex)


def reaction_eval(reaction: ReactionSpec, u: Sequence[float]) -> tuple:
    """Evaluate the affine factors f_i(u) = sigma_i - sum_j c_ij u_j.

    Returns the bracketed competition factor only, without the u_i^{l_i}
    prefactor that multiplies it in the wave equation.  Each row adds its
    products c_ij u_j as the wave kernels do: left to right from the first
    up to kernels.UNROLL_LIMIT species, and with builtin sum beyond.
    """
    from .kernels import UNROLL_LIMIT

    if len(u) != reaction.n:
        raise ValueError(f"state has length {len(u)}, reaction expects {reaction.n}")
    if reaction.n <= UNROLL_LIMIT:
        return tuple(s - reduce(add, map(mul, row, u))
                     for s, row in zip(reaction.sigma, reaction.C))
    return tuple(s - sum(map(mul, row, u)) for s, row in zip(reaction.sigma, reaction.C))


def axis_intercepts(sigma: Sequence[float], C: Sequence[Sequence[float]]) -> list:
    """The u_i-axis intercepts [sigma_j / c_ji for each j], one list per axis i.

    Plane j is sigma_j = sum_i c_ji u_i.  There is one axis per rate, and a
    row of C may be longer than sigma: only its first len(sigma) entries
    are read.
    """
    return [list(map(truediv, sigma, column)) for column in islice(zip(*C), len(sigma))]


def hull_intercepts(reaction: ReactionSpec) -> HullBounds:
    """Extreme axis intercepts of the n competition planes.

    The hull takes the largest and smallest intercept per axis.  Emits a
    degeneracy warning when the two coincide on some axis.
    """
    axes = axis_intercepts(reaction.sigma, reaction.C)
    return HullBounds(ubar=map(max, axes), ulow=map(min, axes))


@record
class HypothesisReport:
    """Outcome of the exact sign-hypothesis check on the two hull regions.

    The verdicts compare the hull with the axis intercepts.  The worst
    points are the axis vertices where the extremes of f are attained, and
    the worst values those extremes as computed in floating point; they are
    informational and do not decide the verdicts.
    """

    inner_ok: bool
    outer_ok: bool
    worst_inner_point: tuple
    worst_inner_value: float
    worst_outer_point: tuple
    worst_outer_value: float

    @property
    def ok(self) -> bool:
        return self.inner_ok and self.outer_ok


def verify_hypothesis_H(
    spec: SystemSpec,
    hull: HullBounds,
    samples_per_face: int,
) -> HypothesisReport:
    """Decide the sign hypothesis on the hull regions exactly.

    Inner region (the solid simplex below the ulow face): every f_j must be
    >= 0.  Outer region (on and beyond the ubar face, out to twice the
    intercepts): every f_j must be <= 0.

    Each f_j is affine, so its extremes over a simplex lie at the vertices,
    and since C > 0 it strictly decreases along every ray from the origin.
    Hence the inner minimum is attained at some ulow_k e_k (the origin gives
    f_j = sigma_j, larger than at any axis vertex) and the outer maximum on
    the ubar face, at some ubar_k e_k.  f_j(u_k e_k) = sigma_j - c_jk u_k
    has the sign of sigma_j / c_jk - u_k, so the verdicts compare the hull
    with the axis intercepts and need no tolerance: inner_ok holds when
    every ulow_k <= min_j sigma_j / c_jk, and outer_ok when every
    ubar_k >= max_j sigma_j / c_jk.  Division rounds monotonically, so a
    hull entry on either side of a rounded intercept is on that side of the
    exact one; an entry equal to it counts as on the plane.  The intercept
    hull, built from the same quotients, satisfies H by construction at
    every scale of sigma.

    The worst values are min_j f_j and max_j f_j at those vertices, read
    per axis k as sigma_j - c_jk u_k off column k of C, with no f evaluated
    at a built point; they can cancel, so they are informational floats.
    vertex_peak picks the worst axis, the highest on ties, and the inner one
    as -max_k(-min_j), which keeps a worst value of 0.0 at +0.0.

    samples_per_face is still validated but does not change the result.
    The check refuses degenerate hulls, where the two regions touch.
    """
    if hull.n != spec.n:
        raise ValueError("hull dimension does not match system")
    if samples_per_face < 1:
        raise ValueError("samples_per_face must be positive")
    if hull.is_degenerate():
        raise ValueError("hypothesis cannot be verified on a degenerate hull")

    sigma, columns = spec.reaction.sigma, list(zip(*spec.reaction.C))
    inner_peak, inner_t = vertex_peak(list(map(neg, map(min, _axis_values(
        sigma, columns, hull.ulow)))))
    outer_peak, outer_t = vertex_peak(list(map(max, _axis_values(sigma, columns, hull.ubar))))
    axes = axis_intercepts(sigma, spec.reaction.C)

    return HypothesisReport(
        inner_ok=all(map(le, hull.ulow, map(min, axes))),
        outer_ok=all(map(ge, hull.ubar, map(max, axes))),
        worst_inner_point=tuple(map(mul, inner_t, hull.ulow)),
        worst_inner_value=-inner_peak,
        worst_outer_point=tuple(map(mul, outer_t, hull.ubar)),
        worst_outer_value=outer_peak,
    )


def _axis_values(sigma: Sequence[float], columns: list, u: Sequence[float]):
    """Per axis k, the values f_j(u_k e_k) = sigma_j - c_jk u_k over j, each
    a lazy iterator, from column k of C."""
    return map(map, repeat(sub), repeat(sigma),
               map(map, repeat(mul), columns, map(repeat, u)))


def system_to_dict(spec: SystemSpec) -> dict:
    """JSON-ready document with keys n, m, d, l, theta, sigma, C."""
    return {
        "n": spec.n,
        "m": spec.m,
        "d": list(spec.d),
        "l": list(spec.l),
        "theta": spec.theta,
        "sigma": list(spec.reaction.sigma),
        "C": [list(row) for row in spec.reaction.C],
    }


def system_from_dict(doc: dict) -> SystemSpec:
    """Inverse of system_to_dict; raises ValueError naming any missing or
    malformed key."""
    f = fields_from_dict(doc, {"n": integer, "m": number, "d": float_vector,
                               "l": float_vector, "theta": number,
                               "sigma": float_vector, "C": float_matrix}, "system")
    return SystemSpec(n=f["n"], m=f["m"], d=f["d"], l=f["l"], theta=f["theta"],
                      reaction=ReactionSpec(sigma=f["sigma"], C=f["C"]))
