"""Records against their generated twins: each value type made by
model.record behaves as the @dataclass(frozen=True) class with the same
fields does."""

import copy
import inspect
import operator
import re
import sys
from dataclasses import (MISSING, FrozenInstanceError, asdict, field, fields,
                         is_dataclass, make_dataclass, replace)
from unittest.mock import ANY

import pytest

import nbarrier
from nbarrier import (ThreeSpeciesParams, bounds_general, build_lower_barrier, check,
                      check_bounds, hull_intercepts, integrate, tanh_family,
                      verify_containment, verify_hypothesis_H)

from conftest import COS_ARGS

MODULES = ("model", "barrier", "bounds", "exact", "nonexistence", "waves")
RECORDS = sorted((cls for name in MODULES
                  for cls in vars(getattr(nbarrier, name)).values()
                  if isinstance(cls, type) and is_dataclass(cls)
                  and cls.__module__ == f"nbarrier.{name}"), key=lambda cls: cls.__name__)


def samples() -> dict:
    """One library-built instance of every record, by class."""
    sol = tanh_family(3.0, 4.0, 1.0, 2.0)
    spec = sol.system()
    hull = hull_intercepts(spec.reaction)
    alpha = (0.5, 0.25)
    env = build_lower_barrier(alpha, spec.d, hull.ulow, spec.m)
    containment = verify_containment(env, hull, 1)
    bounds = bounds_general(alpha, spec.d, hull, spec.m, 1)
    traj = integrate(spec, (1.0, 2.0), (-0.1, 0.1), (0.0, 0.05), 0.01, alpha=alpha)
    params = ThreeSpeciesParams(d=(1.0, 2.0, 1.0), sigma=(10.0, 12.0, 40.0),
                                C=((1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 1.0, 2.0)),
                                w_minus_inf=4.0)
    verdict = check(params)
    cos = nbarrier.cos_family(*[float(a) for a in COS_ARGS])
    found = [spec.reaction, spec, hull, verify_hypothesis_H(spec, hull, 1), env,
             containment.links[0], containment, bounds, sol.profile(), sol, cos,
             params, verdict.case_i, verdict.case_ii, verdict, traj,
             check_bounds(traj, alpha, bounds)]
    return {type(obj): obj for obj in found}


SAMPLES = samples()


def twin_of(cls):
    """The @dataclass(frozen=True) class over cls's fields, with its name, its
    docstring and the methods that cls defines itself."""
    namespace = {name: value for name, value in vars(cls).items()
                 if not name.startswith("__") or name in ("__doc__", "__post_init__")}
    return make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default))
        for f in fields(cls)], frozen=True, namespace=namespace)


# Records compare their field tuples, as the generated __eq__ does through
# Python 3.12.  From 3.13 it compares field by field, without the identity
# shortcut of a tuple comparison, which differs on fields whose == is not a
# bool, such as Trajectory's arrays.
TUPLE_EQ = sys.version_info < (3, 13)


def field_values(x) -> dict:
    return {f.name: getattr(x, f.name) for f in fields(x)}


def field_tuple(x) -> tuple:
    return tuple(field_values(x).values())


def outcome(fn):
    """fn()'s value, or its exception's class and message."""
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def scrubbed(value) -> str:
    """repr(value) with object addresses removed."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(value))


def pair(cls):
    """(record instance, twin instance) built from the same field values."""
    obj = SAMPLES[cls]
    twin = twin_of(cls)(**field_values(obj))
    return obj, twin


def test_every_record_has_a_sample():
    assert len(RECORDS) == 17
    assert sorted(SAMPLES, key=lambda cls: cls.__name__) == RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_eq_and_hash_match_the_twin(cls):
    obj, twin = pair(cls)
    assert repr(obj) == repr(twin)
    last = fields(cls)[-1].name

    def probes(x, other_class_instance):
        equal, changed = copy.copy(x), copy.copy(x)
        object.__setattr__(changed, last, "changed")
        # ANY equals everything, so x == ANY shows whether x's __eq__ defers.
        return {"equal": equal, "changed": changed, "object": object(), "ANY": ANY,
                "other class": other_class_instance}

    mine, theirs = probes(obj, twin), probes(twin, obj)
    for what in mine:
        for op in (operator.eq, operator.ne):
            got = outcome(lambda: op(obj, mine[what]))
            if TUPLE_EQ:
                assert got == outcome(lambda: op(twin, theirs[what])), what
            if type(mine[what]) is cls:
                assert got == outcome(lambda: op(field_tuple(obj), field_tuple(mine[what])))
    assert outcome(lambda: hash(obj)) == outcome(lambda: hash(twin))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen_as_the_twin_is(cls):
    obj, twin = pair(cls)
    name = fields(cls)[0].name
    for action in (lambda x: setattr(x, name, None), lambda x: delattr(x, name),
                   lambda x: setattr(x, "extra", None)):
        got, want = outcome(lambda: action(obj)), outcome(lambda: action(twin))
        assert got == want and got[0] is FrozenInstanceError


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_dataclass_api_matches_the_twin(cls):
    obj, twin = pair(cls)
    Twin = type(twin)
    describe = [(f.name, f.type, f.default, f.init, f.repr, f.compare) for f in fields(cls)]
    assert describe == [(f.name, f.type, f.default, f.init, f.repr, f.compare)
                        for f in fields(Twin)]
    assert cls.__match_args__ == Twin.__match_args__
    assert inspect.signature(cls) == inspect.signature(Twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(Twin))
    # asdict deep-copies values, so an object's address differs between calls.
    assert scrubbed(asdict(obj)) == scrubbed(asdict(twin))
    unchanged = field_values(obj)
    assert repr(replace(obj, **unchanged)) == repr(obj)
    assert repr(replace(twin, **unchanged)) == repr(twin)
    assert repr(cls(*unchanged.values())) == repr(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_bad_arguments_as_the_twin_does(cls):
    obj, twin = pair(cls)
    values = field_values(obj)
    first = next(iter(values))
    calls = {
        "missing": lambda C: C(**{k: v for k, v in values.items() if k != first}),
        "unknown": lambda C: C(**values, bogus=1),
        "repeated": lambda C: C(values[first], **values),
        "surplus positional": lambda C: C(*values.values(), None),
    }
    for what, call in calls.items():
        got, want = outcome(lambda: call(cls)), outcome(lambda: call(type(twin)))
        assert got[0] is want[0] is TypeError, what


def test_record_defaults_match_the_twin():
    obj, twin = pair(ThreeSpeciesParams)
    given = {"d": obj.d, "sigma": obj.sigma, "C": obj.C}
    made, twin_made = ThreeSpeciesParams(**given), type(twin)(**given)
    assert repr(made) == repr(twin_made)
    assert made.w_minus_inf is made.w_plus_inf is None
    assert repr(ThreeSpeciesParams(obj.d, obj.sigma, obj.C, 1.0)) == repr(
        type(twin)(obj.d, obj.sigma, obj.C, 1.0))
