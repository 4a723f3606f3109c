"""Records against their generated twins: each value type made by
model.record behaves as the @dataclass(frozen=True) class with the same
fields does, also when its dataclass metadata is first read in a process
that imported the package before dataclasses and inspect."""

import copy
import inspect
import operator
import os
import re
import subprocess
import sys
from dataclasses import (MISSING, FrozenInstanceError, asdict, field, fields,
                         is_dataclass, make_dataclass, replace)
from pathlib import Path
from unittest.mock import ANY

import pytest

import nbarrier
from nbarrier import ThreeSpeciesParams
from nbarrier.model import record_dict

from conftest import record_samples

MODULES = ("model", "barrier", "bounds", "exact", "nonexistence", "waves")
RECORDS = sorted((cls for name in MODULES
                  for cls in vars(getattr(nbarrier, name)).values()
                  if isinstance(cls, type) and is_dataclass(cls)
                  and cls.__module__ == f"nbarrier.{name}"), key=lambda cls: cls.__name__)


SAMPLES = record_samples()


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
    assert scrubbed(asdict(obj)) == scrubbed(asdict(twin)) == scrubbed(record_dict(obj))
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


# Imports the package before dataclasses and inspect, builds one sample of
# each record, checks that none has its dataclass metadata or signature yet,
# then runs every dataclass check on each record.  The checks take turns at
# being the first to read a record's metadata.  Prints the failed checks.
LAZY_PROBE = """
import sys
import nbarrier
assert not {"dataclasses", "inspect"} & sys.modules.keys(), "loaded by nbarrier"
import dataclasses, inspect
from conftest import record_samples


def frozen(cls, obj, names):
    try:
        setattr(obj, names[0], None)
    except dataclasses.FrozenInstanceError as exc:
        return type(exc) is dataclasses.FrozenInstanceError
    return False


CHECKS = {
    "is_dataclass": lambda cls, obj, names: (dataclasses.is_dataclass(obj)
                                             and dataclasses.is_dataclass(cls)),
    "fields": lambda cls, obj, names: tuple(
        f.name for f in dataclasses.fields(obj)) == names,
    "asdict": lambda cls, obj, names: tuple(dataclasses.asdict(obj)) == names,
    "replace": lambda cls, obj, names: repr(dataclasses.replace(obj)) == repr(obj),
    "signature": lambda cls, obj, names: tuple(inspect.signature(cls).parameters) == names,
    "positional": lambda cls, obj, names: repr(
        cls(*[getattr(obj, name) for name in names])) == repr(obj),
    "frozen": frozen,
}
samples = sorted(record_samples().items(), key=lambda item: item[0].__name__)
failed = [f"{cls.__name__}: built early" for cls, _ in samples
          if isinstance(vars(cls)["__dataclass_fields__"], dict)
          or isinstance(vars(cls)["__signature__"], inspect.Signature)]
kinds = list(CHECKS)
for k, (cls, obj) in enumerate(samples):
    for kind in kinds[k % len(kinds):] + kinds[:k % len(kinds)]:
        if not CHECKS[kind](cls, obj, cls.__match_args__):
            failed.append(f"{cls.__name__}: {kind}")
print(len(samples), *failed, sep="\\n")
"""


def test_records_are_full_dataclasses_when_their_metadata_is_built_on_first_use():
    # python -S runs no site hook that could import dataclasses first; this
    # interpreter's path still finds numpy and pytest.
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nbarrier.__file__).parents[1]), str(tests), *sys.path]))
    proc = subprocess.run([sys.executable, "-S", "-c", LAZY_PROBE], cwd=tests, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["17", ""]
