"""Module boundaries: no module reaches into a sibling's private names, and
every public name has a caller outside the tests."""

import ast
from pathlib import Path

import nbarrier

PACKAGE = Path(nbarrier.__file__).parent


def test_no_private_imports_between_sibling_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("nbarrier")
            if sibling:
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def imports_run_at_load(nodes):
    """Import statements that execute when the module is imported: not those
    in function bodies and not those under `if TYPE_CHECKING:`."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from imports_run_at_load(node.orelse)
        else:
            yield from imports_run_at_load(ast.iter_child_nodes(node))


def numpy_imports(nodes):
    """Line numbers of the statements among nodes that import numpy."""
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            yield node.lineno


def test_no_module_imports_numpy_at_load():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}"
                      for line in numpy_imports(imports_run_at_load(tree.body))]
    assert offenders == []


def test_only_waves_imports_numpy_in_any_scope():
    """A function-body import elsewhere escapes the load-time guard but
    still loads numpy, about 100 ms, on the first call."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = list(numpy_imports(ast.walk(tree)))
        if lines:
            found[path.name] = lines
    assert sorted(found) == ["waves.py"]


def test_waves_names_resolve_from_the_package():
    assert nbarrier.integrate is nbarrier.waves.integrate
    assert nbarrier.Trajectory is nbarrier.waves.Trajectory
    namespace = {}
    exec("from nbarrier import *", namespace)
    assert set(nbarrier.__all__) <= set(namespace)
    assert namespace["check_bounds"] is nbarrier.waves.check_bounds


# Tests cross-check the general envelope route against this two-species m = 2
# transcription, and the residual kernels and the sign-hypothesis check
# against reaction_eval's f evaluated at a point; each is kept as that
# reference and has no other caller.
REFERENCE_ONLY = {"bounds_two_species_m2", "reaction_eval"}


def names_in(path):
    """Names path imports from the package, names it reads outside type
    annotations, and attribute names it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    annotations = {id(sub) for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None for sub in ast.walk(ann)}
    imported, read, attributes = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("nbarrier")):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if id(node) not in annotations:
                read.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return imported, read, attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    """A package module uses a public name by importing it, or by reading it
    in the module that defines it; scripts import what they use; bench is
    handed the package as a module object, so there an attribute read counts.
    """
    root = PACKAGE.parents[1]
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            imported, read, _ = names_in(path)
            own = {name for name in nbarrier.__all__
                   if getattr(nbarrier, name).__module__ == f"nbarrier.{path.stem}"}
            used |= imported | (read & own)
    for path in sorted((root / "scripts").glob("*.py")):
        used |= names_in(path)[0]
    for path in sorted((root / "bench").rglob("*.py")):
        imported, _, attributes = names_in(path)
        used |= imported | attributes
    assert sorted(set(nbarrier.__all__) - used - REFERENCE_ONLY) == []


def calls_that_run_source(node, owner=None):
    """(enclosing function, called name) for each exec, eval or compile
    call under node, builtins.exec and the like included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls_that_run_source(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "builtins":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in ("exec", "eval", "compile"):
                yield owner, name
        yield from calls_that_run_source(child, owner)


def test_only_the_kernel_builder_compiles_source():
    """Generated source is compiled in one place, with its cache."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls = sorted(calls_that_run_source(ast.parse(path.read_text(), filename=str(path))))
        if calls:
            found[path.name] = calls
    assert found == {"kernels.py": [("_compile", "compile"), ("_compile", "exec")]}


def test_only_main_writes_cli_outputs():
    """Commands return their document and CSV table; main alone formats,
    checks and writes them, so the finiteness gate has one home."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    offenders = []
    for fn in commands:
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in {"_write_csv", "open", "write_text", "_json_text"}:
                    offenders.append(f"{fn.name}: {name}")
    assert len(commands) == 7 and offenders == []


def dataclass_uses(node, owner=None):
    """The outermost enclosing function of each read of the name dataclass
    under node, as a call or a bare decorator, dataclasses.dataclass
    included; a function nested in another is credited to the outer one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from dataclass_uses(child, owner or child.name)
            continue
        if (isinstance(child, ast.Name) and child.id == "dataclass") or (
                isinstance(child, ast.Attribute) and child.attr == "dataclass"):
            yield owner
        yield from dataclass_uses(child, owner)


def record_classes():
    """(module file, class node) for each class the package decorates with
    record or dataclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(deco).split("(")[0].split(".")[-1] in ("record", "dataclass")
                    for deco in node.decorator_list):
                yield path.name, node


def test_dataclass_is_called_only_inside_record():
    """Every value type is a record: dataclass generates no method for it,
    so nothing else may call it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = list(dataclass_uses(ast.parse(path.read_text(), filename=str(path))))
        if uses:
            found[path.name] = uses
    assert found == {"model.py": ["record"]}


def test_every_record_has_its_own_docstring():
    """dataclass writes a missing docstring from the class signature, which
    under record's init=False would read "Name()"."""
    records = list(record_classes())
    assert len(records) == 17
    assert [f"{name}: {node.name}" for name, node in records
            if not ast.get_docstring(node)] == []
