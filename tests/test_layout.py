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
# transcription; it is kept as that reference and has no other caller.
REFERENCE_ONLY = {"bounds_two_species_m2"}


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
