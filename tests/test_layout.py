"""Module boundaries: no module reaches into a sibling's private names."""

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


def test_no_module_imports_numpy_at_load():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in imports_run_at_load(tree.body):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if node.level == 0 else [])
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "numpy"]
    assert offenders == []


def test_waves_names_resolve_from_the_package():
    assert nbarrier.integrate is nbarrier.waves.integrate
    assert nbarrier.Trajectory is nbarrier.waves.Trajectory
    namespace = {}
    exec("from nbarrier import *", namespace)
    assert set(nbarrier.__all__) <= set(namespace)
    assert namespace["check_bounds"] is nbarrier.waves.check_bounds
