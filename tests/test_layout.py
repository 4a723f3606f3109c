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
