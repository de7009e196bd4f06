"""Checks on the package sources themselves."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "elpcover"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must raise explicitly to keep guarding optimized runs.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
