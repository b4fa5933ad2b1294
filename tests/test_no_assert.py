"""Checks in the package must not vanish under `python -O`."""

import ast
from pathlib import Path

import planes

SOURCES = sorted(Path(planes.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in planes: {found}"
