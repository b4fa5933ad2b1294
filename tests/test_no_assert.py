"""Checks in the package must not vanish under `python -O`, and every
import of a module must be used."""

import ast
from pathlib import Path

import planes

SOURCES = sorted(Path(planes.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in planes: {found}"


def test_package_has_no_unused_imports():
    # __init__.py imports are the public re-exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}:{name}")
    assert SOURCES and not unused, f"unused imports in planes: {unused}"
