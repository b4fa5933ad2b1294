"""Checks in the package must not vanish under `python -O`, every import
of a module must be used, every private helper must be read, every public
one read or traced by the benchmark, every traced name defined, no
module reaches into another's private names, and only `suites` builds
reports."""

import ast
import functools
import importlib.util
from pathlib import Path

import planes

SOURCES = sorted(Path(planes.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unread_definitions() -> list[tuple[str, ast.AST]]:
    """(file, node) of each module-level function or class whose name no
    code of the package reads."""
    trees = {path.name: _tree(path) for path in SOURCES}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    return [(name, node) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read]


def test_package_reads_every_private_helper():
    # a private module-level function or class that no code of the package
    # reads is kept only for tests, or for nothing
    unread = [f"{name}:{node.lineno}:{node.name}"
              for name, node in _unread_definitions() if _private(node.name)]
    assert SOURCES and not unread, f"private helpers no package code reads: {unread}"


def _layers() -> tuple:
    """(module, qualified name, stats) of each layer the benchmark traces."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_package_or_benchmark_reads_every_public_name():
    # a public one may also be a layer the benchmark traces; otherwise it is
    # reached from no command, suite or traced layer
    traced = {(f"{module}.py", qual.split(".")[0]) for module, qual, _ in _layers()}
    unread = [f"{name}:{node.lineno}:{node.name}"
              for name, node in _unread_definitions()
              if not node.name.startswith("_") and (name, node.name) not in traced]
    assert SOURCES and not unread, f"public names nothing reads or traces: {unread}"


def test_every_traced_layer_resolves():
    # the benchmark wraps each layer by name and refuses to start when one
    # is missing, so a deleted or renamed layer fails here first
    missing = []
    for module, qual, _ in _layers():
        try:
            functools.reduce(getattr, qual.split("."),
                             importlib.import_module(f"planes.{module}"))
        except AttributeError:
            missing.append(f"{module}.{qual}")
    assert not missing, f"traced layers the package lacks: {missing}"


def test_no_module_reads_another_modules_private_names():
    # a helper two modules share is public; `from planes import lattice`
    # then `lattice._x`, or `from planes.lattice import _x`, is a leak
    leaks = []
    for path in SOURCES:
        tree = _tree(path)
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if not source.startswith(("planes", ".")):
                continue
            for alias in node.names:
                if _private(alias.name):
                    leaks.append(f"{path.name}:{node.lineno}:{alias.name}")
                elif source in ("planes", "."):
                    modules.add(alias.asname or alias.name)
        leaks += [f"{path.name}:{node.lineno}:{node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert SOURCES and not leaks, f"private names read across modules: {leaks}"


def test_only_suites_builds_reports():
    # a report is a dict with a "check" key; the other modules return what
    # they computed and `suites` judges it
    built = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "suites.py"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Dict)
             and any(isinstance(k, ast.Constant) and k.value == "check"
                     for k in node.keys)]
    assert SOURCES and not built, f"report dicts outside suites.py: {built}"
