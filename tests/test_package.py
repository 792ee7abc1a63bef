"""Package hygiene: every name a module imports is used or exported, and
every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boxcast"

# names bound by an import that no code in the module reads
UNREAD_BINDINGS = {
    # rebound by the benchmark's tracer, perfbench/tracing.py::targets
    ("evaluation", "predict"),
    # rebound by the benchmark's tracer, perfbench/tracing.py::targets
    ("training", "build_features"),
}

MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = _imported(tree) - read - set(_exported(tree))
    assert unread == {b for m, b in UNREAD_BINDINGS if m == name}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    module = importlib.import_module(
        "boxcast" if name == "__init__" else f"boxcast.{name}")
    assert [e for e in _exported(tree) if not hasattr(module, e)] == []
