"""Package hygiene: every name a module imports is used or exported, every
exported name exists, no module keeps a separate `validate` step, every
weight-gradient product is formed in `nn`, no module starts a thread, and
importing the CLI loads no hash library."""

import ast
import importlib
import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", MODULES)
def test_records_have_no_separate_validate_step(name):
    """Config records check themselves in ``__post_init__``, so no module
    defines or calls a method named ``validate``."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    defined = [n.lineno for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and n.name == "validate"]
    called = [n.lineno for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr == "validate"]
    assert defined == called == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "nn"])
def test_weight_gradient_products_are_formed_in_nn(name):
    """Outside `nn`, no ``@`` product has a transposed (``.T``) left
    operand: a weight-gradient product, ``dy.T @ x``, is always
    `nn.linear_weight_grad`, so how every weight gradient reduces its rows
    is decided in that one function."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    transposed_left = [n.lineno for n in ast.walk(tree)
                       if isinstance(n, ast.BinOp)
                       and isinstance(n.op, ast.MatMult)
                       and isinstance(n.left, ast.Attribute)
                       and n.left.attr == "T"]
    assert transposed_left == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_starts_a_thread(name):
    """`benchmark_tps` measures a thread count in a child process at that
    many BLAS threads, so the package reads nothing from `threading` but
    its ``TIMEOUT_MAX`` (the duration bound) and imports no other
    concurrency module."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "threading"}
    assert read <= {"TIMEOUT_MAX"}
    assert not {"concurrent", "multiprocessing", "_thread"} & _imported(tree)
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "threading"
                   for n in ast.walk(tree))


def test_importing_the_cli_loads_no_hash_library():
    """Every command and every `bench` child imports `boxcast.cli`; it
    leaves `hashlib`, and the OpenSSL that `hashlib` loads, unimported.
    Weight files are checked with `zlib`'s CRC-32 and temporary names come
    from `os.urandom`."""
    code = "import sys, boxcast.cli; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout == "False\n"
