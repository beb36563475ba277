"""The committed benchmark imports sketchls names that must keep resolving,
and calls them with arguments that their signatures must keep accepting.

``perfbench/bench.py`` is parsed, not imported, so these checks need none of
the benchmark's own dependencies and run no benchmark code.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"


def sketchls_imports():
    tree = ast.parse(BENCH.read_text(encoding="utf-8"), filename=str(BENCH))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "sketchls" or node.module.startswith("sketchls."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sketchls" or alias.name.startswith("sketchls."):
                    yield alias.name, None


def test_bench_imports_resolve():
    names = list(sketchls_imports())
    assert ("sketchls", "solve_robust_cls") in names
    missing = []
    for module_name, name in names:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            missing.append(f"{module_name}.{name}")
    assert not missing, f"perfbench/bench.py imports names that no longer exist: {missing}"


def sketchls_calls():
    """``(callee, positional args, keywords, line)`` for every call in bench.py
    that reaches a name imported from sketchls, directly or through a
    tracer's ``tr.call(label, fn, *args, **kwargs)``."""
    imported = {name: module for module, name in sketchls_imports() if name is not None}
    tree = ast.parse(BENCH.read_text(encoding="utf-8"), filename=str(BENCH))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "call" and len(args) >= 2:
            name, args = getattr(args[1], "id", None), args[2:]
        else:
            continue
        if name not in imported:
            continue
        callee = getattr(importlib.import_module(imported[name]), name)
        yield callee, args, node.keywords, node.lineno


def test_bench_call_keywords_match_signatures():
    checked, broken = set(), []
    for callee, args, keywords, line in sketchls_calls():
        names = [kw.arg for kw in keywords]
        checked.update((callee.__name__, name) for name in names)
        try:
            inspect.signature(callee).bind(*[None] * len(args), **dict.fromkeys(names))
        except TypeError as exc:
            broken.append(f"line {line}: {callee.__name__}: {exc}")
    assert {("preconditioned_lsqr", k) for k in ("R", "tol", "max_iter")} <= checked
    assert ("solve_blendenpik", "lsqr_tol") in checked
    assert not broken, f"perfbench/bench.py calls no longer match their signatures: {broken}"
