"""The committed benchmark imports sketchls names that must keep resolving.

``perfbench/bench.py`` is parsed, not imported, so this check needs none of
the benchmark's own dependencies and runs no benchmark code.
"""

import ast
import importlib
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
