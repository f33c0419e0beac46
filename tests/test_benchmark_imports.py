"""Every name that ``benchmark/`` imports from ``interpcomp`` resolves.

The benchmark runs the program through these names, so a refactor that
drops or moves one would stop every benchmark run; it fails here first.
The benchmark's files are only parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def benchmark_imports():
    """(file, module, name) of every ``from interpcomp... import name`` in ``benchmark/*.py``."""
    found = []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a relative import has no module, and none of them is interpcomp
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("interpcomp"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_imports_resolve():
    found = benchmark_imports()
    assert found
    for where in found:
        _, module, name = where
        owner = importlib.import_module(module)
        if not hasattr(owner, name) and hasattr(owner, "__path__"):
            importlib.import_module(f"{module}.{name}")  # a submodule binds its name
        assert hasattr(owner, name), where
