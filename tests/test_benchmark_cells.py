"""The ``convergence_1d`` benchmark cells at every seed that ``benchmark/reference.json`` stores.

The benchmark's own workload runs each pass and its own ``compare_cells``
checks the cells, under the benchmark's tolerances: 1e-3 dB, or both cells
at or above 240 dB, on the float64 floor.  A benchmark run checks one seed;
this checks them all, so a change that moves trial cells by rounding shows
here whether any stored seed leaves the tolerance.  Nothing under
``benchmark/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARK))
    return workloads


def test_convergence_1d_cells_at_every_stored_seed(workloads, tmp_path):
    with open(BENCHMARK / "reference.json") as fh:
        stored = json.load(fh)["cells"]["convergence_1d"]
    assert len(stored) >= 100
    failed = []
    for seed, expected in stored.items():
        wl = workloads.Convergence1D(int(seed), tmp_path)
        wl.run()
        checks = workloads.compare_cells(wl.cells(), expected, wl.tol_db)
        failed += [(seed, name) for name, ok in checks if not ok]
    assert failed == []
