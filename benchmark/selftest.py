"""Tests of the benchmark itself (not collected by the repo's test run).

    python3 -m pytest -q benchmark/selftest.py

Takes about a minute: it makes three traced passes of every workload.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in tracing.LAYER_METRICS.items() if unit in ("count", "B")]
# The P2 input is ASCII, so its length depends on the pixel values.
SEED_DEPENDENT = {"imagebench.read_bytes"}


def traced_pass(name, seed, workdir):
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.prepare()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("bench", "pass"):
        wl.run()
    return wl.cells(), tracer.metrics(), tracer.missing


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def passes(request, tmp_path_factory):
    """Two traced passes at seed 0 and one at seed 1 of one workload."""
    name = request.param
    return name, [
        traced_pass(name, seed, tmp_path_factory.mktemp(f"{name}-{i}"))
        for i, seed in enumerate((0, 0, 1))
    ]


def test_counts_repeat_exactly(passes):
    _, [(_, a, _), (_, b, _), _] = passes
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}


def test_seed_changes_inputs_not_counts(passes):
    _, [(cells0, a, _), _, (cells1, c, _)] = passes
    assert cells0 != cells1
    assert {k: a[k] for k in COUNTS if k not in SEED_DEPENDENT} == {
        k: c[k] for k in COUNTS if k not in SEED_DEPENDENT
    }


def test_every_boundary_is_present(passes):
    _, [(_, _, missing), _, _] = passes
    assert missing == []


def test_self_times_account_for_traced_wall(passes):
    _, [(_, m, _), _, _] = passes
    total = sum(m[name] for name in tracing.SELF_TIME_METRICS)
    assert math.isclose(total, m["trace.pass_s"], rel_tol=1e-9)


def test_wrappers_removed_after_run():
    tracer = tracing.Tracer()
    targets = [
        (tracer.resolve(owner), attr) for owner, attr, _, _ in tracing.BOUNDARIES
    ] + [(tracing.np.fft, name) for name in tracing.FFT_TRANSFORMS if hasattr(tracing.np.fft, name)]
    before = [getattr(obj, attr) for obj, attr in targets]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert getattr(*targets[0]) is not before[0]
            raise RuntimeError("pass failed")
    assert all(getattr(obj, attr) is fn for (obj, attr), fn in zip(targets, before))


def test_calibration_runs_no_interpcomp():
    """The scale of every reported time must not move with the program."""
    code = (
        "import sys, calibrate; calibrate.Calibrator().speed(); "
        "print(any(m.split('.')[0] == 'interpcomp' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    assert out.strip() == "False"


def test_cell_tolerances():
    ref = {"a": 100.0, "b": 280.0}

    def ok(cells):
        return all(passed for _, passed in workloads.compare_cells(cells, ref, 1e-3))

    assert ok({"a": 100.0009, "b": 241.0})
    assert not ok({"a": 100.002, "b": 280.0})
    assert not ok({"a": 100.0, "b": 239.0})
    assert not ok({"a": 100.0})
    assert not ok({"a": math.nan, "b": 280.0})


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "convergence_1d",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = tracing.LAYER_METRICS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "convergence_1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
