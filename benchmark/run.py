"""Run one interpcomp benchmark workload and print its metrics.

    python3 benchmark/run.py --workload enlarge_256 --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the workload's passes run untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are reported.  Every pass's outputs are
checked.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

Every time it reports is scaled to the reference machine speed: it times the
fixed calibration pass of ``calibrate.py`` before and after each pass and
each set-up, and multiplies the pass time by ``REFERENCE_S`` over the mean
of those two durations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# setup_s is the median of at least SETUP_REPEATS set-ups (import, inputs and
# warm-up pass), repeated until they have taken SETUP_MIN_S in all, so that a
# cheap set-up is sampled more often
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "quality_db": "dB",
    "check_pass_rate": "1",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def environment(numpy_version):
    """Machine and interpreter facts recorded next to every result."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    caches = {"l2": None, "l3": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache": caches["l2"],
        "l3_cache": caches["l3"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def clear_caches():
    """Empty every functools cache in interpcomp, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "interpcomp" or name.startswith("interpcomp."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def percentile_line(samples):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median of {len(samples)} passes"
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        cut = statistics.quantiles(samples, n=100)[q - 1]
        text += f"; p{q} {cut:.4f} s"
    return text


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, checks, where):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{where}: {name}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "interpcomp").is_dir():
        sys.exit(f"error: interpcomp sources not found under {ROOT / 'src'}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    t0 = perf_counter()
    import numpy as np
    import workloads
    import_s = perf_counter() - t0

    from calibrate import REFERENCE_S, Calibrator
    from tracing import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    with open(BENCH_DIR / "reference.json") as fh:
        stored = json.load(fh)["cells"][args.workload].get(str(args.seed))

    checks = Checks()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        calibrator = Calibrator(wl.calibration_reps)
        raw_setups, setups = [], []
        while not setups or not args.trace and (
            len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_MIN_S
        ):
            clear_caches()
            t = perf_counter()
            wl.prepare()
            wl.run()
            raw_setups.append(import_s + perf_counter() - t)
            setups.append(raw_setups[-1] * calibrator.speed())
        warm = wl.cells()
        expected = stored if stored is not None else warm

        def verify(where):
            cells = wl.cells()
            checks.add(workloads.compare_cells(cells, expected, wl.tol_db), where)
            checks.add(wl.consistency(), where)
            return cells

        verify("warm-up")
        walls, passes, traced, tracer = [], [], [], Tracer()
        start = perf_counter()
        while True:
            n = len(walls) + len(traced) + 1
            if args.trace and len(traced) < len(walls):
                tracer.reset()
                with tracer.installed(), tracer.span("bench", "pass"):
                    wl.run()
                speed = calibrator.speed()
                sample = {
                    name: value * speed if LAYER_METRICS[name] == "s" else value
                    for name, value in tracer.metrics().items()
                }
                sample.update(wl.layer_extras(verify(f"pass {n}")))
                traced.append(sample)
            else:
                t = perf_counter()
                wl.run()
                walls.append(perf_counter() - t)
                passes.append(walls[-1] * calibrator.speed())
                verify(f"pass {n}")
            if perf_counter() - start >= args.seconds and (traced or not args.trace):
                break
        quality = wl.quality(wl.cells())
    checks.add([workloads.oracle_probe(args.seed)], "probe")

    pass_s = statistics.median(passes)
    if args.trace:
        units = LAYER_METRICS
        metrics = {}
        for name, unit in units.items():
            values = [s.get(name, 0) for s in traced]
            if unit in ("count", "B", "iter"):
                checks.add([(f"{name} repeats", len(set(values)) == 1)], "traced passes")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - pass_s
        lines = [f"{name:28s} {value:.6g} {units[name]}" for name, value in metrics.items()]
        lines.append(f"({len(traced)} traced and {len(walls)} untraced passes)")
        lines += [f"not traced, absent from the program: {m}" for m in tracer.missing]
    else:
        units = END_TO_END_UNITS
        error_rate = len(checks.failures) / checks.attempted
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "throughput": wl.work / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_db": quality,
            "check_pass_rate": 1.0 - error_rate,
        }
        lines = [
            f"setup_s          {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups, "
            f"import {import_s:.4f} s included; unscaled {statistics.median(raw_setups):.4f} s)",
            f"pass_s           {pass_s:.4f} s ({percentile_line(passes)}; unscaled wall "
            f"{statistics.median(walls):.4f} s)",
            f"calibration      {statistics.median(calibrator.times):.4f} s median "
            f"(reference {REFERENCE_S} s)",
            f"throughput       {metrics['throughput']:.4f} {wl.work_unit}/s "
            f"({wl.work:g} {wl.work_unit} per pass)",
            f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
            f"quality_db       {quality:.4f} dB",
            f"check_pass_rate  {metrics['check_pass_rate']:.4g} "
            f"(error_rate {error_rate:.4g}: {len(checks.failures)} of {checks.attempted} failed)",
        ]
    print(f"# {wl.name} seed {args.seed} trace {args.trace}, checked against the "
          f"{'stored' if stored is not None else 'warm-up'} reference")
    print("\n".join(lines))
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"env": environment(np.__version__)}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
