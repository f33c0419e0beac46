"""Measure the baseline: ten untraced runs and one traced run per workload.

    python3 benchmark/make_baseline.py --seconds 25 --out benchmark/baseline.json

Runs ``run.py`` once per seed (0 to 9) on every workload with ``--trace 0``
and once with ``--trace 1`` at seed 0, prints the median, quartiles and
spread (interquartile range over median) of every end-to-end metric, and
writes them with every value to ``--out``.  Takes about 25 minutes at 25 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HELD_OUT_SEED = 97


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: output checks failed")
    return json.loads(out[-2])["env"], result["metrics"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(args.seeds))
    end_to_end, per_layer, env = {}, {}, None
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            env, metrics = run(name, seed, args.seconds, 0)
            runs.append(metrics)
        end_to_end[name] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            end_to_end[name][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "iqr_over_median": spread, "values": values,
            }
            print(f"{name:16s} {metric['name']:16s} median {median:.6g} "
                  f"spread {spread:.4f} (bound {metric['bound']})", flush=True)
        _, traced = run(name, 0, args.seconds, 1)
        per_layer[name] = {k: v["value"] for k, v in traced.items()}
    if args.out:
        doc = {
            "about": f"Ten untraced runs per workload (seeds {seeds[0]}-{seeds[-1]}) and one "
                     f"traced run (seed 0), each of {args.seconds} s, on the machine in env. "
                     f"Seed {HELD_OUT_SEED} is held out for confirming later claims.",
            "run_seconds": args.seconds,
            "seeds": seeds,
            "held_out_seed": HELD_OUT_SEED,
            "env": env,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
