"""Regenerate reference.json: the output cells of every workload for seeds 0..N-1.

    python3 benchmark/make_reference.py --seeds 100

Run this only on a commit whose outputs are known to be right (the
reference was made at the commit that introduced the benchmark); a change
that alters the outputs on purpose regenerates it and says why.  Takes about
8 s per seed on a 2-CPU x86 box.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=100)
    args = p.parse_args(argv)
    cells = {}
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            cells[name] = {}
            for seed in range(args.seeds):
                wl = cls(seed, Path(tmp))
                wl.prepare()
                wl.run()
                cells[name][str(seed)] = wl.cells()
            print(f"{name}: {args.seeds} seeds", file=sys.stderr)
    doc = {
        "about": "Output cells (dB) per workload and seed; run.py checks every pass "
                 "against them. See README.md, 'Output checks'.",
        "cells": cells,
    }
    with open(BENCH_DIR / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
