"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload is one pass of real interpcomp work.  ``prepare`` builds the
inputs from the seed, ``run`` is the timed pass, ``cells`` reads the pass's
outputs as named numbers (SNR or PSNR in dB) and ``consistency`` returns
extra pass/fail checks that need no stored reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from interpcomp import cli, imagebench
from interpcomp.imagebench import EnlargeConfig
from interpcomp.samplers import InterpKind, sample
from interpcomp.signal_core import GridSpec, gen_bandlimited, psnr_db
from interpcomp.solver import (
    ChebyshevAccel,
    ReconConfig,
    ReconOperator,
    fixed_point_oracle,
    iterate,
)

SCENE_SIZE = 512

# Output-check tolerances (see README.md, "Output checks").
# SNR cells: a rounding-level change of an estimate moves a cell s dB by
# about 4.3 * 10**((s - 290) / 10) dB, under 5e-5 dB for s < 240, while one
# iteration more or fewer moves a convergence cell by 9 dB or more.
SNR_TOL_DB = 1e-3
# PSNR cells: one output pixel off by one level moves a PSNR near 49 dB by
# about 6e-5 dB; one iteration more or fewer moves iterative(10) by 4e-4 dB.
PSNR_TOL_DB = 1e-4
# Cells whose reference reaches FLOOR_DB sit on the float64 floor (about
# 290 dB), where rounding alone moves them by whole dB; they only have to
# stay at or above FLOOR_DB.
FLOOR_DB = 240.0
# The oracle probe: with modules=1 the error falls ~24 dB per iteration, so 20
# iterations reach the float64 floor (at most 6e-15 relative over 200 seeds)
# and 1e-9 leaves five orders of slack; 5 iterations would still fail it.
PROBE_GRID = GridSpec(32, 8)
PROBE_ITERATIONS = 20
PROBE_RTOL = 1e-9


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"interpcomp {' '.join(argv)} exited with {code}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Defaults: nothing to build, no consistency checks, no extra layer numbers."""

    # repeats of the calibration pass after each pass (their median counts),
    # together about a tenth of the pass
    calibration_reps = 1

    def prepare(self):
        pass

    def consistency(self):
        return []

    def layer_extras(self, cells):
        return {}


class Convergence1D(Workload):
    """The `convergence` CLI at its defaults: 3 x 50 small 1-D solves with SNR traces."""

    name = "convergence_1d"
    trials = 50  # the CLI default; one pass already takes ~0.2 s
    modules = (0, 1, 2)
    work = trials * len(modules)
    work_unit = "solves"
    tol_db = SNR_TOL_DB

    def __init__(self, seed, workdir):
        self.out = workdir / "convergence.csv"
        self.argv = [
            "convergence", "--seed", str(seed), "--trials", str(self.trials),
            "--out", str(self.out),
        ]

    def run(self):
        _run_cli(self.argv)

    def cells(self):
        return {
            f"m{row['modules']}.it{row['iteration']}": float(row["mean_snr_db"])
            for row in _read_csv(self.out)
        }

    def quality(self, cells):
        # modules 1 and 2 end on the float64 floor, so only m0 tracks accuracy
        return cells["m0.it10"]

    def layer_extras(self, cells):
        """Iterations until the mean trace reaches 100 dB (11 if it never does)."""
        out = {}
        for m in self.modules:
            trace = [cells[f"m{m}.it{it}"] for it in range(1, 11)]
            out[f"solver.iters_to_100db.m{m}"] = next(
                (it for it, snr in enumerate(trace, start=1) if snr >= 100.0), 11
            )
        return out


class Enlarge256(Workload):
    """`enlarge` 256 -> 512 with all three solver paths, no I/O and no traces."""

    name = "enlarge_256"
    methods = {
        "iterative(10)": EnlargeConfig(method="iterative", iterations=10),
        "hybrid(10,1)": EnlargeConfig(method="hybrid", iterations=10, modules=1),
        "chebyshev(10)": EnlargeConfig(
            method="iterative", iterations=10, acceleration=ChebyshevAccel()
        ),
    }
    work = len(methods) * SCENE_SIZE * SCENE_SIZE / 1e6
    work_unit = "output Mpx"
    calibration_reps = 8
    tol_db = PSNR_TOL_DB

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self):
        self.scene = imagebench.synthetic_scene(SCENE_SIZE, SCENE_SIZE, self.seed)
        self.low = imagebench.decimate(self.scene, 2)

    def run(self):
        self.enlarged = {
            label: imagebench.enlarge(self.low, cfg) for label, cfg in self.methods.items()
        }

    def cells(self):
        return {
            label: psnr_db(self.scene.pixels, img.pixels)
            for label, img in self.enlarged.items()
        }

    def quality(self, cells):
        return min(cells.values())


class ImageCliP2(Workload):
    """The `image` CLI at its defaults on a 512x512 ASCII (P2) PGM."""

    name = "image_cli_p2"
    solver_methods = ("iterative(2)", "iterative(10)", "hybrid(2,1)")
    work = SCENE_SIZE * SCENE_SIZE / 1e6
    work_unit = "input Mpx"
    calibration_reps = 8
    tol_db = PSNR_TOL_DB

    def __init__(self, seed, workdir):
        self.seed = seed
        self.pgm = workdir / "scene.pgm"
        self.out_dir = workdir / "image_out"
        self.argv = ["image", str(self.pgm), "--out-dir", str(self.out_dir)]

    def prepare(self):
        self.scene = imagebench.synthetic_scene(SCENE_SIZE, SCENE_SIZE, self.seed)
        imagebench.write_pgm(self.scene, self.pgm, ascii_format=True)

    def run(self):
        _run_cli(self.argv)

    def cells(self):
        return {
            row["method"]: float(row["psnr_db"])
            for row in _read_csv(self.out_dir / "psnr.csv")
        }

    def quality(self, cells):
        return min(cells[m] for m in self.solver_methods)

    def consistency(self):
        """The written images agree with the scene and with the CSV."""
        cells = self.cells()
        low = imagebench.read_pgm(self.out_dir / "decimated.pgm")
        checks = [(
            "decimated.pgm",
            np.array_equal(low.pixels, self.scene.pixels[::2, ::2]),
        )]
        for label, psnr in cells.items():
            tag = label.replace("(", "_").replace(")", "").replace(",", "_")
            recon = imagebench.read_pgm(self.out_dir / f"recon_{tag}.pgm")
            checks.append((
                f"recon_{tag}.pgm",
                math.isclose(psnr_db(self.scene.pixels, recon.pixels), psnr, rel_tol=1e-12),
            ))
        return checks


WORKLOADS = {w.name: w for w in (Convergence1D, Enlarge256, ImageCliP2)}


def compare_cells(cells, expected, tol_db):
    """One (name, ok) check per expected cell, under the stated tolerances."""
    checks = [("cell names", set(cells) == set(expected))]
    for key, ref in expected.items():
        got = cells.get(key, math.nan)
        on_floor = ref >= FLOOR_DB and got >= FLOOR_DB
        checks.append((key, on_floor or abs(got - ref) <= tol_db))
    return checks


def oracle_probe(seed):
    """A small 1-D solve by `iterate` must agree with the dense `fixed_point_oracle`."""
    observed = sample(gen_bandlimited(seed, PROBE_GRID, 34.0))
    op = ReconOperator(PROBE_GRID, InterpKind.SAMPLE_AND_HOLD, modules=1)
    est = iterate(observed, ReconConfig(op, iterations=PROBE_ITERATIONS)).estimate.values
    ref = fixed_point_oracle(observed, op).values
    return ("oracle probe", float(np.linalg.norm(est - ref)) <= PROBE_RTOL * float(np.linalg.norm(ref)))
