"""Command-line experiment harness.

Each subcommand reproduces one family of experiments as a CSV file with a
header row and full round-trip float formatting, deterministic for a given
seed.  Relative output paths resolve against $INTERPCOMP_OUT_DIR when set.
The trial-running subcommands solve on a grid of ``--dims`` equal axes, each
of ``--n-coarse`` samples and ``--ticks`` fine ticks per sample; the trials
run in chunks of bounded memory, each drawn, sampled and scored as one array
for every configuration on its grid (:func:`_mean_traces`).  Each subcommand
returns the path of the CSV it wrote and :func:`main` prints it; ``analyze``
prints its table to stdout instead.

Subcommands: convergence, lambda-sweep, noise, rate, analyze, image.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import analysis as ana
from .imagebench import (
    EnlargeConfig,
    GrayImage,
    decimate,
    enlarge,
    read_pgm,
    write_pgm,
)
from .samplers import InterpKind, lattice
from .signal_core import ConfigurationError, GridSpec, _awgn, _check_count, _draws, psnr_db
from .solver import BATCH_POINTS, ChebyshevAccel, ReconConfig, ReconOperator, _traces

DEFAULT_TRIALS = 50
DEFAULT_POWER_DB = 34.0
DEFAULT_GRID = {1: (128, 16), 2: (32, 8)}  # --dims -> (--n-coarse, --ticks) when not given
OUT_DIR_ENV = "INTERPCOMP_OUT_DIR"


def _fmt(value) -> str:
    """Round-trip formatting of a float (infinities spell 'inf'); ``str`` of anything else."""
    return repr(value) if isinstance(value, float) else str(value)


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _write_csv(path: str, header: Sequence[str], rows) -> str:
    path = _resolve_out(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _nonempty(values: list, flag: str) -> list:
    """``values``, or a ConfigurationError naming ``flag`` when the comma list held none."""
    if not values:
        raise ConfigurationError(f"{flag} needs at least one value")
    return values


def _configs(args, kind, series) -> List[ReconConfig]:
    """One solve per (modules, relax, k_rate) of ``series``, on the trial grid of ``--dims`` axes.

    All are built, and so checked, before the first trial runs.
    """
    _check_count(args.trials, "--trials", 1)
    _check_count(args.seed, "--seed", 0)
    n_coarse, ticks = DEFAULT_GRID[args.dims]
    n_coarse = n_coarse if args.n_coarse is None else args.n_coarse
    ticks = ticks if args.ticks is None else args.ticks
    configs = []
    for modules, relax, k_rate in series:
        op = ReconOperator((GridSpec(n_coarse, ticks, k_rate),) * args.dims, kind, modules)
        configs.append(ReconConfig(op, relax=relax, iterations=args.iterations))
    return configs


def _mean_traces(args, series, noise_db=None) -> list:
    """``(cfg, mean SNR trace, dB gained per iteration)`` of each configuration of ``series``.

    The gain runs from the mean initial SNR to the trace's last value.
    Every configuration is built and checked (:func:`_configs`) before the
    first trial.  The trials run in chunks of at most ``BATCH_POINTS``
    fine-grid points, or of one trial where a trial alone is larger, so
    memory does not grow with ``--trials``.  Per grid, a chunk is one array
    from draw to score: its signals drawn with one transform pair
    (``signal_core._draws``), the noise added to the whole stack, its lattice
    slice as the samples, and one :func:`solver._traces` call that checks
    them once and scores every configuration on the grid.  The cells are
    bitwise those of one draw and one call per trial and configuration.
    """
    configs = _configs(args, InterpKind(args.kind), series)
    inits, traces = [[] for _ in configs], [[] for _ in configs]
    for grid in dict.fromkeys(cfg.operator.grid for cfg in configs):
        on_grid = [i for i, cfg in enumerate(configs) if cfg.operator.grid == grid]
        size = max(1, BATCH_POINTS // math.prod([g.n_fine for g in grid]))
        for start in range(args.seed, args.seed + args.trials, size):
            seeds = range(start, min(start + size, args.seed + args.trials))
            xs = _draws(seeds, grid, DEFAULT_POWER_DB)
            noisy = xs if noise_db is None else xs + _awgn(
                [seed + 10_000_019 for seed in seeds], xs.shape[1:], noise_db
            )
            coarse = noisy[(slice(None),) + lattice(grid)]
            cells = _traces(coarse, [configs[i] for i in on_grid], xs)
            for i, (init, trace) in zip(on_grid, cells):
                inits[i] += init
                traces[i] += trace
    means = [(float(np.mean(a)), np.mean(np.asarray(b), axis=0)) for a, b in zip(inits, traces)]
    return [
        (cfg, trace, (float(trace[-1]) - init) / args.iterations)
        for cfg, (init, trace) in zip(configs, means)
    ]


def cmd_convergence(args) -> str:
    """Mean SNR per iteration for each module count.

    Serves ``noise`` too: when ``args.noise_power_db`` is set, AWGN of that
    power is added to every input signal and reported in a last column.
    """
    noise_db = args.noise_power_db
    header = ["method", "modules", "lambda", "k_rate", "iteration", "mean_snr_db", "trials", "seed"]
    extra = ()
    if noise_db is not None:
        header.append("noise_power_db")
        extra = (noise_db,)
    series = [(m, args.relax, args.k_rate) for m in _nonempty(args.modules, "--modules")]
    rows = [
        (args.kind, cfg.operator.modules, args.relax, args.k_rate, it, float(snr),
         args.trials, args.seed, *extra)
        for cfg, trace, _ in _mean_traces(args, series, noise_db)
        for it, snr in enumerate(trace, start=1)
    ]
    return _write_csv(args.out, header, rows)


def cmd_lambda_sweep(args) -> str:
    lams = _nonempty(args.lambda_grid, "--lambda-grid")
    for lam in lams:
        if not 0.0 < lam < 2.0:
            raise ConfigurationError(f"lambda grid values must lie in (0, 2), got {lam}")
    series = [(args.modules_single, lam, args.k_rate) for lam in lams]
    rows = [(cfg.relax, gain) for cfg, _, gain in _mean_traces(args, series)]
    return _write_csv(args.out, ["lambda", "avg_db_per_iteration"], rows)


def cmd_rate(args) -> str:
    ks = _nonempty(args.k_rates, "--k-rates")
    per_rate = _mean_traces(args, [(args.modules_single, args.relax, k) for k in ks])
    base_gain = per_rate[0][2]
    rows = [
        (k, it, float(snr), gain, gain - base_gain)
        for k, (_, trace, gain) in zip(ks, per_rate)
        for it, snr in enumerate(trace, start=1)
    ]
    header = ["k_rate", "iteration", "mean_snr_db", "avg_db_per_iter", "gain_diff_vs_first"]
    return _write_csv(args.out, header, rows)


def cmd_analyze(args) -> None:
    kind = InterpKind(args.kind)
    modules, relax, k_rate = args.modules_single, args.relax, args.k_rate
    r = ana.contraction_factor(kind, modules, relax, k_rate)
    pairs = [
        ("kind", kind.value),
        ("modules", modules),
        ("lambda", relax),
        ("k_rate", k_rate),
        ("contraction_factor", r),
        ("lambda_opt_minimax", ana.lambda_opt_minimax(kind, modules, k_rate)),
    ]
    if modules == 1:
        pairs += [
            ("lambda_opt_recomputed", ana.lambda_opt_paper(kind)),
            ("lambda_opt_paper_printed", ana.PAPER_PRINTED_LAMBDA_OPT[kind]),
        ]
    noise = ana.noise_tolerance_coeff(kind, modules, relax, iteration_k=2)
    adds, mults = ana.op_counts(args.iterations, args.fft_block, modules == 1)
    if modules > 1:  # the paper counts the plain method and the one-module hybrid only
        adds = mults = "n/a"
    pairs += [
        ("predicted_db_per_iteration", ana.predicted_gain_db(r) if 0.0 < r < 1.0 else math.nan),
        ("noise_coeff", "n/a" if noise is None else noise),
        ("adds_per_sample", adds),
        ("mults_per_sample", mults),
    ]
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["parameter", "value"])
        for key, val in pairs:
            writer.writerow([key, _fmt(val)])
    else:
        width = max(len(k) for k, _ in pairs)
        for key, val in pairs:
            print(f"{key:<{width}}  {_fmt(val)}")


def _parse_method(token: str, factor: int, relax: float, acceleration) -> EnlargeConfig:
    """bilinear | iterative:ITERS | hybrid:ITERS:MODULES, at the given factor and relaxation."""
    name, *fields = token.split(":")
    arity = {"bilinear": 0, "iterative": 1, "hybrid": 2}.get(name, -1)  # -1: no such method
    if len(fields) > arity:
        raise ConfigurationError(f"method {token!r}: use bilinear, iterative:N or hybrid:N:M")
    try:
        counts = [int(f) for f in fields]
    except ValueError:
        raise ConfigurationError(f"method {token!r}: ITERS and MODULES must be integers") from None
    return EnlargeConfig(  # EnlargeConfig's defaults fill what the token leaves out
        factor=factor, method=name, relax=relax, acceleration=acceleration,
        **dict(zip(("iterations", "modules"), counts)),
    )


def cmd_image(args) -> str:
    original = read_pgm(args.image)
    bounds = ChebyshevAccel(args.frame_a, args.frame_b)  # checked without --accelerate too
    accel = bounds if args.accelerate else None
    methods = [
        _parse_method(tok, args.factor, args.relax, accel) for tok in args.methods.split(",")
    ]
    out_dir = _resolve_out(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    low = decimate(original, args.factor)
    write_pgm(low, os.path.join(out_dir, "decimated.pgm"))
    recons = [enlarge(low, cfg) for cfg in methods]  # every method runs before any write
    rows = []
    for cfg, recon in zip(methods, recons):
        tag = cfg.label.replace("(", "_").replace(")", "").replace(",", "_")
        write_pgm(recon, os.path.join(out_dir, f"recon_{tag}.pgm"))
        err = np.abs(recon.pixels.astype(np.int16) - original.pixels)  # exact in int16
        peak = err.max()
        scaled = err * (255.0 / peak if peak else 0.0)
        write_pgm(
            GrayImage(np.rint(scaled).astype(np.uint8)),
            os.path.join(out_dir, f"err_{tag}.pgm"),
        )
        step = cfg.relax if cfg.acceleration is None else cfg.acceleration.step
        relax = step if cfg.iterations else ""  # no lambda where nothing iterated
        psnr = psnr_db(original.pixels, recon.pixels)
        rows.append((cfg.label, cfg.factor, cfg.iterations, cfg.modules, relax, psnr))
    header = ["method", "factor", "iters", "modules", "lambda", "psnr_db"]
    return _write_csv(os.path.join(out_dir, "psnr.csv"), header, rows)


def _add_common(p: argparse.ArgumentParser, *, trials=True, relax=True, k_rate=True):
    """The configuration flags; ``trials`` adds those of the trial-running subcommands."""
    p.add_argument("--kind", default="sh", choices=[k.value for k in InterpKind], help="interpolator")
    if relax:
        p.add_argument("--lambda", dest="relax", type=float, default=1.0, help="relaxation parameter")
    if k_rate:
        p.add_argument("--k-rate", type=int, default=1, help="sampling rate multiple of Nyquist")
    p.add_argument("--iterations", type=int, default=10)
    if not trials:
        return
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=1, choices=[1, 2], help="1-D signals or 2-D fields")
    p.add_argument(
        "--n-coarse", type=int, help="coarse samples per axis (default 128 in 1-D, 32 in 2-D)"
    )
    p.add_argument(
        "--ticks", type=int, help="fine ticks per sampling interval (default 16 in 1-D, 8 in 2-D)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interpcomp",
        description="Interpolation-distortion compensation experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="mean SNR vs iteration for a list of module counts")
    _add_common(p)
    p.add_argument("--modules", type=_int_list, default=[0, 1, 2], help="comma list, e.g. 0,1,2")
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(func=cmd_convergence, noise_power_db=None)

    # no abbreviations, so that a flag left out is not read as the list flag it begins
    p = sub.add_parser(
        "lambda-sweep", help="average dB/iteration over a relaxation grid", allow_abbrev=False
    )
    _add_common(p, relax=False)
    p.add_argument("--modules", dest="modules_single", type=int, default=1)
    p.add_argument(
        "--lambda-grid",
        dest="lambda_grid",
        type=_float_list,
        default=[round(0.05 * i, 2) for i in range(2, 40)],
        help="comma list of relaxation values in (0,2)",
    )
    p.add_argument("--out", default="lambda_sweep.csv")
    p.set_defaults(func=cmd_lambda_sweep)

    p = sub.add_parser("noise", help="convergence traces with AWGN added to the input signal")
    _add_common(p)
    p.add_argument("--modules", type=_int_list, default=[0, 1, 2, 4])
    p.add_argument("--noise-power-db", type=float, default=-20.0)
    p.add_argument("--out", default="noise.csv")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("rate", help="traces at several sampling-rate multiples", allow_abbrev=False)
    _add_common(p, k_rate=False)
    p.add_argument("--modules", dest="modules_single", type=int, default=1)
    p.add_argument("--k-rates", type=_int_list, default=[1, 2])
    p.add_argument("--out", default="rate.csv")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("analyze", help="closed-form constants for one configuration")
    _add_common(p, trials=False)
    p.add_argument("--modules", dest="modules_single", type=int, default=1)
    p.add_argument("--fft-block", type=int, default=2048)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("image", help="decimate + enlarge a PGM and report PSNR per method")
    p.add_argument("image", help="input PGM (P2 or P5, maxval 255)")
    p.add_argument("--factor", type=int, default=2)
    p.add_argument(
        "--methods",
        default="bilinear,iterative:2,iterative:10,hybrid:2:1",
        help="comma list: bilinear | iterative:N | hybrid:N:M",
    )
    p.add_argument("--lambda", dest="relax", type=float, default=1.0)
    p.add_argument("--accelerate", action="store_true", help="Chebyshev-accelerate the iteration")
    p.add_argument("--frame-a", type=float, default=1.0)
    p.add_argument("--frame-b", type=float, default=2.0)
    p.add_argument("--out-dir", default="image_bench")
    p.set_defaults(func=cmd_image)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = args.func(args)
        if path is not None:
            print(path)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
