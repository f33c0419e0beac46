"""Command-line experiment harness.

Each subcommand reproduces one family of experiments as a CSV file with a
header row and full round-trip float formatting, deterministic for a given
seed.  Relative output paths resolve against $INTERPCOMP_OUT_DIR when set.

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
    psnr_benchmark,
    read_pgm,
    write_pgm,
)
from .samplers import InterpKind, sample
from .signal_core import ConfigurationError, GridSpec, UsageError, add_awgn, gen_bandlimited
from .solver import ChebyshevAccel, ReconConfig, ReconOperator, iterate

DEFAULT_TRIALS = 50
DEFAULT_POWER_DB = 34.0
OUT_DIR_ENV = "INTERPCOMP_OUT_DIR"


def _fmt(value) -> str:
    """Round-trip formatting; infinities spelled 'inf'."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


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


def _kind(name: str) -> InterpKind:
    try:
        return InterpKind(name)
    except ValueError:
        raise UsageError(f"--kind must be 'sh' or 'li', got {name!r}")


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _nonempty(values: list, flag: str) -> list:
    """``values``, or a UsageError naming ``flag`` when the comma list held none."""
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


def _configs(args, kind, series) -> List[ReconConfig]:
    """One solve per (modules, relax, k_rate) of ``series``, on the 1-D or 2-D trial grid.

    All are built, and so checked, before the first trial runs.
    """
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    configs = []
    for modules, relax, k_rate in series:
        if args.dims == 1:
            grid = GridSpec(args.n_coarse, args.ticks, k_rate)
        else:
            grid = (GridSpec(args.n_coarse_2d, args.ticks_2d, k_rate),) * 2
        op = ReconOperator(grid, kind, modules)
        configs.append(ReconConfig(op, relax=relax, iterations=args.iterations))
    return configs


def _mean_traces(args, configs, noise_db=None) -> list:
    """Mean initial SNR and mean per-iteration SNR trace of each configuration over the trials.

    A trial's signal and samples are made once per grid and shared by every
    configuration on that grid.
    """
    inits, traces = [[] for _ in configs], [[] for _ in configs]
    for t in range(args.trials):
        seed = args.seed + t
        trials = {}
        for i, cfg in enumerate(configs):
            grid = cfg.operator.grid
            if grid not in trials:
                x = gen_bandlimited(seed, grid, DEFAULT_POWER_DB)
                observed = add_awgn(x, noise_db, seed + 10_000_019) if noise_db is not None else x
                trials[grid] = x, sample(observed)
            x, samples = trials[grid]
            rep = iterate(samples, cfg, reference=x)
            inits[i].append(rep.snr_initial_db)
            traces[i].append(rep.snr_trace_db)
    return [(float(np.mean(a)), np.mean(np.asarray(b), axis=0)) for a, b in zip(inits, traces)]


def cmd_convergence(args) -> int:
    """Mean SNR per iteration for each module count.

    Serves ``noise`` too: when ``args.noise_power_db`` is set, AWGN of that
    power is added to every input signal and reported in a last column.
    """
    kind = _kind(args.kind)
    noise_db = args.noise_power_db
    header = ["method", "modules", "lambda", "k_rate", "iteration", "mean_snr_db", "trials", "seed"]
    extra = ()
    if noise_db is not None:
        header.append("noise_power_db")
        extra = (noise_db,)
    series = [(m, args.relax, args.k_rate) for m in _nonempty(args.modules, "--modules")]
    rows = []
    configs = _configs(args, kind, series)
    for cfg, (_, trace) in zip(configs, _mean_traces(args, configs, noise_db)):
        for it, snr in enumerate(trace, start=1):
            rows.append(
                (kind.value, cfg.operator.modules, args.relax, args.k_rate, it, float(snr),
                 args.trials, args.seed, *extra)
            )
    path = _write_csv(args.out, header, rows)
    print(path)
    return 0


def cmd_lambda_sweep(args) -> int:
    kind = _kind(args.kind)
    lams = _nonempty(args.lambda_grid, "--lambda-grid")
    for lam in lams:
        if not 0.0 < lam < 2.0:
            raise UsageError(f"lambda grid values must lie in (0, 2), got {lam}")
    rows = []
    configs = _configs(args, kind, [(args.modules_single, lam, args.k_rate) for lam in lams])
    for cfg, (init, trace) in zip(configs, _mean_traces(args, configs)):
        rows.append((cfg.relax, (float(trace[-1]) - init) / args.iterations))
    path = _write_csv(args.out, ["lambda", "avg_db_per_iteration"], rows)
    print(path)
    return 0


def cmd_rate(args) -> int:
    kind = _kind(args.kind)
    ks = _nonempty(args.k_rates, "--k-rates")
    per_rate = []
    configs = _configs(args, kind, [(args.modules_single, args.relax, k) for k in ks])
    for k, (init, trace) in zip(ks, _mean_traces(args, configs)):
        per_rate.append((k, init, trace, (float(trace[-1]) - init) / args.iterations))
    base_gain = per_rate[0][3]
    rows = []
    for k, init, trace, gain in per_rate:
        for it, snr in enumerate(trace, start=1):
            rows.append((k, it, float(snr), gain, gain - base_gain))
    path = _write_csv(
        args.out,
        ["k_rate", "iteration", "mean_snr_db", "avg_db_per_iter", "gain_diff_vs_first"],
        rows,
    )
    print(path)
    return 0


def cmd_analyze(args) -> int:
    kind = _kind(args.kind)
    res = ana.analyze(kind, args.modules_single, args.relax, args.k_rate)
    adds, mults = ana.op_counts(
        args.iterations, args.fft_block, args.modules_single == 1
    )
    pairs = [
        ("kind", kind.value),
        ("modules", args.modules_single),
        ("lambda", args.relax),
        ("k_rate", args.k_rate),
        ("contraction_factor", res.r),
        ("lambda_opt_minimax", res.lambda_opt),
        ("predicted_db_per_iteration", res.db_per_iter),
        ("noise_coeff", res.noise_coeff if res.noise_coeff is not None else "n/a"),
        ("adds_per_sample", adds),
        ("mults_per_sample", mults),
    ]
    if args.modules_single == 1:
        opt = ana.lambda_opt_paper(kind, 1)
        pairs.insert(6, ("lambda_opt_recomputed", opt.recomputed))
        pairs.insert(7, ("lambda_opt_paper_printed", opt.paper_printed))
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["parameter", "value"])
        for key, val in pairs:
            writer.writerow([key, _fmt(val) if isinstance(val, float) else val])
    else:
        width = max(len(k) for k, _ in pairs)
        for key, val in pairs:
            print(f"{key:<{width}}  {_fmt(val) if isinstance(val, float) else val}")
    return 0


def _parse_method(token: str, factor: int, relax: float, acceleration) -> EnlargeConfig:
    """bilinear | iterative:ITERS | hybrid:ITERS:MODULES, at the given factor and relaxation."""
    name, *fields = token.split(":")
    try:
        counts = [int(f) for f in fields]
    except ValueError:
        raise UsageError(f"method {token!r}: ITERS and MODULES must be integers") from None
    common = dict(factor=factor, relax=relax, acceleration=acceleration)
    if name == "bilinear":
        return EnlargeConfig(method="bilinear", **common)
    if name == "iterative":
        iters = counts[0] if counts else 2
        return EnlargeConfig(method="iterative", iterations=iters, **common)
    if name == "hybrid":
        iters = counts[0] if counts else 2
        modules = counts[1] if len(counts) > 1 else 1
        return EnlargeConfig(method="hybrid", iterations=iters, modules=modules, **common)
    raise UsageError(f"unknown method {token!r}; use bilinear, iterative:N, hybrid:N:M")


def cmd_image(args) -> int:
    original = read_pgm(args.image)
    accel = ChebyshevAccel(args.frame_a, args.frame_b) if args.accelerate else None
    methods = [
        _parse_method(tok, args.factor, args.relax, accel) for tok in args.methods.split(",")
    ]
    out_dir = _resolve_out(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    low = decimate(original, args.factor)
    write_pgm(low, os.path.join(out_dir, "decimated.pgm"))
    rows = []
    for cfg, psnr, recon in psnr_benchmark(original, methods):
        tag = cfg.label.replace("(", "_").replace(")", "").replace(",", "_")
        write_pgm(recon, os.path.join(out_dir, f"recon_{tag}.pgm"))
        err = np.abs(
            recon.pixels.astype(np.float64) - original.pixels.astype(np.float64)
        )
        peak = err.max()
        scaled = np.zeros_like(err) if peak == 0 else err * (255.0 / peak)
        write_pgm(
            GrayImage(np.rint(scaled).astype(np.uint8)),
            os.path.join(out_dir, f"err_{tag}.pgm"),
        )
        relax = cfg.relax if cfg.iterations else ""  # no lambda where nothing iterated
        rows.append((cfg.label, cfg.factor, cfg.iterations, cfg.modules, relax, psnr))
    path = _write_csv(
        os.path.join(out_dir, "psnr.csv"),
        ["method", "factor", "iters", "modules", "lambda", "psnr_db"],
        rows,
    )
    print(path)
    return 0


def _add_common(p: argparse.ArgumentParser, *, trials=True):
    """The configuration flags; ``trials`` adds those of the trial-running subcommands."""
    p.add_argument("--kind", default="sh", choices=["sh", "li"], help="interpolator")
    p.add_argument("--lambda", dest="relax", type=float, default=1.0, help="relaxation parameter")
    p.add_argument("--k-rate", type=int, default=1, help="sampling rate multiple of Nyquist")
    p.add_argument("--iterations", type=int, default=10)
    if not trials:
        return
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=1, choices=[1, 2], help="1-D signals or 2-D fields")
    p.add_argument("--n-coarse", type=int, default=128, help="coarse samples (1-D)")
    p.add_argument("--ticks", type=int, default=16, help="fine ticks per sampling interval (1-D)")
    p.add_argument("--n-coarse-2d", type=int, default=32, help="lattice samples per axis (2-D)")
    p.add_argument("--ticks-2d", type=int, default=8, help="fine ticks per interval (2-D)")


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

    p = sub.add_parser("lambda-sweep", help="average dB/iteration over a relaxation grid")
    _add_common(p)
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

    p = sub.add_parser("rate", help="traces at several sampling-rate multiples")
    _add_common(p)
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
        return args.func(args)
    except (ConfigurationError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
