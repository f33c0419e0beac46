"""Command-line experiment harness.

Each subcommand reproduces one family of experiments as a CSV file with a
header row and full round-trip float formatting, deterministic for a given
seed.  Relative output paths resolve against $INTERPCOMP_OUT_DIR when set.
Every subcommand names its solves by ``--methods`` tokens of one grammar
(:func:`_methods`).  ``convergence`` runs every trial experiment: each
token at each of the comma lists ``--lambda`` and ``--k-rate``, and at each
``--noise-power-db`` if given, one CSV row per iteration that names its
token.  The trials solve on a grid of ``--dims`` equal axes, each of
``--n-coarse`` samples and ``--ticks`` fine ticks per sample; they run in
chunks of bounded memory, each drawn as spectra, sampled from the band and
scored as one array for every configuration on its grid, with no fine-grid
signal built (:func:`cmd_convergence`).  Each
subcommand returns the path of the CSV it wrote and :func:`main` prints
it; ``analyze`` prints its table instead.

Subcommands: convergence, analyze, image.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from . import analysis as ana
from .imagebench import EnlargeConfig, GrayImage, _enlarged, decimate, read_pgm, write_pgm
from .samplers import InterpKind, lattice
from .signal_core import (
    PEAK, ConfigurationError, GridSpec, _awgn, _band_samples, _check_count, _db_power, _draws,
    _snr_cell,
)
from .solver import BATCH_POINTS, ChebyshevAccel, ReconConfig, ReconOperator, _traces

DEFAULT_TRIALS = 50
DEFAULT_POWER_DB = 34.0
DEFAULT_GRID = {1: (128, 16), 2: (32, 8)}  # --dims -> (--n-coarse, --ticks) when not given
OUT_DIR_ENV = "INTERPCOMP_OUT_DIR"
# method -> how many integer fields its token may give: K iterations, then M cosine modules
_FIELDS = {"bilinear": (0,), "iterative": (1,), "hybrid": (2,), "chebyshev": (1, 2)}
_ALL = "bilinear | iterative:K | hybrid:K:M | chebyshev:K[:M]"
_TRIAL = "iterative:K | hybrid:K:M"  # the trials have no Chebyshev bounds of their own yet


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


def _methods(args, forms=_ALL, one=False) -> List[tuple]:
    """Each ``--methods`` token, one of ``forms``, as (EnlargeConfig method, K, M, accelerated).

    A count the token lacks reads 0; ``chebyshev`` accelerates the iterative
    method, or the hybrid when M is given.  Any other token, or a second one
    where ``one`` is set, is a ConfigurationError that names it.
    """
    tokens = _nonempty([tok for tok in args.methods.split(",") if tok], "--methods")
    if one and len(tokens) > 1:
        raise ConfigurationError(f"{args.command} takes one method, got {args.methods!r}")
    names = [form.split(":")[0] for form in forms.split(" | ")]
    methods = []
    for token in tokens:
        name, *fields = token.split(":")
        if name not in names or len(fields) not in _FIELDS[name]:
            raise ConfigurationError(f"method {token!r}: {args.command} takes {forms}")
        try:
            k, m = [int(f) for f in fields] + [0] * (2 - len(fields))
        except ValueError:
            raise ConfigurationError(f"method {token!r}: K and M must be integers") from None
        method = ("iterative", "hybrid")[len(fields) - 1] if name == "chebyshev" else name
        methods.append((method, k, m, name == "chebyshev"))
    return methods


def _configs(args) -> List[tuple]:
    """``(method token, ReconConfig)`` of each ``--methods`` token × ``--lambda`` × ``--k-rate``.

    In that order, each on the trial grid of ``--dims`` axes.  All of them,
    the counts and every ``--noise-power-db`` are checked before the first
    trial runs.  The token is canonical: it re-runs the configuration.
    """
    _check_count(args.trials, "--trials", 1)
    _check_count(args.seed, "--seed", 0)
    for noise_db in _nonempty(args.noise_power_db, "--noise-power-db"):
        if noise_db is not None:  # the default, [None], adds no noise
            _db_power(noise_db, "--noise-power-db")
    n_coarse, ticks = DEFAULT_GRID[args.dims]
    n_coarse = n_coarse if args.n_coarse is None else args.n_coarse
    ticks = ticks if args.ticks is None else args.ticks
    kind = InterpKind(args.kind)
    relaxes, k_rates = _nonempty(args.relax, "--lambda"), _nonempty(args.k_rate, "--k-rate")
    configs = []
    for method, iterations, modules, _ in _methods(args, _TRIAL):
        token = f"{method}:{iterations}" + (f":{modules}" if method == "hybrid" else "")
        for relax in relaxes:
            for k_rate in k_rates:
                op = ReconOperator((GridSpec(n_coarse, ticks, k_rate),) * args.dims, kind, modules)
                configs.append((token, ReconConfig(op, relax=relax, iterations=iterations)))
    return configs


def cmd_convergence(args) -> str:
    """Mean SNR per iteration of each configuration of :func:`_configs` at each noise power.

    A row's ``db_per_iteration`` is the configuration's gain from the mean
    initial SNR to its trace's last value, per iteration.  The trials run in
    chunks of at most ``BATCH_POINTS`` fine-grid points, or of one trial
    where a trial alone is larger, so memory does not grow with
    ``--trials``.  Per grid, a chunk is one array from draw to score: its
    signals' spectra drawn with one transform (``signal_core._draws``), their
    samples from one coarse inverse of the band (``_band_samples``), the
    lattice slice of one draw of unit-power fine-grid noise, and per noise
    power that noise scaled and added to them and one :func:`solver._traces`
    call that checks them once and scores every configuration on the grid.
    The cells are bitwise those of one draw and one call per trial and configuration.
    """
    configs, powers = _configs(args), args.noise_power_db
    cells = [[([], []) for _ in powers] for _ in configs]  # (inits, traces) per power
    for grid in dict.fromkeys(cfg.operator.grid for _, cfg in configs):
        on_grid = [i for i, (_, cfg) in enumerate(configs) if cfg.operator.grid == grid]
        shape = tuple([g.n_fine for g in grid])
        size = max(1, BATCH_POINTS // math.prod(shape))
        for start in range(args.seed, args.seed + args.trials, size):
            seeds = range(start, min(start + size, args.seed + args.trials))
            spectra = _draws(seeds, grid, DEFAULT_POWER_DB)
            clean = _band_samples(spectra, grid)
            unit = None if None in powers else _awgn(  # scaled to each power: _awgn's bitwise
                [seed + 10_000_019 for seed in seeds], shape, 0.0)[(slice(None),) + lattice(grid)]
            for p, noise_db in enumerate(powers):
                power = None if noise_db is None else _db_power(noise_db, "noise_power_db")
                coarse = clean if power is None else clean + unit * math.sqrt(power)
                scored = _traces(coarse, [configs[i][1] for i in on_grid], spectra)
                for i, (init, trace) in zip(on_grid, scored):
                    cells[i][p][0].extend(init)
                    cells[i][p][1].extend(trace)
    # `modules` repeats the token's M: readers key rows by it, as the benchmark does
    header = [
        "kind", "method", "modules", "lambda", "k_rate", "noise_power_db", "iteration",
        "mean_snr_db", "db_per_iteration", "trials", "seed",
    ]
    rows = []
    for (token, cfg), per_power in zip(configs, cells):
        for noise_db, (inits, traces) in zip(powers, per_power):
            trace = np.mean(np.asarray(traces), axis=0)
            gain = (float(trace[-1]) - float(np.mean(inits))) / cfg.iterations
            op, noise = cfg.operator, "" if noise_db is None else noise_db
            rows += [
                (args.kind, token, op.modules, cfg.relax, op.grid[0].rate_multiple, noise,
                 it, float(snr), gain, args.trials, args.seed)
                for it, snr in enumerate(trace, start=1)
            ]
    return _write_csv(_resolve_out(args.out), header, rows)


def cmd_analyze(args) -> None:
    kind = InterpKind(args.kind)
    ((_, iterations, modules, _),) = _methods(args, _TRIAL, one=True)
    r = ana.contraction_factor(kind, modules, args.relax, args.k_rate)
    pairs = [
        ("kind", kind.value),
        ("modules", modules),
        ("lambda", args.relax),
        ("k_rate", args.k_rate),
        ("contraction_factor", r),
        ("lambda_opt_minimax", ana.lambda_opt_minimax(kind, modules, args.k_rate)),
    ]
    if modules == 1:
        pairs += [
            ("lambda_opt_recomputed", ana.lambda_opt_paper(kind)),
            ("lambda_opt_paper_printed", ana.PAPER_PRINTED_LAMBDA_OPT[kind]),
        ]
    noise = ana.noise_tolerance_coeff(kind, modules, args.relax, iteration_k=2)
    adds, mults = ana.op_counts(iterations, args.fft_block, modules == 1)
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


def cmd_image(args) -> str:
    """Enlarge by each method from one forward cosine transform; PSNRs exact in integers."""
    original = read_pgm(args.image)
    bounds = ChebyshevAccel(args.frame_a, args.frame_b)  # checked with no chebyshev token too
    methods = [
        EnlargeConfig(args.factor, method, k, m, args.relax, bounds if accelerated else None)
        for method, k, m, accelerated in _methods(args)
    ]
    low = decimate(original, args.factor)
    recons = _enlarged(low, methods)  # so a failed solve leaves no output
    out_dir = _resolve_out(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    write_pgm(low, os.path.join(out_dir, "decimated.pgm"))
    rows = []
    for cfg, recon in zip(methods, recons):
        tag = cfg.label.replace("(", "_").replace(")", "").replace(",", "_")
        write_pgm(recon, os.path.join(out_dir, f"recon_{tag}.pgm"))
        err = np.abs(recon.pixels.astype(np.int16) - original.pixels)  # exact in int16
        peak = int(err.max())
        levels = np.rint(np.arange(peak + 1) * (255.0 / peak if peak else 0.0)).astype(np.uint8)
        write_pgm(GrayImage(levels.take(err)), os.path.join(out_dir, f"err_{tag}.pgm"))
        step = cfg.relax if cfg.acceleration is None else cfg.acceleration.step
        relax = step if cfg.iterations else ""  # no lambda where nothing iterated
        # an exact integer; below 2**53 (1.3e11 pixels) psnr_db's float sum is exact too
        sse = int(np.square(err, dtype=np.int32).sum(dtype=np.int64))
        psnr = _snr_cell(PEAK * PEAK, sse / err.size)
        rows.append((cfg.label, cfg.factor, cfg.iterations, cfg.modules, relax, psnr))
    header = ["method", "factor", "iters", "modules", "lambda", "psnr_db"]
    return _write_csv(os.path.join(out_dir, "psnr.csv"), header, rows)


def _add_kind_methods(p: argparse.ArgumentParser, methods: str) -> None:
    """``--kind`` and ``--methods``, ``methods`` the default, of the trials and ``analyze``."""
    kinds = [k.value for k in InterpKind]
    p.add_argument("--kind", default="sh", choices=kinds, help="interpolator")
    p.add_argument("--methods", default=methods, help=f"{_TRIAL}; K iterations, M modules")


@lru_cache(maxsize=None)  # one per process: parsing leaves it, and its defaults, unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interpcomp",
        description="Interpolation-distortion compensation experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="mean SNR vs iteration of every method and variant")
    _add_kind_methods(p, "iterative:10,hybrid:10:1,hybrid:10:2")
    p.add_argument("--lambda", dest="relax", type=_float_list, default="1.0", help="comma list")
    p.add_argument("--k-rate", type=_int_list, default="1", help="comma list of rate multiples")
    p.add_argument(
        "--noise-power-db", type=_float_list, default=[None],
        help="comma list of AWGN powers, default none; negative as --noise-power-db=-30,-20",
    )
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=1, choices=[1, 2], help="1-D signals or 2-D fields")
    p.add_argument(
        "--n-coarse", type=int, help="coarse samples per axis (default 128 in 1-D, 32 in 2-D)"
    )
    p.add_argument(
        "--ticks", type=int, help="fine ticks per sampling interval (default 16 in 1-D, 8 in 2-D)"
    )
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("analyze", help="closed-form constants for one configuration")
    _add_kind_methods(p, "hybrid:10:1")
    p.add_argument("--lambda", dest="relax", type=float, default=1.0, help="relaxation parameter")
    p.add_argument("--k-rate", type=int, default=1, help="sampling rate multiple of Nyquist")
    p.add_argument("--fft-block", type=int, default=2048)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("image", help="decimate + enlarge a PGM and report PSNR per method")
    p.add_argument("image", help="input PGM (P2 or P5, maxval 255)")
    p.add_argument("--factor", type=int, default=2)
    methods = "bilinear,iterative:2,iterative:10,hybrid:2:1"
    p.add_argument("--methods", default=methods, help=f"{_ALL}; K iterations, M modules")
    p.add_argument("--lambda", dest="relax", type=float, default=1.0)
    p.add_argument("--frame-a", type=float, default=1.0)
    p.add_argument("--frame-b", type=float, default=2.0)
    p.add_argument("--out-dir", default="image_bench")
    p.set_defaults(func=cmd_image)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
