import argparse
import copy
import csv
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from interpcomp import GridSpec, InterpKind, cli
from interpcomp.cli import build_parser, main
from interpcomp.analysis import op_counts
from interpcomp.imagebench import (
    EnlargeConfig, GrayImage, decimate, enlarge, read_pgm, synthetic_scene, write_pgm,
)
from interpcomp.signal_core import _awgn, psnr_db
from interpcomp.solver import ChebyshevAccel


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run(argv):
    return main([str(a) for a in argv])


# each trial experiment, as the convergence argv that runs it at its defaults:
# the methods' gains, under AWGN, over a relaxation grid and at two rate multiples
LAMBDA_GRID = ",".join(str(round(0.05 * i, 2)) for i in range(2, 40))
EXPERIMENTS = {
    "convergence": ["convergence"],
    "noise": [
        "convergence", "--methods", "iterative:10,hybrid:10:1,hybrid:10:2,hybrid:10:4",
        "--noise-power-db=-20",
    ],
    "lambda-sweep": ["convergence", "--methods", "hybrid:10:1", "--lambda", LAMBDA_GRID],
    "rate": ["convergence", "--methods", "hybrid:10:1", "--k-rate", "1,2"],
}


class TestConvergence:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = [
            "convergence", "--trials", 2, "--methods", "iterative:3,hybrid:3:1",
            "--n-coarse", 32, "--seed", 5,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_calls_share_no_parsed_state(self, tmp_path):
        # the parser is built once per process: a first call's flags must not
        # reach a second call at the defaults, whose CSV is a fresh process's,
        # and a run leaves the parser's defaults, lists included, as they were
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        defaults = {
            name: [copy.deepcopy(a.default) for a in p._actions] for name, p in sub.choices.items()
        }
        first, second, fresh = [tmp_path / f"{name}.csv" for name in ("first", "second", "fresh")]
        flags = ["--noise-power-db=-20", "--lambda", "0.5,1.5", "--trials", 2]
        assert run(["convergence", *flags, "--out", first]) == 0
        assert run(["convergence", "--out", second]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "interpcomp.cli", "convergence", "--out", str(fresh)]
        subprocess.run(argv, check=True, env=env, cwd=tmp_path, capture_output=True)
        assert second.read_bytes() == fresh.read_bytes()
        assert {r["noise_power_db"] for r in read_rows(second)} == {""}
        assert {
            name: [a.default for a in p._actions] for name, p in sub.choices.items()
        } == defaults
        (noise,) = [a for a in sub.choices["convergence"]._actions if a.dest == "noise_power_db"]
        assert noise.default == [None]

    def test_one_row_per_iteration(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            ["convergence", "--trials", 1, "--methods", "iterative:1,hybrid:1:1,hybrid:1:2",
             "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert list(rows[0]) == [
            "kind", "method", "modules", "lambda", "k_rate", "noise_power_db", "iteration",
            "mean_snr_db", "db_per_iteration", "trials", "seed",
        ]
        assert {r["noise_power_db"] for r in rows} == {""}  # no noise was added

    def test_rows_name_their_method(self, tmp_path):
        # two tokens with the same M once wrote rows that could not be told apart
        out = tmp_path / "c.csv"
        assert run(
            ["convergence", "--methods", "iterative:2,iterative:3", "--trials", 2,
             "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        assert [r["method"] for r in rows] == ["iterative:2"] * 2 + ["iterative:3"] * 3
        assert len({tuple(r.values()) for r in rows}) == len(rows)

    def test_method_cell_reruns_its_rows(self, tmp_path):
        # the method cell is the canonical token, so a run of the written
        # tokens writes the same bytes
        argv = ["convergence", "--trials", 2, "--n-coarse", 32]
        first, again = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*argv, "--methods", "iterative:02,hybrid:+3:1", "--out", first]) == 0
        methods = list(dict.fromkeys(r["method"] for r in read_rows(first)))
        assert methods == ["iterative:2", "hybrid:3:1"]
        assert run([*argv, "--methods", ",".join(methods), "--out", again]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_curves_ordered_by_modules(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            ["convergence", "--trials", 5, "--methods", "iterative:2,hybrid:2:1,hybrid:2:2",
             "--out", out]
        ) == 0
        at2 = {
            int(r["modules"]): float(r["mean_snr_db"])
            for r in read_rows(out)
            if r["iteration"] == "2"
        }
        assert at2[2] >= at2[1] >= at2[0]

    def test_invalid_parameter_exit_code(self, tmp_path, capsys):
        code = run(
            ["convergence", "--lambda", "2.5", "--trials", 1, "--methods", "iterative:1",
             "--out", tmp_path / "x.csv"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "relaxation" in err

    def test_overflowing_divergent_run_exit_code(self, tmp_path, capsys):
        # a valid lambda whose run does not contract overflows float64 in
        # 8000 iterations; the error names the contraction factor
        out = tmp_path / "x.csv"
        code = run(
            ["convergence", "--lambda", "1.95", "--methods", "hybrid:8000:1",
             "--trials", 1, "--out", out]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "max |1 - s*gain| = 1.07307" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convergence", "lambda-sweep", "noise", "rate"])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials_exit_code(self, tmp_path, capsys, command, trials):
        code = run([*EXPERIMENTS[command], "--trials", trials, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [("convergence", "--methods"), ("noise", "--methods"), ("noise", "--noise-power-db"),
         ("lambda-sweep", "--lambda"), ("rate", "--k-rate")],
    )
    def test_empty_list_exit_code(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x.csv"
        code = run([*EXPERIMENTS[command], flag, ",", "--trials", 1, "--out", out])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--methods", "hybrid:10:1", "--lambda", "0.5,1.0,2.5"],
            ["convergence", "--methods", "iterative:10,hybrid:10:1,hybrid:10:9"],
            ["convergence", "--methods", "iterative:10,hybrid:10:1,hybrid:10:9",
             "--noise-power-db=-20"],
            ["convergence", "--methods", "hybrid:10:1", "--k-rate", "1,2,0"],
            ["convergence", "--noise-power-db=-20,3100"],
        ],
        ids=["lambda-sweep", "convergence", "noise", "rate", "noise-power"],
    )
    def test_bad_list_value_runs_no_trial(self, tmp_path, monkeypatch, argv):
        # the last value is bad; it must stop the run before the first trial,
        # not after the trials of the values before it
        calls = []
        score = cli._traces

        def counted(*args, **kwargs):
            calls.append(1)
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "_traces", counted)
        out = tmp_path / "x.csv"
        assert run([*argv, "--trials", 1, "--n-coarse", 32, "--out", out]) == 2
        assert len(calls) == 0
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,per_trial",
        [
            (["convergence", "--methods", "iterative:2,hybrid:2:1,hybrid:2:2"], 1),
            (["convergence", "--methods", "iterative:2,hybrid:2:1", "--noise-power-db=-20"], 1),
            (["convergence", "--methods", "hybrid:2:1", "--lambda", "0.5,1.0"], 1),
            (["convergence", "--methods", "hybrid:2:1", "--k-rate", "1,2"], 2),
            (["convergence", "--methods", "hybrid:2:1", "--noise-power-db=-20,-30"], 1),
        ],
        ids=["convergence", "noise", "lambda-sweep", "rate", "noise-powers"],
    )
    def test_one_signal_per_trial_and_grid(self, tmp_path, monkeypatch, argv, per_trial):
        # every configuration on a grid, at every noise power, reads the same
        # trial signals, so they are generated once per (seed, grid)
        seeds = []
        generate = cli._draws

        def counted(chunk, *args, **kwargs):
            seeds.extend(chunk)
            return generate(chunk, *args, **kwargs)

        monkeypatch.setattr(cli, "_draws", counted)
        out = tmp_path / "x.csv"
        argv = [*argv, "--trials", 3, "--n-coarse", 32, "--seed", 4]
        assert run([*argv, "--out", out]) == 0
        assert sorted(seeds) == sorted([4, 5, 6] * per_trial)

    @pytest.mark.parametrize(
        "flags,axes",
        [
            (["--dims", 1, "--n-coarse", 16, "--ticks", 4], [(16, 4)]),
            (["--dims", 2, "--n-coarse", 8, "--ticks", 4], [(8, 4)] * 2),
            (["--dims", 1], [(128, 16)]),
            (["--dims", 2], [(32, 8)] * 2),
        ],
        ids=["1d", "2d", "1d-default", "2d-default"],
    )
    def test_grid_flags_set_every_axis(self, tmp_path, monkeypatch, flags, axes):
        # --n-coarse and --ticks set each of the --dims axes; a flag not
        # given takes its default for that --dims
        grids = []
        generate = cli._draws

        def recorded(seeds, grid, *args, **kwargs):
            grids.extend([grid] * len(seeds))
            return generate(seeds, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "_draws", recorded)
        argv = ["convergence", *flags, "--trials", 1, "--methods", "iterative:1"]
        assert run([*argv, "--out", tmp_path / "x.csv"]) == 0
        assert grids == [tuple(GridSpec(n, ticks) for n, ticks in axes)]

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERPCOMP_OUT_DIR", str(tmp_path / "outputs"))
        assert run(
            ["convergence", "--trials", 1, "--methods", "iterative:1",
             "--n-coarse", 32, "--out", "conv.csv"]
        ) == 0
        assert (tmp_path / "outputs" / "conv.csv").exists()


class TestBatches:
    """The trials run in chunks of at most BATCH_POINTS points, each scored in one call per grid."""

    # 5 trials of 16 x 16 = 256 fine points each in 1-D
    SMALL = ["--trials", 5, "--n-coarse", 16, "--seed", 2]

    @staticmethod
    def recorded(monkeypatch):
        """Record (configurations, batch size) of every ``_traces`` call the CLI makes."""
        calls = []
        score = cli._traces

        def wrapper(coarse, configs, references):
            calls.append((list(configs), len(coarse)))
            return score(coarse, configs, references)

        monkeypatch.setattr(cli, "_traces", wrapper)
        return calls

    @pytest.mark.parametrize(
        "argv,per_grid",
        [
            (["convergence", "--methods", "iterative:3,hybrid:3:1,hybrid:3:2"], [3]),
            (["convergence", "--methods", "iterative:3,hybrid:3:1", "--noise-power-db=-20"], [2]),
            (["convergence", "--methods", "hybrid:3:1", "--lambda", "0.5,1.0"], [2]),
            (["convergence", "--methods", "hybrid:3:1", "--k-rate", "1,2"], [1, 1]),  # two grids
        ],
        ids=["convergence", "noise", "lambda-sweep", "rate"],
    )
    @pytest.mark.parametrize(
        "budget,chunks", [(None, [5]), (2 * 256, [2, 2, 1]), (1, [1] * 5)],
        ids=["one-chunk", "2+2+1", "one-trial"],
    )
    def test_one_solve_per_configuration_and_chunk(
        self, tmp_path, monkeypatch, argv, per_grid, budget, chunks
    ):
        # one call per grid and chunk, carrying every configuration on that grid
        if budget is not None:
            monkeypatch.setattr(cli, "BATCH_POINTS", budget)
        calls = self.recorded(monkeypatch)
        assert run([*argv, *self.SMALL, "--out", tmp_path / "x.csv"]) == 0
        assert [(len(configs), size) for configs, size in calls] == [
            (n, size) for n in per_grid for size in chunks
        ]
        for configs, _ in calls:
            assert len({cfg.operator.grid for cfg in configs}) == 1
        assert len({cfg for configs, _ in calls for cfg in configs}) == sum(per_grid)

    @pytest.mark.parametrize(
        "argv,points",
        [
            (
                ["convergence", "--dims", 2, "--n-coarse", 8, "--ticks", 4,
                 "--methods", "iterative:4,hybrid:4:1"],
                32 * 32,
            ),
            (
                ["convergence", "--n-coarse", 16, "--noise-power-db=-20",
                 "--methods", "iterative:4,hybrid:4:1,hybrid:4:2,hybrid:4:4"],
                16 * 16,
            ),
        ],
        ids=["convergence-2d", "noise"],
    )
    def test_chunks_change_no_byte(self, tmp_path, monkeypatch, argv, points):
        argv = [*argv, "--trials", 5, "--seed", 3]
        whole = tmp_path / "whole.csv"
        assert run([*argv, "--out", whole]) == 0
        for budget in (1, 2 * points):  # one trial per chunk, then 2 + 2 + 1
            monkeypatch.setattr(cli, "BATCH_POINTS", budget)
            out = tmp_path / f"{budget}.csv"
            assert run([*argv, "--out", out]) == 0
            assert out.read_bytes() == whole.read_bytes(), budget

    @pytest.mark.parametrize(
        "command,flag,lists",
        [
            (
                "convergence", "--methods",
                ["iterative:3,hybrid:3:1,hybrid:3:2", "hybrid:3:1", "hybrid:3:2,iterative:3"],
            ),
            ("noise", "--methods", ["iterative:3,hybrid:3:1,hybrid:3:2", "hybrid:3:2"]),
            ("lambda-sweep", "--lambda", ["0.5,1.0,1.5", "1.0", "1.5,0.5"]),
            ("noise", "--noise-power-db", ["-20,-30,-40", "-30", "-40,-20"]),
        ],
        ids=["convergence", "noise", "lambda-sweep", "noise-powers"],
    )
    def test_configurations_sharing_a_call_change_no_cell(self, tmp_path, command, flag, lists):
        # a configuration's cells are bitwise the same whichever others share
        # its calls, and whichever other noise powers the run adds
        def rows(values):
            out = tmp_path / f"{values}.csv"
            argv = [*EXPERIMENTS[command], f"{flag}={values}", *self.SMALL, "--out", out]
            assert run(argv) == 0
            return [tuple(row.items()) for row in read_rows(out)]

        whole = rows(lists[0])
        for values in lists[1:]:
            part = rows(values)
            assert part and set(part) <= set(whole), values

    def test_defaults_match_one_solve_per_trial(self, tmp_path, monkeypatch):
        # at its 1-D defaults convergence scores its 50 trials of 2048 points
        # in chunks of BATCH_POINTS // 2048 trials, each for all 3 module
        # counts, and writes the bytes that one call per trial and
        # configuration writes
        per_chunk = cli.BATCH_POINTS // 2048
        chunks = [per_chunk] * (50 // per_chunk) + [50 % per_chunk] * (50 % per_chunk > 0)
        calls = self.recorded(monkeypatch)
        batched = tmp_path / "batched.csv"
        assert run(["convergence", "--out", batched]) == 0
        assert [(len(configs), size) for configs, size in calls] == [(3, n) for n in chunks]
        monkeypatch.undo()
        score = cli._traces

        def per_trial(coarse, configs, references):
            out = []
            for cfg in configs:
                rows = zip(coarse, references, strict=True)
                cells = [score(s[np.newaxis], [cfg], x[np.newaxis])[0] for s, x in rows]
                out.append(([init for (init,), _ in cells], [trace for _, (trace,) in cells]))
            return out

        monkeypatch.setattr(cli, "_traces", per_trial)
        single = tmp_path / "single.csv"
        assert run(["convergence", "--out", single]) == 0
        assert batched.read_bytes() == single.read_bytes()


class TestLambdaSweep:
    def test_single_point_grid(self, tmp_path):
        # one lambda is one configuration: one dB per iteration on its rows
        out = tmp_path / "l.csv"
        assert run(
            ["convergence", "--lambda", "1.0", "--trials", 1,
             "--methods", "hybrid:3:1", "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert len({(r["lambda"], r["db_per_iteration"]) for r in rows}) == 1

    def test_grid_outside_range_rejected(self, tmp_path, capsys):
        code = run(
            ["convergence", "--lambda", "0.5,2.5", "--trials", 1,
             "--methods", "hybrid:2:1", "--out", tmp_path / "l.csv"]
        )
        assert code == 2
        assert "relaxation parameter must lie in (0, 2), got 2.5" in capsys.readouterr().err


class TestNoise:
    def test_negligible_noise_matches_noiseless(self, tmp_path):
        common = ["--trials", 3, "--methods", "hybrid:5:1", "--n-coarse", 64, "--seed", 3]
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        assert run(["convergence", *common, "--out", clean]) == 0
        assert run(["convergence", *common, "--noise-power-db", "-300", "--out", noisy]) == 0
        trace_clean = [float(r["mean_snr_db"]) for r in read_rows(clean)]
        trace_noisy = [float(r["mean_snr_db"]) for r in read_rows(noisy)]
        for a, b in zip(trace_clean, trace_noisy):
            assert abs(a - b) < 0.5

    def test_peak_exists_at_minus_20db(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run(
            ["convergence", "--trials", 5, "--methods", "iterative:30",
             "--noise-power-db", "-20", "--out", out]
        ) == 0
        trace = [float(r["mean_snr_db"]) for r in read_rows(out)]
        assert max(trace) > trace[-1] - 1e-3
        assert max(trace) > trace[0] + 3.0

    def test_overflowing_samples_named(self, tmp_path, capsys):
        # 3080 dB of noise is 1e308 in power: the samples' own energies overflow
        # float64 while every band bin contracts, and the error says so
        out = tmp_path / "n.csv"
        argv = [*EXPERIMENTS["noise"], *TINY_TRIALS, "--noise-power-db", "3080", "--out", out]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "overflow" in err and "max |1 - s*gain| = 0.365427 < 1" in err
        assert "does not contract" not in err
        assert not out.exists()

    def test_transforms_per_chunk(self, tmp_path, monkeypatch):
        # each chunk of 2-D trials on 64 x 64 points (16, then 4) draws its
        # spectra with one fine rfftn, takes its samples from one coarse
        # irfftn of the band, and transforms the noisy samples once per noise
        # power; the fine signal is never built and no reference is transformed
        transforms = []

        def recorded(name, fn):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                transforms.append((name, np.shape(a), out.shape))
                return out

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
        argv = ["convergence", "--dims", 2, "--n-coarse", 8, "--ticks", 8, "--trials", 20,
                "--methods", "iterative:2,hybrid:2:1", "--noise-power-db=-20,-30"]
        assert run([*argv, "--out", tmp_path / "n.csv"]) == 0
        assert transforms == [
            call
            for t in (16, 4)
            for call in [
                ("rfftn", (t, 64, 64), (t, 64, 33)),
                ("irfftn", (t, 8, 5), (t, 8, 8)),
                ("rfftn", (t, 8, 8), (t, 8, 5)),
                ("rfftn", (t, 8, 8), (t, 8, 5)),
            ]
        ]

    def test_one_noise_draw_per_chunk(self, tmp_path, monkeypatch):
        # each chunk (16 trials, then 4) draws its unit-power normals once,
        # whatever the number of powers, and scales them to each power
        draws = []

        def counted(seeds, shape, noise_power_db):
            draws.append((len(seeds), shape, noise_power_db))
            return _awgn(seeds, shape, noise_power_db)

        monkeypatch.setattr(cli, "_awgn", counted)
        argv = ["convergence", "--dims", 2, "--n-coarse", 8, "--ticks", 8, "--trials", 20,
                "--methods", "iterative:2,hybrid:2:1"]
        for powers in ("-20", "-20,-30", "-30,-20,-10"):
            draws.clear()
            assert run([*argv, f"--noise-power-db={powers}", "--out", tmp_path / "n.csv"]) == 0
            assert draws == [(16, (64, 64), 0.0), (4, (64, 64), 0.0)]
        draws.clear()
        assert run([*argv, "--out", tmp_path / "clean.csv"]) == 0
        assert draws == []

    def test_negative_list_in_equals_form(self, tmp_path):
        # argparse reads a bare "-30,-20" as a flag, so a list of negative
        # powers is given as --noise-power-db=...; each power's rows are those
        # of a run of that power alone, in 1-D and on 2-D chunks of 16 trials
        for grid in (TINY_TRIALS, ["--dims", 2, "--n-coarse", 8, "--ticks", 8, "--trials", 20]):
            argv = ["convergence", *grid, "--methods", "iterative:2,hybrid:2:1"]
            both = tmp_path / "both.csv"
            assert run([*argv, "--noise-power-db=-30,-20", "--out", both]) == 0
            rows = read_rows(both)
            assert [(r["method"], r["noise_power_db"]) for r in rows if r["iteration"] == "1"] == [
                ("iterative:2", "-30.0"), ("iterative:2", "-20.0"),
                ("hybrid:2:1", "-30.0"), ("hybrid:2:1", "-20.0"),
            ]
            for power in ("-30.0", "-20.0"):
                alone = tmp_path / f"{power}.csv"
                assert run([*argv, f"--noise-power-db={power}", "--out", alone]) == 0
                assert read_rows(alone) == [r for r in rows if r["noise_power_db"] == power]


class TestRate:
    def test_same_rate_zero_difference(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            ["convergence", "--k-rate", "1,1", "--trials", 2, "--methods", "hybrid:3:1",
             "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        first = float(rows[0]["db_per_iteration"])
        diffs = {float(r["db_per_iteration"]) - first for r in rows}
        assert len(rows) == 6 and diffs == {0.0}

    def test_monotone_traces(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            ["convergence", "--k-rate", "1,2", "--trials", 3, "--methods", "hybrid:4:1",
             "--out", out]
        ) == 0
        rows = read_rows(out)
        for k in ("1", "2"):
            trace = [float(r["mean_snr_db"]) for r in rows if r["k_rate"] == k]
            assert all(b >= a for a, b in zip(trace, trace[1:]))


class TestAnalyze:
    def test_text_output(self, capsys):
        assert run(["analyze", "--kind", "sh", "--methods", "hybrid:10:1"]) == 0
        out = capsys.readouterr().out
        assert "contraction_factor" in out

    def test_csv_parseable(self, capsys):
        assert run(["analyze", "--kind", "sh", "--methods", "iterative:10", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(row.split(",", 1) for row in lines[1:])
        assert float(table["contraction_factor"]) == pytest.approx(0.3634, abs=1e-3)

    def test_hybrid_value(self, capsys):
        assert run(["analyze", "--kind", "sh", "--methods", "hybrid:10:1", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(row.split(",", 1) for row in lines[1:])
        assert float(table["contraction_factor"]) == pytest.approx(0.06, abs=5e-3)

    @pytest.mark.parametrize(
        "modules,adds,mults", [(0, "500", "250"), (1, "520", "270"), (2, "n/a", "n/a")]
    )
    def test_op_counts_cover_zero_and_one_module(self, capsys, modules, adds, mults):
        # the paper counts the plain method and the one-module hybrid only
        assert run(["analyze", "--methods", f"hybrid:10:{modules}", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(row.split(",", 1) for row in lines[1:])
        assert (table["adds_per_sample"], table["mults_per_sample"]) == (adds, mults)

    @pytest.mark.parametrize("flag", ["--seed", "--dims", "--n-coarse", "--ticks"])
    def test_trial_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestImage:
    def test_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(64, 64, seed=2), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--factor", "2",
             "--methods", "bilinear,hybrid:2:1", "--out-dir", out_dir]
        ) == 0
        assert (out_dir / "decimated.pgm").exists()
        assert (out_dir / "recon_bilinear.pgm").exists()
        assert (out_dir / "recon_hybrid_2_1.pgm").exists()
        assert (out_dir / "err_bilinear.pgm").exists()
        rows = read_rows(out_dir / "psnr.csv")
        assert [r["method"] for r in rows] == ["bilinear", "hybrid(2,1)"]
        assert float(rows[1]["psnr_db"]) > float(rows[0]["psnr_db"])

    @staticmethod
    def float_error_map(original, recon):
        """The error map as a float formula: |error| scaled so that its peak is 255."""
        err = np.abs(recon.astype(np.int16) - original)
        peak = err.max()
        return np.rint(err * (255.0 / peak if peak else 0.0)).astype(np.uint8)

    def test_cells_and_error_maps_512(self, tmp_path):
        # each PSNR cell, from the integer sum of squares, is psnr_db of the
        # two images bitwise, and each error map is the float formula's
        scene = synthetic_scene(512, 512, seed=4)
        src, out_dir = tmp_path / "scene.pgm", tmp_path / "bench"
        write_pgm(scene, src)
        methods = "bilinear,iterative:2,iterative:10,hybrid:2:1,chebyshev:3,chebyshev:3:1"
        assert run(["image", src, "--methods", methods, "--out-dir", out_dir]) == 0
        rows = read_rows(out_dir / "psnr.csv")
        assert len(rows) == 6
        for row in rows:
            tag = row["method"].replace("(", "_").replace(")", "").replace(",", "_")
            recon = read_pgm(out_dir / f"recon_{tag}.pgm").pixels
            assert float(row["psnr_db"]) == psnr_db(scene.pixels, recon), row
            want = self.float_error_map(scene.pixels, recon)
            assert np.array_equal(read_pgm(out_dir / f"err_{tag}.pgm").pixels, want), row

    def test_relative_out_dir_env(self, tmp_path, monkeypatch):
        # a relative $INTERPCOMP_OUT_DIR resolves the output directory once:
        # the CSV goes beside the images, not under a second copy of the base
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("INTERPCOMP_OUT_DIR", "rel")
        write_pgm(synthetic_scene(16, 16, seed=1), "s.pgm")
        assert run(["image", "s.pgm", "--methods", "bilinear", "--out-dir", "ib"]) == 0
        assert len(read_rows(tmp_path / "rel" / "ib" / "psnr.csv")) == 1
        assert not (tmp_path / "rel" / "rel").exists()

    def test_constant_image_inf_written(self, tmp_path):
        src = tmp_path / "flat.pgm"
        flat = np.full((16, 16), 99, dtype=np.uint8)
        write_pgm(GrayImage(flat), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--methods", "bilinear", "--out-dir", out_dir]
        ) == 0
        with open(out_dir / "psnr.csv") as fh:
            text = fh.read()
        assert text.splitlines()[1].endswith("inf")
        # a zero error has peak 0: the map is black, as the float formula's
        err_map = read_pgm(out_dir / "err_bilinear.pgm").pixels
        assert np.array_equal(err_map, np.zeros_like(flat))
        assert np.array_equal(err_map, self.float_error_map(flat, flat))

    def test_rerun_overwrites_deterministically(self, tmp_path):
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(32, 32, seed=4), src)
        out_dir = tmp_path / "bench"
        argv = ["image", src, "--methods", "iterative:2", "--out-dir", out_dir]
        assert run(argv) == 0
        first = (out_dir / "psnr.csv").read_bytes()
        assert run(argv) == 0
        assert (out_dir / "psnr.csv").read_bytes() == first

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = run(["image", tmp_path / "nope.pgm"])
        assert code == 2
        assert "nope.pgm" in capsys.readouterr().err

    def test_factor_applies_to_module_check(self, tmp_path):
        # two modules need factor >= 4; the check must see --factor, not the default 2
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(64, 64, seed=2), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--factor", 4, "--methods", "hybrid:2:2", "--out-dir", out_dir]
        ) == 0
        (row,) = read_rows(out_dir / "psnr.csv")
        assert (row["method"], row["factor"], row["modules"]) == ("hybrid(2,2)", "4", "2")
        assert math.isfinite(float(row["psnr_db"]))

    def test_modules_zero_without_hybrid(self, tmp_path):
        # only the hybrid mixes, so only its row reports modules; bilinear
        # does not iterate, so its row reports no iterations and no lambda
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(32, 32, seed=4), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--methods", "bilinear,iterative:2,hybrid:2:1", "--out-dir", out_dir]
        ) == 0
        rows = read_rows(out_dir / "psnr.csv")
        assert [(r["method"], r["iters"], r["modules"], r["lambda"]) for r in rows] == [
            ("bilinear", "0", "0", ""), ("iterative(2)", "2", "0", "1.0"),
            ("hybrid(2,1)", "2", "1", "1.0"),
        ]

    def test_accelerated_lambda_is_the_step_used(self, tmp_path):
        # the Chebyshev recursion relaxes by 2/(A+B), whatever --lambda says
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(32, 32, seed=4), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--methods", "bilinear,chebyshev:2", "--lambda", 1.9,
             "--frame-a", 1, "--frame-b", 2, "--out-dir", out_dir]
        ) == 0
        rows = read_rows(out_dir / "psnr.csv")
        assert [r["lambda"] for r in rows] == ["", "0.6666666666666666"]

    def test_plain_and_accelerated_side_by_side(self, tmp_path):
        # one run holds both solves under distinct labels, and the Chebyshev
        # image is that of the iterative EnlargeConfig with the default bounds
        scene = synthetic_scene(32, 32, seed=4)
        src, out_dir = tmp_path / "scene.pgm", tmp_path / "bench"
        write_pgm(scene, src)
        argv = ["image", src, "--methods", "iterative:2,chebyshev:2", "--out-dir", out_dir]
        assert run(argv) == 0
        rows = read_rows(out_dir / "psnr.csv")
        assert [r["method"] for r in rows] == ["iterative(2)", "chebyshev(2)"]
        cfg = EnlargeConfig(method="iterative", iterations=2, acceleration=ChebyshevAccel(1, 2))
        want = enlarge(decimate(scene, 2), cfg).pixels
        assert np.array_equal(read_pgm(out_dir / "recon_chebyshev_2.pgm").pixels, want)
        assert not np.array_equal(read_pgm(out_dir / "recon_iterative_2.pgm").pixels, want)

    def test_overflowing_hybrid_exit_code(self, tmp_path, capsys):
        # lambda 1.99 with one module does not contract, and 2000 iterations
        # overflow float64: exit 2 with the factor named, no warning, and no
        # output, though bilinear ran first.  The factor is the largest the
        # solve applies, over the bins 0..n-1 of the image's cosine transform,
        # not the extension band's 3.4775
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(64, 64, seed=2), src, ascii_format=True)
        out_dir = tmp_path / "bench"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["image", src, "--methods", "bilinear,hybrid:2000:1", "--lambda", 1.99,
                 "--out-dir", out_dir]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not contract, max |1 - s*gain| = 3.33223 >= 1" in err
        assert not out_dir.exists()

    def test_overflowing_method_named_among_others(self, tmp_path, capsys):
        # the methods share one forward transform, and the one that overflows
        # is named by its own factor and iteration count, not a neighbour's
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(64, 64, seed=2), src)
        out_dir = tmp_path / "bench"
        code = run(
            ["image", src, "--methods", "iterative:2,hybrid:2000:1,chebyshev:3",
             "--lambda", 1.99, "--out-dir", out_dir]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "within 2000 iterations" in err
        assert "does not contract, max |1 - s*gain| = 3.33223 >= 1" in err
        assert not out_dir.exists()

    def test_indivisible_factor_makes_no_out_dir(self, tmp_path, capsys):
        # the size check runs before the output directory is made
        src = tmp_path / "odd.pgm"
        write_pgm(synthetic_scene(66, 64, 1), src)
        out_dir = tmp_path / "outdir"
        assert run(["image", src, "--factor", 4, "--out-dir", out_dir]) == 2
        assert "not divisible by 4" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_frame_bounds_summing_to_one_rejected(self, tmp_path, capsys):
        # at A + B <= 1 the step 2/(A+B) is >= 2, so DC never contracts: the
        # run once wrote a black 4.80 dB image and exited 0
        src = tmp_path / "s.pgm"
        write_pgm(synthetic_scene(16, 16, seed=1), src)
        out_dir = tmp_path / "outdir"
        argv = ["image", src, "--methods", "chebyshev:2", "--out-dir", out_dir]
        assert run([*argv, "--frame-a", 0.5, "--frame-b", 0.5]) == 2
        err = capsys.readouterr().err
        assert "step 2/(A+B) of frame bounds A=0.5, B=0.5 must lie in (0, 2)" in err
        assert not out_dir.exists()

    def test_bad_method_token_exit_code(self, tmp_path, capsys):
        src = tmp_path / "scene.pgm"
        write_pgm(synthetic_scene(16, 16, seed=1), src)
        for token in ("iterative:abc", "bogus:2"):
            code = run(["image", src, "--methods", token, "--out-dir", tmp_path / "o"])
            assert code == 2
            assert f"method '{token}'" in capsys.readouterr().err


# each subcommand's sorted option strings, read from the parser; a change
# that adds or drops a flag edits this table, so the diff shows it
OPTIONS = {
    "convergence": [
        "--dims", "--help", "--k-rate", "--kind", "--lambda", "--methods",
        "--n-coarse", "--noise-power-db", "--out", "--seed", "--ticks", "--trials", "-h",
    ],
    "analyze": [
        "--csv", "--fft-block", "--help", "--k-rate", "--kind", "--lambda", "--methods", "-h",
    ],
    "image": [
        "--factor", "--frame-a", "--frame-b", "--help", "--lambda", "--methods", "--out-dir", "-h",
    ],
}


def test_options_pinned():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == OPTIONS


def test_kind_choices_follow_the_enum():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    choices = {
        name: action.choices
        for name, p in sub.choices.items()
        for action in p._actions
        if "--kind" in action.option_strings
    }
    assert sorted(choices) == ["analyze", "convergence"]
    for kinds in choices.values():
        assert kinds == [k.value for k in InterpKind]


# the numeric flags of each subcommand and trial experiment
TRIAL_FLAGS = ["--trials", "--seed", "--dims", "--n-coarse", "--ticks"]
SWEPT_FLAGS = {
    "convergence": [*TRIAL_FLAGS, "--lambda", "--k-rate", "--noise-power-db"],
    "noise": [*TRIAL_FLAGS, "--lambda", "--k-rate", "--noise-power-db"],
    "lambda-sweep": [*TRIAL_FLAGS, "--k-rate"],
    "rate": [*TRIAL_FLAGS, "--lambda"],
    "analyze": ["--lambda", "--k-rate", "--fft-block"],
    "image": ["--lambda", "--factor", "--frame-a", "--frame-b"],
}
# each numeric field of each subcommand's --methods tokens, at the {} of a token
TRIAL_FIELDS = ["iterative:{}", "hybrid:{}:1", "hybrid:2:{}"]
SWEPT_FIELDS = {
    **{command: TRIAL_FIELDS for command in SWEPT_FLAGS if command != "image"},
    "image": [*TRIAL_FIELDS, "chebyshev:{}", "chebyshev:{}:1", "chebyshev:2:{}"],
}
TINY_TRIALS = ["--trials", 1, "--n-coarse", 16]


@pytest.fixture(scope="module")
def pgm16(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene16.pgm"
    write_pgm(synthetic_scene(16, 16, seed=1), path)
    return path


def tiny_argv(command, pgm, tmp_path, accelerate=True):
    """A small run of ``command``, a subcommand or trial experiment, writing under ``tmp_path``."""
    if command == "analyze":
        return [command]
    if command == "image":
        accel = ["--methods", "bilinear,chebyshev:2,chebyshev:10,chebyshev:2:1"]
        return [command, pgm, *(accel if accelerate else []), "--out-dir", tmp_path / "o"]
    return [*EXPERIMENTS[command], *TINY_TRIALS, "--out", tmp_path / "x.csv"]


# (command, flags) runs that must fail before they write anything; an image
# run has no chebyshev token, so its frame bounds are checked all the same
REJECTED = [
    ("convergence", ["--seed", "-1"]),
    ("noise", ["--seed", "-1"]),
    ("lambda-sweep", ["--seed", "-1"]),
    ("rate", ["--seed", "-1"]),
    ("convergence", ["--dims", "2", "--n-coarse", "0"]),
    ("noise", ["--dims", "2", "--ticks", "3"]),
    ("rate", ["--n-coarse", "3"]),
    ("analyze", ["--methods", "hybrid:10:-1"]),
    ("analyze", ["--lambda", "nan"]),
    ("analyze", ["--lambda", "inf"]),
    ("image", ["--lambda", "0"]),
    ("image", ["--lambda", "2", "--methods", "bilinear"]),
    ("image", ["--frame-a", "0"]),
    ("image", ["--frame-a", "3"]),
    ("image", ["--frame-b", "inf"]),
    ("image", ["--methods", "hybrid:2:-1"]),
    ("image", ["--methods", "bilinear:7"]),
    ("image", ["--methods", "iterative:2:9"]),
    ("image", ["--methods", "hybrid:2:1:3"]),
    ("noise", ["--noise-power-db", "3100"]),
    ("noise", ["--noise-power-db", "-4000"]),
]


# each CSV-writing subcommand, run small, and the CSV it writes under its output flag
WRITERS = {
    "convergence": ("x.csv", []),
    "noise": ("x.csv", []),
    "lambda-sweep": ("x.csv", ["--lambda", "0.5,1.0"]),
    "rate": ("x.csv", []),
    "image": ("o/psnr.csv", ["--methods", "bilinear,iterative:2"]),
}


@pytest.mark.parametrize("command", list(WRITERS))
def test_prints_the_written_path(tmp_path, capsys, pgm16, command):
    written, flags = WRITERS[command]
    assert run([*tiny_argv(command, pgm16, tmp_path, accelerate=False), *flags]) == 0
    out, err = capsys.readouterr()
    assert out == f"{tmp_path / written}\n" and err == ""
    assert (tmp_path / written).exists()


class TestBoundarySweep:
    """Every numeric flag of every subcommand, set in turn to -1, 0, nan, inf and 0.5,nan.

    A run exits 0 or 2 and raises nothing; argparse rejects a value that is
    not an integer with SystemExit(2), which counts as 2.  RuntimeWarnings
    are errors in the test suite, so a numpy warning fails the run too.
    """

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in SWEPT_FLAGS.items() for f in flags]
    )
    def test_exits_0_or_2(self, tmp_path, pgm16, command, flag):
        for value in ("-1", "0", "nan", "inf", "0.5,nan"):
            argv = [*tiny_argv(command, pgm16, tmp_path), flag, value]
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 2), argv

    @pytest.mark.parametrize(
        "command,template", [(c, t) for c, fields in SWEPT_FIELDS.items() for t in fields]
    )
    def test_method_field_exits_0_or_2(self, tmp_path, pgm16, command, template):
        for value in ("-1", "0", "nan", "inf"):
            argv = [*tiny_argv(command, pgm16, tmp_path), "--methods", template.format(value)]
            assert run(argv) in (0, 2), argv

    @pytest.mark.parametrize(
        "command,flags", REJECTED, ids=["-".join([c, *f]) for c, f in REJECTED]
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, pgm16, command, flags):
        code = run([*tiny_argv(command, pgm16, tmp_path, accelerate=False), *flags])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "x.csv").exists()
        assert not any((tmp_path / "o").glob("*"))

    def test_non_contracting_lambda_reported(self, capsys):
        # lambda 3 is a valid input that does not contract: no dB per iteration
        assert run(["analyze", "--lambda", "3", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(row.split(",", 1) for row in lines[1:])
        assert table["predicted_db_per_iteration"] == "nan"


ALL_COMMANDS = ["convergence", "noise", "lambda-sweep", "rate", "analyze", "image"]
SOLVE_ONLY = ALL_COMMANDS[:-1]  # no bilinear and no chebyshev: the trials and analyze


class TestMethodGrammar:
    """bilinear | iterative:K | hybrid:K:M | chebyshev:K[:M], in every subcommand."""

    # (token, its image label, K, M, the subcommands that take it)
    VALID = [
        ("bilinear", "bilinear", 0, 0, ["image"]),
        ("iterative:2", "iterative(2)", 2, 0, ALL_COMMANDS),
        ("hybrid:2:1", "hybrid(2,1)", 2, 1, ALL_COMMANDS),
        ("chebyshev:2", "chebyshev(2)", 2, 0, ["image"]),
        ("chebyshev:2:1", "chebyshev(2,1)", 2, 1, ["image"]),
    ]
    # (--methods value, the subcommands that reject it)
    INVALID = [
        ("bogus:2", ALL_COMMANDS),
        ("iterative", ALL_COMMANDS),
        ("hybrid:2", ALL_COMMANDS),
        ("bilinear:7", ALL_COMMANDS),
        ("chebyshev:3:1:2", ALL_COMMANDS),
        ("iterative:4.0", ALL_COMMANDS),
        ("bilinear", SOLVE_ONLY),
        ("chebyshev:2", SOLVE_ONLY),
        ("chebyshev:2:1", SOLVE_ONLY),
        ("iterative:2,hybrid:2:1", ["analyze"]),
    ]

    @pytest.mark.parametrize(
        "command,token,label,iterations,modules",
        [(c, t, lab, k, m) for t, lab, k, m, commands in VALID for c in commands],
    )
    def test_valid_form_runs(
        self, tmp_path, capsys, monkeypatch, pgm16, command, token, label, iterations, modules
    ):
        calls = TestBatches.recorded(monkeypatch)
        argv = [*tiny_argv(command, pgm16, tmp_path, accelerate=False), "--methods", token]
        assert run(argv) == 0
        out = capsys.readouterr().out
        if command == "image":
            (row,) = read_rows(tmp_path / "o" / "psnr.csv")
            assert (row["method"], row["iters"], row["modules"]) == (
                label, str(iterations), str(modules)
            )
        elif command == "analyze":
            table = dict(line.split() for line in out.splitlines())
            adds = op_counts(iterations, 2048, modules == 1)[0]
            assert (table["modules"], table["adds_per_sample"]) == (str(modules), str(adds))
        else:
            solves = [cfg for configs, _ in calls for cfg in configs]
            assert {(c.iterations, c.operator.modules, c.acceleration) for c in solves} == {
                (iterations, modules, None)
            }

    @pytest.mark.parametrize(
        "command,methods", [(c, m) for m, commands in INVALID for c in commands]
    )
    def test_invalid_form_rejected(self, tmp_path, capsys, pgm16, command, methods):
        argv = [*tiny_argv(command, pgm16, tmp_path, accelerate=False), "--methods", methods]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and f"'{methods}'" in err
        assert out == ""
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "o").exists()
