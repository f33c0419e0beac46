import argparse
import csv
import math
import warnings

import numpy as np
import pytest

from interpcomp import GridSpec, InterpKind, cli
from interpcomp.cli import build_parser, main
from interpcomp.analysis import op_counts
from interpcomp.imagebench import (
    EnlargeConfig, GrayImage, decimate, enlarge, read_pgm, synthetic_scene, write_pgm,
)
from interpcomp.solver import ChebyshevAccel


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run(argv):
    return main([str(a) for a in argv])


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

    def test_one_row_per_iteration(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            ["convergence", "--trials", 1, "--methods", "iterative:1,hybrid:1:1,hybrid:1:2",
             "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert rows[0].keys() == {
            "method", "modules", "lambda", "k_rate", "iteration",
            "mean_snr_db", "trials", "seed",
        }

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
        code = run([command, "--trials", trials, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [("convergence", "--methods"), ("noise", "--methods"),
         ("lambda-sweep", "--lambda-grid"), ("rate", "--k-rates")],
    )
    def test_empty_list_exit_code(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x.csv"
        code = run([command, flag, ",", "--trials", 1, "--out", out])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda-sweep", "--lambda-grid", "0.5,1.0,2.5"],
            ["convergence", "--methods", "iterative:10,hybrid:10:1,hybrid:10:9"],
            ["noise", "--methods", "iterative:10,hybrid:10:1,hybrid:10:9"],
            ["rate", "--k-rates", "1,2,0"],
        ],
        ids=["lambda-sweep", "convergence", "noise", "rate"],
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
            (["noise", "--methods", "iterative:2,hybrid:2:1"], 1),
            (["lambda-sweep", "--methods", "hybrid:2:1", "--lambda-grid", "0.5,1.0"], 1),
            (["rate", "--methods", "hybrid:2:1", "--k-rates", "1,2"], 2),
        ],
        ids=["convergence", "noise", "lambda-sweep", "rate"],
    )
    def test_one_signal_per_trial_and_grid(self, tmp_path, monkeypatch, argv, per_trial):
        # every configuration on a grid reads the same trial signals, so they
        # are generated once per (seed, grid), not once per configuration
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
            (["noise", "--methods", "iterative:3,hybrid:3:1"], [2]),
            (["lambda-sweep", "--methods", "hybrid:3:1", "--lambda-grid", "0.5,1.0"], [2]),
            (["rate", "--methods", "hybrid:3:1", "--k-rates", "1,2"], [1, 1]),  # two grids
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
                ["noise", "--n-coarse", 16,
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
            ("lambda-sweep", "--lambda-grid", ["0.5,1.0,1.5", "1.0", "1.5,0.5"]),
        ],
        ids=["convergence", "noise", "lambda-sweep"],
    )
    def test_configurations_sharing_a_call_change_no_cell(self, tmp_path, command, flag, lists):
        # a configuration's cells are bitwise the same whichever others share its calls
        def rows(values):
            out = tmp_path / f"{values}.csv"
            assert run([command, flag, values, *self.SMALL, "--out", out]) == 0
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
        out = tmp_path / "l.csv"
        assert run(
            ["lambda-sweep", "--lambda-grid", "1.0", "--trials", 1,
             "--methods", "hybrid:3:1", "--n-coarse", 32, "--out", out]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0].keys() == {"lambda", "avg_db_per_iteration"}

    def test_grid_outside_range_rejected(self, tmp_path, capsys):
        code = run(
            ["lambda-sweep", "--lambda-grid", "0.5,2.5", "--trials", 1,
             "--methods", "hybrid:2:1", "--out", tmp_path / "l.csv"]
        )
        assert code == 2
        assert "lambda" in capsys.readouterr().err


class TestNoise:
    def test_negligible_noise_matches_noiseless(self, tmp_path):
        common = ["--trials", 3, "--methods", "hybrid:5:1", "--n-coarse", 64, "--seed", 3]
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        assert run(["convergence", *common, "--out", clean]) == 0
        assert run(["noise", *common, "--noise-power-db", "-300", "--out", noisy]) == 0
        trace_clean = [float(r["mean_snr_db"]) for r in read_rows(clean)]
        trace_noisy = [float(r["mean_snr_db"]) for r in read_rows(noisy)]
        for a, b in zip(trace_clean, trace_noisy):
            assert abs(a - b) < 0.5

    def test_peak_exists_at_minus_20db(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run(
            ["noise", "--trials", 5, "--methods", "iterative:30",
             "--noise-power-db", "-20", "--out", out]
        ) == 0
        trace = [float(r["mean_snr_db"]) for r in read_rows(out)]
        assert max(trace) > trace[-1] - 1e-3
        assert max(trace) > trace[0] + 3.0

    def test_overflowing_samples_named(self, tmp_path, capsys):
        # 3080 dB of noise is 1e308 in power: the samples' own energies overflow
        # float64 while every band bin contracts, and the error says so
        out = tmp_path / "n.csv"
        code = run(["noise", *TINY_TRIALS, "--noise-power-db", "3080", "--out", out])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "overflow" in err and "max |1 - s*gain| = 0.365427 < 1" in err
        assert "does not contract" not in err
        assert not out.exists()


class TestRate:
    def test_same_rate_zero_difference(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            ["rate", "--k-rates", "1,1", "--trials", 2, "--methods", "hybrid:3:1",
             "--n-coarse", 32, "--out", out]
        ) == 0
        diffs = {float(r["gain_diff_vs_first"]) for r in read_rows(out)}
        assert diffs == {0.0}

    def test_monotone_traces(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            ["rate", "--k-rates", "1,2", "--trials", 3, "--methods", "hybrid:4:1",
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

    def test_constant_image_inf_written(self, tmp_path):
        src = tmp_path / "flat.pgm"
        write_pgm(GrayImage(np.full((16, 16), 99, dtype=np.uint8)), src)
        out_dir = tmp_path / "bench"
        assert run(
            ["image", src, "--methods", "bilinear", "--out-dir", out_dir]
        ) == 0
        with open(out_dir / "psnr.csv") as fh:
            text = fh.read()
        assert text.splitlines()[1].endswith("inf")

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
        "--n-coarse", "--out", "--seed", "--ticks", "--trials", "-h",
    ],
    "lambda-sweep": [
        "--dims", "--help", "--k-rate", "--kind", "--lambda-grid", "--methods",
        "--n-coarse", "--out", "--seed", "--ticks", "--trials", "-h",
    ],
    "noise": [
        "--dims", "--help", "--k-rate", "--kind", "--lambda", "--methods",
        "--n-coarse", "--noise-power-db", "--out", "--seed", "--ticks", "--trials", "-h",
    ],
    "rate": [
        "--dims", "--help", "--k-rates", "--kind", "--lambda", "--methods",
        "--n-coarse", "--out", "--seed", "--ticks", "--trials", "-h",
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
    assert sorted(choices) == ["analyze", "convergence", "lambda-sweep", "noise", "rate"]
    for kinds in choices.values():
        assert kinds == [k.value for k in InterpKind]


# the numeric flags of each subcommand
TRIAL_FLAGS = ["--trials", "--seed", "--dims", "--n-coarse", "--ticks"]
SWEPT_FLAGS = {
    "convergence": [*TRIAL_FLAGS, "--lambda", "--k-rate"],
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
    """A small run of ``command``, writing under ``tmp_path``."""
    if command == "analyze":
        return [command]
    if command == "image":
        accel = ["--methods", "bilinear,chebyshev:2,chebyshev:10,chebyshev:2:1"]
        return [command, pgm, *(accel if accelerate else []), "--out-dir", tmp_path / "o"]
    return [command, *TINY_TRIALS, "--out", tmp_path / "x.csv"]


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
    "lambda-sweep": ("x.csv", ["--lambda-grid", "0.5,1.0"]),
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
    """Every numeric flag of every subcommand, set in turn to -1, 0, nan and inf.

    A run exits 0 or 2 and raises nothing; argparse rejects a value that is
    not an integer with SystemExit(2), which counts as 2.  RuntimeWarnings
    are errors in the test suite, so a numpy warning fails the run too.
    """

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in SWEPT_FLAGS.items() for f in flags]
    )
    def test_exits_0_or_2(self, tmp_path, pgm16, command, flag):
        for value in ("-1", "0", "nan", "inf"):
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

    @pytest.mark.parametrize(
        "command,flag", [("lambda-sweep", "--lambda"), ("rate", "--k-rate")]
    )
    def test_unread_flag_dropped(self, capsys, command, flag):
        # the sweep takes its lambdas, and rate its rates, from a list flag;
        # the lone flag is no abbreviation of it either
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

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
        ("iterative:2,hybrid:2:1", ["lambda-sweep", "rate", "analyze"]),
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
