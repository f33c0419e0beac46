import math

import numpy as np
import pytest

from interpcomp import (
    ChebyshevAccel,
    ConfigurationError,
    DenseSignal,
    GridSpec,
    InterpKind,
    ReconConfig,
    ReconOperator,
    SingularSystemError,
    chebyshev_lambdas,
    fixed_point_oracle,
    gen_bandlimited,
    iterate,
    sample,
)
from interpcomp import modular, samplers, solver, spectral
from fine_reference import fine_iterate, measured_gain
from interpcomp.samplers import CoarseSamples, interpolate
from interpcomp.spectral import lowpass_array

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


class TestApplyOperator:
    def test_constant_passthrough(self, grid):
        op = ReconOperator(grid, SH, 1)
        out = op.apply_values(np.full(grid.n_fine, 2.0))
        assert np.max(np.abs(out - 2.0)) < 1e-12

    @pytest.mark.parametrize("kind,p", [(SH, 1), (LI, 2)])
    def test_plain_band_edge_gain(self, kind, p):
        grid = GridSpec(64, 16)
        op = ReconOperator(grid, kind, 0)
        t = np.arange(grid.n_fine)
        x = DenseSignal(grid, np.cos(np.pi * t / grid.ticks_per_sample))
        y = op.apply_values(x.values)
        m = int(0.1 * grid.n_fine)
        basis = np.stack(
            [x.values[m:-m], np.sin(np.pi * t / grid.ticks_per_sample)[m:-m]], axis=1
        )
        amp = np.hypot(*np.linalg.lstsq(basis, y[m:-m], rcond=None)[0])
        assert amp == pytest.approx(np.sinc(0.5) ** p, rel=0.01)

    def test_linear(self, grid, rng):
        op = ReconOperator(grid, SH, 1)
        a = rng.standard_normal(grid.n_fine)
        b = rng.standard_normal(grid.n_fine)
        lhs = op.apply_values(1.5 * a - 0.5 * b)
        rhs = 1.5 * op.apply_values(a) - 0.5 * op.apply_values(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_modules_must_fit_grid(self):
        with pytest.raises(ConfigurationError):
            ReconOperator(GridSpec(16, 4), SH, 3)


class TestIterate:
    def test_constant_exact_recovery(self, grid):
        x = DenseSignal(grid, np.full(grid.n_fine, 3.25))
        for modules in (0, 1):
            rep = iterate(
                sample(x),
                ReconConfig(ReconOperator(grid, SH, modules), iterations=1),
                reference=x,
            )
            assert math.isinf(rep.snr_trace_db[0])

    def test_reduction_to_standard_method(self, grid):
        # zero modules must run the standard relaxed iteration: a from-scratch
        # transcription (no compensator anywhere) reproduces the fine-grid
        # reference bit for bit, and TestSpectralIterate ties iterate to it
        x = gen_bandlimited(13, grid, 34.0)
        s = sample(x)
        relax, iters = 0.9, 6
        rep = fine_iterate(
            s, ReconConfig(ReconOperator(grid, SH, 0), relax=relax, iterations=iters)
        )
        g_obs = lowpass_array(interpolate(s, SH).values, grid)

        def g_of(v):
            coarse = CoarseSamples(grid, v[:: grid.ticks_per_sample])
            return lowpass_array(interpolate(coarse, SH).values, grid)

        xk = relax * g_obs
        for _ in range(iters):
            xk = xk + relax * (g_obs - g_of(xk))
        assert np.max(np.abs(rep.estimate.values - xk)) <= 1e-15 * np.max(np.abs(xk))

    def test_snr_trace_shape_and_counts(self, grid):
        x = gen_bandlimited(3, grid, 34.0)
        rep = iterate(
            sample(x),
            ReconConfig(ReconOperator(grid, SH, 1), iterations=4),
            reference=x,
        )
        assert rep.iterations_run == 4
        assert len(rep.snr_trace_db) == 4
        assert rep.operator_applications == 0  # the loop runs per DFT bin
        assert rep.snr_initial_db is not None

    def test_no_reference_no_trace(self, grid):
        x = gen_bandlimited(3, grid, 34.0)
        rep = iterate(
            sample(x), ReconConfig(ReconOperator(grid, SH, 1), iterations=2)
        )
        assert rep.snr_trace_db is None and rep.snr_initial_db is None

    @pytest.mark.parametrize("relax", [0.2, 1.0, 1.8])
    def test_convergent_lambda_range(self, grid, relax):
        # plain method contracts for all relax in (0,2); flag stays down and
        # update norms shrink monotonically (pre-roundoff)
        x = gen_bandlimited(4, grid, 34.0)
        op = ReconOperator(grid, SH, 0)
        rep = iterate(
            sample(x), ReconConfig(op, relax=relax, iterations=12), reference=x
        )
        assert not rep.non_contraction
        assert rep.snr_trace_db[-1] > rep.snr_trace_db[0]

    def test_update_norm_contraction(self, grid):
        # successive update norms decrease strictly while converging
        x = gen_bandlimited(4, grid, 34.0)
        op = ReconOperator(grid, SH, 0)
        g_obs = op.observation(sample(x))
        xk = g_obs.copy()
        prev = None
        for _ in range(10):
            step = g_obs - op.apply_values(xk)
            xk = xk + step
            norm = np.linalg.norm(step)
            if prev is not None and prev > 1e-9:
                assert norm < prev
            prev = norm

    def test_invalid_config(self, grid):
        op = ReconOperator(grid, SH, 0)
        with pytest.raises(ConfigurationError):
            ReconConfig(op, relax=2.0)
        with pytest.raises(ConfigurationError):
            ReconConfig(op, iterations=0)

    def test_samples_on_another_grid_rejected(self, grid):
        # same shape, other band edge: the observation would cut elsewhere than G
        x = gen_bandlimited(2, GridSpec(grid.n_coarse, grid.ticks_per_sample, 2), 0.0)
        with pytest.raises(ConfigurationError):
            iterate(sample(x), ReconConfig(ReconOperator(grid, SH, 0)))


class TestChebyshev:
    def test_lambda_sequence_arithmetic(self):
        lams = chebyshev_lambdas(1.0, 2.0, 4)
        assert lams[0] == 2.0
        assert lams[1] == pytest.approx(18.0 / 17.0, abs=1e-15)
        rho_sq = (1.0 / 3.0) ** 2
        for prev, cur in zip(lams, lams[1:]):
            assert cur == pytest.approx(1.0 / (1.0 - rho_sq * prev / 4.0), abs=1e-15)

    def test_equal_bounds_degenerate_to_relaxed_iteration(self, grid):
        # A=B: rho=0, all lambda_n = 1 beyond the seed; the recursion collapses
        # to the relaxed iteration with step 2/(A+B)
        assert chebyshev_lambdas(1.5, 1.5, 5) == (2.0, 1.0, 1.0, 1.0, 1.0)
        x = gen_bandlimited(9, grid, 34.0)
        s = sample(x)
        op = ReconOperator(grid, SH, 1)
        rep = iterate(
            s,
            ReconConfig(op, iterations=6, acceleration=ChebyshevAccel(1.3, 1.3)),
        )
        step = 2.0 / 2.6
        g_obs = op.observation(s)
        xk = step * g_obs
        for _ in range(5):
            xk = xk + step * (g_obs - op.apply_values(xk))
        assert np.max(np.abs(rep.estimate.values - xk)) < 1e-12 * np.max(np.abs(xk))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            ChebyshevAccel(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            ChebyshevAccel(0.0, 1.0)

    def test_accelerates_its_base_iteration(self, grid):
        x = gen_bandlimited(21, grid, 34.0)
        s = sample(x)
        op = ReconOperator(grid, SH, 1)
        accel = ChebyshevAccel(1.0, 2.0)
        cheb = iterate(
            s, ReconConfig(op, iterations=10, acceleration=accel), reference=x
        )
        base = iterate(
            s, ReconConfig(op, relax=2.0 / 3.0, iterations=10), reference=x
        )
        for i in range(2, 10):
            assert cheb.snr_trace_db[i] >= base.snr_trace_db[i]


class TestIterate2d:
    def grids(self):
        return GridSpec(24, 8), GridSpec(24, 8)

    def grid_pairs(self):
        # an unequal pair as well, so that an axis mix-up cannot cancel out
        return [self.grids(), (GridSpec(24, 8), GridSpec(16, 4))]

    def test_constant_exact(self):
        gy, gx = self.grids()
        img = DenseSignal((gy, gx), np.full((gy.n_fine, gx.n_fine), 7.0))
        rep = iterate(
            sample(img),
            ReconConfig(ReconOperator((gy, gx), SH, 1), iterations=1),
            reference=img,
        )
        assert math.isinf(rep.snr_trace_db[0])

    def test_more_modules_better_at_two_iterations(self):
        gy, gx = self.grids()
        gaps = []
        for seed in range(5):
            img = gen_bandlimited(60 + seed, (gy, gx), 34.0)
            ls = sample(img)
            snr = {}
            for modules in (0, 4):
                rep = iterate(
                    ls,
                    ReconConfig(ReconOperator((gy, gx), SH, modules), iterations=2),
                    reference=img,
                )
                snr[modules] = rep.snr_trace_db[-1]
            gaps.append(snr[4] - snr[0])
        assert np.mean(gaps) >= 5.0

    def test_operator_separability_exact(self, rng):
        for gy, gx in self.grid_pairs():
            op2 = ReconOperator((gy, gx), SH, 1)
            op_y = ReconOperator(gy, SH, 1)
            op_x = ReconOperator(gx, SH, 1)
            u = gen_bandlimited(1, gy, 0.0).values
            v = gen_bandlimited(2, gx, 0.0).values
            lhs = op2.apply_values(np.outer(u, v))
            rhs = np.outer(op_y.apply_values(u), op_x.apply_values(v))
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (gy, gx)

    def test_rank_one_matches_outer_product_at_convergence(self):
        # both the 2-D recursion and the per-axis 1-D recursions converge to
        # the same rank-1 band-limited signal
        for gy, gx in self.grid_pairs():
            u = gen_bandlimited(5, gy, 0.0)
            v = gen_bandlimited(6, gx, 0.0)
            img = DenseSignal((gy, gx), np.outer(u.values, v.values))
            rep2 = iterate(
                sample(img),
                ReconConfig(ReconOperator((gy, gx), SH, 1), iterations=40),
            )
            rep_u = iterate(
                sample(u), ReconConfig(ReconOperator(gy, SH, 1), iterations=40)
            )
            rep_v = iterate(
                sample(v), ReconConfig(ReconOperator(gx, SH, 1), iterations=40)
            )
            outer = np.outer(rep_u.estimate.values, rep_v.estimate.values)
            rms = np.sqrt(np.mean((rep2.estimate.values - outer) ** 2))
            assert rms < 1e-9, (gy, gx)

    def test_chebyshev_2d_beats_base(self):
        gy, gx = self.grids()
        img = gen_bandlimited(5, (gy, gx), 34.0)
        ls = sample(img)
        op = ReconOperator((gy, gx), SH, 4)
        cheb = iterate(
            ls,
            ReconConfig(op, iterations=8, acceleration=ChebyshevAccel(1.0, 2.0)),
            reference=img,
        )
        base = iterate(
            ls, ReconConfig(op, relax=2.0 / 3.0, iterations=8), reference=img
        )
        for i in range(2, 8):
            assert cheb.snr_trace_db[i] >= base.snr_trace_db[i]


class TestSpectralIterate:
    """The per-bin solve against the fine-grid reference loop."""

    LOOPS = [
        dict(relax=1.0),
        dict(relax=0.7),
        dict(acceleration=ChebyshevAccel()),
        dict(acceleration=ChebyshevAccel(0.9, 1.1)),
    ]
    FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
    # traced SNRs agree to this below SNR_CHECKED_BELOW_DB (worst measured
    # 6.1e-8 dB over test_matches_iterate's cells); above it, rounding of the
    # estimate alone moves a cell by up to 4e-3 dB near 240 dB and by whole
    # dB on the float64 floor, so there the estimate's 1e-12 check stands
    SNR_TOL_DB = 1e-6
    SNR_CHECKED_BELOW_DB = 150.0

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(64, 16),
            GridSpec(25, 8),
            GridSpec(32, 8, 2),
            (GridSpec(24, 8), GridSpec(16, 4)),
            (GridSpec(16, 2), GridSpec(12, 2)),
            (GridSpec(25, 8, 2), GridSpec(16, 4)),
            (GridSpec(25, 2), GridSpec(13, 2)),
        ],
        ids=[
            "64x16", "25x8-odd", "32x8-rate2", "24x8-by-16x4", "16x2-by-12x2", "25x8-rate2-by-16x4",
            "25x2-by-13x2-odd",
        ],
    )
    def test_matches_iterate(self, grid, kind):
        x = gen_bandlimited(8, grid, 34.0)
        s = sample(x)
        min_ticks = min(g.ticks_per_sample for g in s.grid)
        for modules in range(min(2, min_ticks // 2) + 1):
            for loop in self.LOOPS:
                cfg = ReconConfig(ReconOperator(grid, kind, modules), iterations=10, **loop)
                ref = fine_iterate(s, cfg, reference=x)
                rep = iterate(s, cfg, reference=x)
                err = np.max(np.abs(rep.estimate.values - ref.estimate.values))
                assert err <= 1e-12 * np.max(np.abs(ref.estimate.values)), (modules, loop)
                assert rep.operator_applications == 0
                assert rep.non_contraction == ref.non_contraction
                assert (rep.snr_initial_db is None) == (ref.snr_initial_db is None)
                assert len(rep.snr_trace_db) == len(ref.snr_trace_db)
                cells = list(zip(rep.snr_trace_db, ref.snr_trace_db))
                if ref.snr_initial_db is not None:
                    cells.append((rep.snr_initial_db, ref.snr_initial_db))
                for got, want in cells:
                    if want < self.SNR_CHECKED_BELOW_DB:
                        assert got == pytest.approx(want, abs=self.SNR_TOL_DB), (modules, loop)

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize(
        "grid",
        [GridSpec(64, 16), GridSpec(25, 8), GridSpec(32, 8, 2), (GridSpec(24, 8), GridSpec(16, 4)),
         (GridSpec(25, 8, 2), GridSpec(16, 4))],
        ids=["64x16", "25x8-odd", "32x8-rate2", "24x8-by-16x4", "25x8-rate2-by-16x4"],
    )
    def test_observation_from_coarse_spectrum(self, grid, kind):
        # interpolating and mixing commute with a one-sample shift, so the
        # observation's band follows from the coarse spectrum; at rate 2 the
        # band edge is not the coarse Nyquist bin, so no mask weight folds
        s = sample(gen_bandlimited(6, grid, 0.0))
        for modules in (0, 1, 2):
            op = ReconOperator(grid, kind, modules)
            band, g_obs, _ = solver._band_observation(op, s.values)
            ref = np.fft.rfftn(op.observation(s))[band]
            assert np.max(np.abs(g_obs - ref)) <= 1e-12 * np.max(np.abs(ref)), modules

    def stage_calls(self, monkeypatch):
        """Record every call of a stage of G, patched where the stage is defined."""
        stages = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                stages.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module, name in ((samplers, "_interp_axis"), (modular, "_mix_axis"),
                             (spectral, "lowpass_array")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(
            ReconOperator, "apply_values", counted("apply_values", ReconOperator.apply_values)
        )
        return stages

    def transform_calls(self, monkeypatch):
        """Record every numpy.fft call as (name, input shape, output shape)."""
        transforms = []

        def recorded(name, fn):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                transforms.append((name, np.shape(a), out.shape))
                return out

            return wrapper

        for name in self.FFT_NAMES:
            monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
        return transforms

    def test_no_fine_grid_pass(self, monkeypatch):
        # a guard against a fine-grid pass of G coming back: the solve
        # interpolates, mixes and lowpasses nothing; it transforms the coarse
        # values once, and the band back to the fine grid once per traced
        # iterate (the start and 10 iterations) and once for the estimate
        grid = (GridSpec(24, 8), GridSpec(16, 4))
        x = gen_bandlimited(4, grid, 0.0)
        s = sample(x)
        cfg = ReconConfig(ReconOperator(grid, SH, 1), iterations=10)
        warm = iterate(s, cfg).estimate.values
        stages = self.stage_calls(monkeypatch)
        transforms = self.transform_calls(monkeypatch)
        for reference, traced in ((None, 0), (x, 11)):
            stages.clear()
            transforms.clear()
            rep = iterate(s, cfg, reference=reference)
            assert stages == []
            assert [t[0] for t in transforms] == ["rfftn"] + ["irfftn"] * (traced + 1)
            assert transforms[0][1] == (24, 16)
            assert all(t[2] == (192, 64) for t in transforms[1:])
            assert rep.operator_applications == 0
            np.testing.assert_array_equal(rep.estimate.values, warm)

    def test_cold_solve_runs_no_stage_of_g(self, monkeypatch):
        # the per-bin gain is in closed form, so a solve with an empty cache
        # runs no stage of G either, and transforms exactly as a warm one
        grid = (GridSpec(20, 6), GridSpec(14, 4))
        s = sample(gen_bandlimited(4, grid, 0.0))
        cfg = ReconConfig(ReconOperator(grid, SH, 1), iterations=10)
        stages = self.stage_calls(monkeypatch)
        transforms = self.transform_calls(monkeypatch)
        solver._axis_band.cache_clear()
        cold = iterate(s, cfg).estimate.values
        cold_transforms = list(transforms)
        transforms.clear()
        warm = iterate(s, cfg).estimate.values
        assert stages == []
        assert cold_transforms == transforms == [
            ("rfftn", (20, 14), (20, 8)), ("irfftn", (120, 29), (120, 56))
        ]
        np.testing.assert_array_equal(cold, warm)

    def test_divergence_flagged(self, grid):
        # 1-module gain peaks at 1.061: relax=1.95 pushes |1-relax*H| past 1
        s = sample(gen_bandlimited(5, grid, 34.0))
        op = ReconOperator(grid, SH, 1)
        rep = iterate(s, ReconConfig(op, relax=1.95, iterations=80))
        assert rep.non_contraction
        # a contracting run, still above the rounding floor, is not flagged
        plain = ReconOperator(grid, SH, 0)
        rep = iterate(s, ReconConfig(plain, relax=1.0, iterations=12))
        assert not rep.non_contraction
        # |1 - 1.9*1.061| = 1.016: diverging too slowly for 10 iterations of
        # update norms to show it, but a bin does not contract
        rep = iterate(s, ReconConfig(op, relax=1.9, iterations=10))
        assert rep.non_contraction
        # Chebyshev steps by 2/(A+B): bounds far below the gain overshoot it
        rep = iterate(s, ReconConfig(op, iterations=10, acceleration=ChebyshevAccel(0.3, 0.4)))
        assert rep.non_contraction
        # the default bounds do not bracket the plain gain [0.645, 1], yet
        # 2/(A+B) = 2/3 still contracts every bin
        rep = iterate(s, ReconConfig(plain, iterations=10, acceleration=ChebyshevAccel(1, 2)))
        assert not rep.non_contraction
        # a converged run whose updates are rounding noise is not flagged
        x = gen_bandlimited(5, grid, 34.0)
        rep = iterate(s, ReconConfig(op, iterations=60), reference=x)
        assert rep.snr_trace_db[-1] > 240.0
        assert not rep.non_contraction


class TestBandGain:
    """The closed-form per-bin gain against G measured on the fine grid."""

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("n_coarse", [8, 9, 16, 33])
    def test_matches_measured_gain(self, kind, n_coarse):
        for ticks in range(2, 17, 2):
            for rate in (1, 2, 3):
                grid = GridSpec(n_coarse, ticks, rate)
                for modules in range(min(2, ticks // 2) + 1):
                    measured = measured_gain(grid, kind, modules)
                    for last in (True, False):
                        index, weight, gain = solver._axis_band(grid, kind, modules, last)
                        signed = np.where(index > grid.n_fine // 2, grid.n_fine - index, index)
                        err = np.max(np.abs(gain - measured[signed]))
                        assert err <= 1e-13 * np.max(np.abs(measured)), (grid, modules, last)

    def test_read_only(self):
        for array in solver._axis_band(GridSpec(16, 4), SH, 1, False):
            assert not array.flags.writeable


class TestFixedPointOracle:
    def test_constant_observation(self):
        grid = GridSpec(16, 4)
        x = DenseSignal(grid, np.full(grid.n_fine, 2.0))
        sol = fixed_point_oracle(sample(x), ReconOperator(grid, SH, 0))
        assert np.max(np.abs(sol.values - 2.0)) < 1e-12

    def test_recovers_original_at_nyquist(self):
        grid = GridSpec(32, 16)
        x = gen_bandlimited(11, grid, 0.0)
        sol = fixed_point_oracle(sample(x), ReconOperator(grid, SH, 0))
        assert np.sqrt(np.mean((sol.values - x.values) ** 2)) < 1e-8

    @pytest.mark.parametrize("kind", [SH, LI])
    @pytest.mark.parametrize("modules", [0, 1])
    def test_iterate_converges_to_oracle(self, kind, modules):
        grid = GridSpec(32, 16)
        x = gen_bandlimited(11, grid, 0.0)
        s = sample(x)
        op = ReconOperator(grid, kind, modules)
        rep = iterate(s, ReconConfig(op, iterations=60))
        oracle = fixed_point_oracle(s, op)
        rms = np.sqrt(np.mean((rep.estimate.values - oracle.values) ** 2))
        assert rms < 1e-9

    def test_singular_system_reported(self):
        # every real operator is invertible on its passband, so G is faked:
        # removing the mean of its output sends the constant to zero
        class MeanFreeOperator(ReconOperator):
            def apply_values(self, values):
                out = super().apply_values(values)
                return out - out.mean()

        grid = GridSpec(16, 4)
        x = gen_bandlimited(3, grid, 0.0)
        op = MeanFreeOperator(grid, SH, 0)
        with pytest.raises(SingularSystemError):
            fixed_point_oracle(sample(x), op)

    def test_multi_axis_rejected(self):
        grid = GridSpec(8, 4)
        img = DenseSignal((grid, grid), np.ones((32, 32)))
        with pytest.raises(ConfigurationError):
            fixed_point_oracle(sample(img), ReconOperator((grid, grid), SH, 0))

    def test_instance_size_capped(self):
        grid = GridSpec(64, 16)  # 1024 fine points
        x = gen_bandlimited(3, grid, 0.0)
        with pytest.raises(ConfigurationError):
            fixed_point_oracle(sample(x), ReconOperator(grid, SH, 0))
