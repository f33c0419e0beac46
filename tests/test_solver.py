import contextlib
import math
import re

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
    add_awgn,
    gen_bandlimited,
    iterate,
    sample,
    snr_db,
)
from interpcomp import samplers, solver
from fine_reference import (
    apply_g, band_matrix, chebyshev_lambdas, closed_form_gain, cosine_factor, dense_oracle,
    fine_solve, lowpass, measured_gain, observation, on_extension,
)
from interpcomp.samplers import CoarseSamples, interpolate
from interpcomp.solver import SingularSystemError, fixed_point_oracle

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


def stacked(signals):
    """The values of ``signals`` (CoarseSamples, DenseSignals or arrays), one row each, as
    ``solver._traces`` takes its coarse samples and references."""
    return np.stack([getattr(v, "values", v) for v in signals])


class TestApplyOperator:
    def test_constant_passthrough(self, grid):
        op = ReconOperator(grid, SH, 1)
        out = apply_g(op, np.full(grid.n_fine, 2.0))
        assert np.max(np.abs(out - 2.0)) < 1e-12

    @pytest.mark.parametrize("kind,p", [(SH, 1), (LI, 2)])
    def test_plain_band_edge_gain(self, kind, p):
        grid = GridSpec(64, 16)
        op = ReconOperator(grid, kind, 0)
        t = np.arange(grid.n_fine)
        x = DenseSignal(grid, np.cos(np.pi * t / grid.ticks_per_sample))
        y = apply_g(op, x.values)
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
        lhs = apply_g(op, 1.5 * a - 0.5 * b)
        rhs = 1.5 * apply_g(op, a) - 0.5 * apply_g(op, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_modules_must_fit_grid(self):
        with pytest.raises(ConfigurationError):
            ReconOperator(GridSpec(16, 4), SH, 3)

    def test_negative_modules_rejected(self):
        with pytest.raises(ConfigurationError, match="modules must be >= 0"):
            ReconOperator(GridSpec(16, 4), SH, -1)

    @pytest.mark.parametrize("kind", ["sh", "bogus", None])
    def test_kind_must_be_an_interp_kind(self, kind):
        # G branches on the hold alone: "sh" would solve as linear interpolation
        with pytest.raises(ConfigurationError, match=f"kind must be an InterpKind, got {kind!r}"):
            ReconOperator(GridSpec(16, 4), kind, 0)


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

    def test_complex_reference_rejected(self, grid):
        # the traced solve scores the reference as real, so an imaginary part is an error
        x = gen_bandlimited(3, grid, 0.0)
        cfg = ReconConfig(ReconOperator(grid, SH, 0))
        with pytest.raises(ConfigurationError, match="must be real"):
            iterate(sample(x), cfg, reference=x.values + 0j)
        with pytest.raises(ConfigurationError, match="must be real"):
            solver._traces(stacked([sample(x)]), [cfg], stacked([x.values + 0j]))

    def test_reduction_to_standard_method(self, grid):
        # zero modules must run the standard relaxed iteration: a from-scratch
        # transcription (no compensator anywhere) reproduces the fine-grid
        # reference bit for bit, and TestSpectralIterate ties iterate to it
        x = gen_bandlimited(13, grid, 34.0)
        s = sample(x)
        relax, iters = 0.9, 6
        rep = fine_solve(
            s, ReconConfig(ReconOperator(grid, SH, 0), relax=relax, iterations=iters)
        )
        g_obs = lowpass(interpolate(s, SH)).values

        def g_of(v):
            coarse = CoarseSamples(grid, v[:: grid.ticks_per_sample])
            return lowpass(interpolate(coarse, SH)).values

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
        assert len(rep.snr_trace_db) == 4
        assert rep.snr_initial_db is not None

    def test_no_reference_no_trace(self, grid):
        x = gen_bandlimited(3, grid, 34.0)
        rep = iterate(
            sample(x), ReconConfig(ReconOperator(grid, SH, 1), iterations=2)
        )
        assert rep.snr_trace_db is None and rep.snr_initial_db is None

    @pytest.mark.parametrize("relax", [0.2, 1.0, 1.8])
    def test_convergent_lambda_range(self, grid, relax):
        # the plain method contracts for all relax in (0,2): the flag stays
        # down and the SNR rises
        x = gen_bandlimited(4, grid, 34.0)
        op = ReconOperator(grid, SH, 0)
        rep = iterate(
            sample(x), ReconConfig(op, relax=relax, iterations=12), reference=x
        )
        assert not rep.non_contraction
        assert rep.snr_trace_db[-1] > rep.snr_trace_db[0]

    def test_update_norm_contraction(self, grid):
        x = gen_bandlimited(4, grid, 34.0)
        op = ReconOperator(grid, SH, 0)
        g_obs = observation(op, sample(x))
        xk = g_obs.copy()
        prev = None
        for _ in range(10):
            step = g_obs - apply_g(op, xk)
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
        with pytest.raises(ConfigurationError, match="same grids"):
            observation(ReconOperator(grid, SH, 0), sample(x))


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
        assert chebyshev_lambdas(1.5, 1.5, 5) == [2.0, 1.0, 1.0, 1.0, 1.0]
        x = gen_bandlimited(9, grid, 34.0)
        s = sample(x)
        op = ReconOperator(grid, SH, 1)
        rep = iterate(
            s,
            ReconConfig(op, iterations=6, acceleration=ChebyshevAccel(1.3, 1.3)),
        )
        step = 2.0 / 2.6
        g_obs = observation(op, s)
        xk = step * g_obs
        for _ in range(5):
            xk = xk + step * (g_obs - apply_g(op, xk))
        assert np.max(np.abs(rep.estimate.values - xk)) < 1e-12 * np.max(np.abs(xk))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            ChebyshevAccel(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            ChebyshevAccel(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ChebyshevAccel(1.0, np.inf)

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
            lhs = apply_g(op2, np.outer(u, v))
            rhs = np.outer(apply_g(op_y, u), apply_g(op_x, v))
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
        dict(relax=1.5),
        dict(acceleration=ChebyshevAccel()),
        dict(acceleration=ChebyshevAccel(0.9, 1.1)),
        dict(acceleration=ChebyshevAccel(1.3, 1.3)),  # rho = 0
    ]
    FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
    # traced SNRs agree to this below SNR_CHECKED_BELOW_DB (worst measured
    # 5.1e-8 dB over test_matches_iterate's cells); above it, rounding of the
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
                ref = fine_solve(s, cfg, reference=x)
                rep = iterate(s, cfg, reference=x)
                err = np.max(np.abs(rep.estimate.values - ref.estimate.values))
                assert err <= 1e-12 * np.max(np.abs(ref.estimate.values)), (modules, loop)
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
        # observation's band, T times the gain, follows from the coarse
        # spectrum; at rate 2 the band edge is not the coarse Nyquist bin, so
        # no mask weight folds
        s = sample(gen_bandlimited(6, grid, 0.0))
        for modules in (0, 1, 2):
            op = ReconOperator(grid, kind, modules)
            index, fixed = solver._band_observation(op, s.values)
            gain = 1.0 - solver._factors(ReconConfig(op))[0]  # q = 1 - G̃ at relax 1
            ref = np.fft.rfftn(observation(op, s))[np.ix_(*index)]
            assert np.max(np.abs(fixed * gain - ref)) <= 1e-12 * np.max(np.abs(ref)), modules

    def stage_calls(self, monkeypatch):
        """Record every call of the interpolation, patched where it is defined and where bound.

        The package has no fine-grid G left to call: only the tests' ``apply_g`` runs one.
        """
        stages = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                stages.append(name)
                return fn(*args, **kwargs)

            return wrapper

        interp = counted("_interp_axis", samplers._interp_axis)
        for owner in (samplers, solver):
            monkeypatch.setattr(owner, "_interp_axis", interp)
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
        # values once and the estimate's band back to the fine grid once,
        # transforming the columns only on the band's 9 of 33 rfft bins.  The
        # trace transforms the coarse values, the reference forward, the
        # reference's band back and its interior remainder forward, whatever
        # its number of configurations and of iterates (the start and 10
        # iterations); a batch of B trials makes the same transforms, each on
        # a stack of B.  A traced solve scores the coarse transform it solved
        # from, and makes no second one
        grid = (GridSpec(24, 8), GridSpec(16, 4))
        cfgs = [ReconConfig(ReconOperator(grid, SH, m), iterations=10) for m in (0, 1, 2)]
        xs = [gen_bandlimited(seed, grid, 0.0) for seed in (4, 5, 6)]
        batch = [sample(x) for x in xs]
        warm = iterate(batch[0], cfgs[1]).estimate.values
        stages = self.stage_calls(monkeypatch)
        transforms = self.transform_calls(monkeypatch)

        def inverse(trials):
            return [
                ("ifft", (trials, 192, 9), (trials, 192, 9)),
                ("irfft", (trials, 192, 9), (trials, 192, 64)),
            ]

        def trace(trials):
            forward = ("rfftn", (trials, 192, 64), (trials, 192, 33))
            coarse = ("rfftn", (trials, 24, 16), (trials, 24, 9))
            return [coarse, forward, *inverse(trials), forward]

        for reference, traced in ((None, []), (xs[0], trace(1)[1:])):
            stages.clear()
            transforms.clear()
            rep = iterate(batch[0], cfgs[1], reference=reference)
            assert stages == []
            assert transforms == trace(1)[:1] + inverse(1) + traced
            np.testing.assert_array_equal(rep.estimate.values, warm)
        for trials, configs in ((1, cfgs[:1]), (1, cfgs), (3, cfgs)):
            transforms.clear()
            solver._traces(stacked(batch[:trials]), configs, stacked(xs[:trials]))
            assert stages == []
            assert transforms == trace(trials)

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
            ("rfftn", (1, 20, 14), (1, 20, 8)), ("ifft", (1, 120, 8), (1, 120, 8)),
            ("irfft", (1, 120, 8), (1, 120, 56)),
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
        # |1 - 1.9*1.061| = 1.016: a bin does not contract, however slowly
        # the run diverges
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

    def test_overflow_names_the_contraction_factor(self, grid):
        # max |1 - 1.95*G̃| = 1.073 on this grid: the error grows by that per
        # iteration and overflows float64 long before 12,000 iterations; the
        # error names the factor, not the signal
        s = sample(gen_bandlimited(5, grid, 34.0))
        cfg = ReconConfig(ReconOperator(grid, SH, 1), relax=1.95, iterations=12_000)
        with pytest.raises(ConfigurationError, match=r"max \|1 - s\*gain\| = 1\.073"):
            iterate(s, cfg)

    def test_long_chebyshev_run_stays_finite(self, grid):
        s = sample(gen_bandlimited(5, grid, 34.0))
        op = ReconOperator(grid, SH, 0)
        runs = [
            iterate(s, ReconConfig(op, iterations=k, acceleration=ChebyshevAccel())).estimate.values
            for k in (500, 3000)
        ]
        assert np.all(np.isfinite(runs[1]))
        assert np.max(np.abs(runs[1] - runs[0])) <= 1e-12 * np.max(np.abs(runs[0]))


class TestBandTrace:
    """The SNR trace from the band against a long-double inverse transform and sums per iterate."""

    LOOPS = [dict(relax=1.0), dict(relax=0.7), dict(acceleration=ChebyshevAccel())]
    # the worst cell measured 8.1e-9 dB off below SNR_CHECKED_BELOW_DB and
    # 5.0e-4 dB below FLOOR_DB, where the float64 rounding of R - T, about
    # 1e-16 of T, is no longer small beside the error band e_j·T; at the
    # float64 floor (about 290 dB) rounding moves cells by whole dB
    SNR_TOL_DB = 1e-6
    SNR_CHECKED_BELOW_DB = 150.0
    FLOOR_TOL_DB = 1e-3
    FLOOR_DB = 240.0

    @staticmethod
    def transcribed(s, cfg, reference):
        """Each iterate's interior SNR, from its band's inverse transform, all in long double.

        numpy transforms long-double input in long double, so past the
        solve's gain, index and lattice weights nothing here rounds as in
        float64: T, the error factors, each iterate's inverse transform and
        the sums of :func:`snr_db`.
        """
        ld = np.longdouble
        op, accel = cfg.operator, cfg.acceleration
        ndim = len(op.grid)
        bands = [
            solver._axis_band(g, op.kind, op.modules, a == ndim - 1) for a, g in enumerate(op.grid)
        ]
        index = [k for k, _, _ in bands]
        coarse = np.fft.rfftn(s.values.astype(ld), axes=tuple(range(ndim)))
        fixed = coarse[np.ix_(*[k % g.n_coarse for k, g in zip(index, op.grid)])]
        fixed = fixed * solver._outer([w.astype(ld) for _, w, _ in bands])
        gain = solver._outer([raw.astype(ld) for _, _, raw in bands])
        q = 1 - ld(cfg.relax if accel is None else 2.0 / (accel.a + accel.b)) * gain
        factors = solver._error_factors(q, 0.0 if accel is None else accel.rho)
        shape = tuple([g.n_fine for g in s.grid])
        interior = solver._interior(shape)
        ref = np.asarray(getattr(reference, "values", reference), dtype=ld)[interior]
        energy = np.sum(ref * ref)
        cells = []
        for _, e in zip(range(cfg.iterations + (accel is None)), factors):
            spectrum = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.clongdouble)
            spectrum[np.ix_(*index)] = (1 - e) * fixed
            values = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(ndim)))
            err = np.sum((ref - values[interior]) ** 2)
            if err == 0 or energy == 0:
                cells.append(math.inf if err == 0 else -math.inf)
            else:
                cells.append(float(10 * np.log10(energy / err)))
        return cells

    @staticmethod
    def traced(s, cfg, reference):
        rep = iterate(s, cfg, reference=reference)
        return ([] if rep.snr_initial_db is None else [rep.snr_initial_db]) + rep.snr_trace_db

    @pytest.mark.parametrize("noisy", [False, True], ids=["bandlimited", "awgn"])
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
    def test_matches_transcribed_trace(self, grid, kind, noisy):
        x = gen_bandlimited(8, grid, 34.0)
        s = sample(x)
        # a reference with noise is not band-limited: the trace needs no band
        reference = add_awgn(x, 10.0, 5) if noisy else x
        min_ticks = min(g.ticks_per_sample for g in s.grid)
        for modules in range(min(2, min_ticks // 2) + 1):
            for loop in self.LOOPS:
                cfg = ReconConfig(ReconOperator(grid, kind, modules), iterations=10, **loop)
                got = self.traced(s, cfg, reference)
                want = self.transcribed(s, cfg, reference)
                assert len(got) == len(want)
                for cell, ref in zip(got, want):
                    if ref < self.SNR_CHECKED_BELOW_DB:
                        assert cell == pytest.approx(ref, abs=self.SNR_TOL_DB), (modules, loop)
                    elif ref < self.FLOOR_DB:
                        assert cell == pytest.approx(ref, abs=self.FLOOR_TOL_DB), (modules, loop)

    def test_stacks_change_no_cell(self, monkeypatch):
        # a long run goes through in several stacks of iterates, a batch too:
        # a stack then holds that many iterates of every trial
        grid = (GridSpec(16, 4), GridSpec(12, 4))
        xs = [gen_bandlimited(seed, grid, 34.0) for seed in (8, 9, 10)]
        cfg = ReconConfig(ReconOperator(grid, LI, 1), relax=0.7, iterations=30)
        wholes = [self.traced(sample(x), cfg, x) for x in xs]
        # one iterate, and seven iterates of the 17 x 7 band, of one trial or of three
        for size, trials in ((1, 1), (7 * 17 * 7, 1), (1, 3), (3 * 7 * 17 * 7, 3)):
            monkeypatch.setattr(solver, "BATCH_POINTS", size)
            coarse = stacked([sample(x) for x in xs[:trials]])
            [(inits, traces)] = solver._traces(coarse, [cfg], stacked(xs[:trials]))
            for init, trace, whole in zip(inits, traces, wholes):
                assert [init] + trace == pytest.approx(whole, rel=1e-12)

    def test_constant_signal_is_exact(self, grid):
        # G̃ is 1 at DC, so at relax 1 every iterate is the constant itself
        x = DenseSignal(grid, np.full(grid.n_fine, 3.0))
        cfg = ReconConfig(ReconOperator(grid, SH, 1), iterations=10)
        assert self.traced(sample(x), cfg, x) == [math.inf] * 11
        assert self.transcribed(sample(x), cfg, x) == [math.inf] * 11

    def test_zero_reference(self, grid):
        s = sample(gen_bandlimited(8, grid, 0.0))
        cfg = ReconConfig(ReconOperator(grid, LI, 0), relax=0.7, iterations=10)
        zero = DenseSignal(grid, np.zeros(grid.n_fine))
        assert self.traced(s, cfg, zero) == [-math.inf] * 11

    def test_reference_of_another_shape_rejected(self, grid):
        x = gen_bandlimited(8, grid, 0.0)
        cfg = ReconConfig(ReconOperator(grid, SH, 0))
        for reference in (x.values[:-1], x.values[: grid.n_fine // 2]):
            with pytest.raises(ConfigurationError, match="shape mismatch"):
                iterate(sample(x), cfg, reference=reference)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reference_rejected(self, grid, bad):
        # named as snr_db names it, not as an overflow of the solve
        x = gen_bandlimited(8, grid, 0.0)
        cfg = ReconConfig(ReconOperator(grid, SH, 0), iterations=5)
        reference = x.values.copy()
        reference[grid.n_fine // 2] = bad
        with pytest.raises(ConfigurationError, match="reference and estimate must be finite"):
            iterate(sample(x), cfg, reference=reference)

    def test_energy_overflow_raises(self, grid, monkeypatch):
        # the factors 1.073**k are finite at k = 8000 and the iterates' error
        # energies are not; np.errstate sees the overflow, and the stack's
        # finiteness check catches what a threaded BLAS would hide from it
        x = gen_bandlimited(5, grid, 34.0)
        s = sample(x)
        cfg = ReconConfig(ReconOperator(grid, SH, 1), relax=1.95, iterations=8000)
        with pytest.raises(ConfigurationError, match=r"overflow .* = 1\.073"):
            iterate(s, cfg, reference=x)
        with np.errstate(all="ignore"):
            # with np.errstate inert, the finiteness check alone must catch it
            monkeypatch.setattr(np, "errstate", lambda **kwargs: contextlib.nullcontext())
            with pytest.raises(ConfigurationError, match=r"does not contract, .* = 1\.073"):
                solver._traces(stacked([s]), [cfg], stacked([x]))


class TestBatch:
    """Trials and configurations scored in one ``_traces`` call, against one traced solve each."""

    LOOPS = [dict(relax=1.0), dict(relax=0.7), dict(acceleration=ChebyshevAccel())]

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize(
        "grid",
        [GridSpec(64, 16), GridSpec(32, 8, 2), (GridSpec(16, 4), GridSpec(12, 4)),
         (GridSpec(8, 4, 2), GridSpec(12, 4))],
        ids=["64x16", "32x8-rate2", "16x4-by-12x4", "8x4-rate2-by-12x4"],
    )
    def test_bitwise_one_solve_per_trial(self, grid, kind, trials):
        # every SNR cell of every configuration is bitwise that of the trial's
        # own traced solve, with nine configurations sharing one call; the
        # samples carry noise, as the noise experiment's do
        xs = [gen_bandlimited(seed, grid, 34.0) for seed in range(3, 3 + trials)]
        batch = [sample(add_awgn(x, 10.0, seed)) for seed, x in enumerate(xs)]
        configs = [
            ReconConfig(ReconOperator(grid, kind, modules), iterations=6, **loop)
            for modules in range(3)
            for loop in self.LOOPS
        ]
        cells = solver._traces(stacked(batch), configs, stacked(xs))
        for cfg, (inits, traces) in zip(configs, cells, strict=True):
            for s, x, init, trace in zip(batch, xs, inits, traces, strict=True):
                one = iterate(s, cfg, reference=x)
                assert init == one.snr_initial_db, cfg
                assert trace == one.snr_trace_db, cfg

    def test_mismatch_rejected(self):
        grid = GridSpec(16, 4)
        cfg = ReconConfig(ReconOperator(grid, SH, 1), iterations=3)
        xs = [gen_bandlimited(seed, grid, 0.0) for seed in range(3)]
        batch = [sample(x) for x in xs]
        coarse, refs = stacked(batch), stacked(xs)
        # rows a tick short, one trial too few or too many, one row alone
        for bad in (refs[:, :-1], refs[:2], stacked(xs + xs[:1]), refs[0]):
            with pytest.raises(ConfigurationError, match="shape mismatch"):
                solver._traces(coarse, [cfg], bad)
        with pytest.raises(ConfigurationError, match="must be real"):
            solver._traces(coarse, [cfg], refs + 0j)
        for bad in (math.nan, math.inf, -math.inf):
            nonfinite = refs.copy()
            nonfinite[2, 5] = bad
            with pytest.raises(ConfigurationError, match="reference and estimate must be finite"):
                solver._traces(coarse, [cfg], nonfinite)
        # the coarse stack is checked as CoarseSamples checks one trial's samples
        for bad in (math.nan, math.inf):
            nonfinite = coarse.copy()
            nonfinite[1, 3] = bad
            with pytest.raises(ConfigurationError, match="CoarseSamples: values must all be finite"):
                solver._traces(nonfinite, [cfg], refs)
        with pytest.raises(ConfigurationError, match="CoarseSamples: expected shape"):
            solver._traces(coarse[:, :-1], [cfg], refs)
        with pytest.raises(ConfigurationError, match="must be real"):
            solver._traces(coarse + 0j, [cfg], refs)
        other = sample(gen_bandlimited(0, GridSpec(16, 4, 2), 0.0))  # same shape, another band
        with pytest.raises(ConfigurationError, match="same grids"):
            iterate(other, cfg)
        # iterate solves one CoarseSamples: a list or a dense signal is no samples
        for observed, name in ((batch, "list"), (tuple(batch), "tuple"), (xs[1], "DenseSignal")):
            with pytest.raises(ConfigurationError, match=f"solves CoarseSamples, got {name}"):
                iterate(observed, cfg)

    def test_overflow_fails_the_batch(self, grid):
        # one configuration that overflows fails the call, with its own solve's message
        xs = [gen_bandlimited(5, grid, 34.0), gen_bandlimited(6, grid, 34.0)]
        batch = [sample(x) for x in xs]
        op = ReconOperator(grid, SH, 1)
        configs = [ReconConfig(op, iterations=10), ReconConfig(op, relax=1.95, iterations=8000)]
        message = r"within 8000 .* does not contract, .* = 1\.073"
        with pytest.raises(ConfigurationError, match=message):
            solver._traces(stacked(batch), configs, stacked(xs))


class TestBandInverse:
    """The pruned inverse against ``irfftn`` of the zero-filled band."""

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(64, 16),
            GridSpec(25, 8),
            GridSpec(32, 8, 2),
            (GridSpec(24, 8), GridSpec(16, 4)),
            (GridSpec(25, 4), GridSpec(12, 8)),
            (GridSpec(25, 8, 2), GridSpec(16, 4)),
            (GridSpec(300, 2), GridSpec(512, 2)),
        ],
        ids=[
            "64x16", "25x8-odd", "32x8-rate2", "24x8-by-16x4", "25x4-by-12x8-odd",
            "25x8-rate2-by-16x4", "300x2-by-512x2",
        ],
    )
    def test_matches_irfftn_then_crop(self, grid):
        s = sample(gen_bandlimited(3, grid, 0.0))
        cfg = ReconConfig(ReconOperator(grid, SH, 1), iterations=3)
        index, fixed = solver._band_observation(cfg.operator, s.values)
        band = (1.0 - solver._factors(cfg)[0] ** 4) * fixed
        shape = tuple([g.n_fine for g in s.grid])
        spectrum = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
        spectrum[np.ix_(*index)] = band
        full = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))
        assert np.array_equal(solver._band_inverse(band, index, shape), full)
        est = iterate(s, cfg).estimate.values
        assert np.max(np.abs(est - full)) <= 1e-12 * np.max(np.abs(full))


class TestCosineSolve:
    """The image solve against ``iterate`` on the explicit mirror extension, cut to the image."""

    @staticmethod
    def configs(grids, factor):
        for modules in (0, factor // 2):
            op = ReconOperator(grids, SH, modules)
            for relax in (0.5, 1.5):
                yield ReconConfig(op, relax, iterations=3)
            yield ReconConfig(op, iterations=4, acceleration=ChebyshevAccel(0.8, 1.6))

    @pytest.mark.parametrize("factor", [2, 4, 6])
    @pytest.mark.parametrize("shape", [(37, 29), (2, 3), (3, 2), (9, 16), (23,), (5, 4, 3)])
    def test_matches_iterate_on_the_extension(self, shape, factor, rng):
        values = rng.uniform(0.0, 255.0, shape)
        grids = tuple([GridSpec(2 * n, factor) for n in shape])
        for cfg in self.configs(grids, factor):
            got, want = solver._cosine_solve(values, cfg), on_extension(iterate, values, cfg)
            assert got.shape == want.shape == tuple([n * factor for n in shape])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), cfg

    @pytest.mark.parametrize("shape", [(7, 5), (23,), (5, 4, 3)])
    def test_estimate_owns_its_pixels(self, shape, rng):
        # C-contiguous, and not a view that keeps the irfft's 2M-wide output alive
        values = rng.uniform(0.0, 255.0, shape)
        grids = tuple([GridSpec(2 * n, 4) for n in shape])
        for cfg in self.configs(grids, 4):
            got = solver._cosine_solve(values, cfg)
            assert got.flags.c_contiguous and got.base is None, cfg

    def test_overflow_named_as_by_iterate(self, rng):
        # iterate's message, naming the factor of the bins the cosine solve
        # applies: 2.66979, not the extension's 3.4775 at its coarse-Nyquist
        # bins, which hold 0 and which it never computes
        values = rng.uniform(0.0, 255.0, (6, 5))
        grids = tuple([GridSpec(2 * n, 2) for n in values.shape])
        cfg = ReconConfig(ReconOperator(grids, SH, 1), relax=1.99, iterations=2000)
        with pytest.raises(ConfigurationError) as extension:
            on_extension(iterate, values, cfg)
        applied = f"{cosine_factor(cfg):.6g}"
        assert applied == "2.66979" and "= 3.4775 >= 1" in str(extension.value)
        want = str(extension.value).replace("3.4775", applied)
        with pytest.raises(ConfigurationError, match=re.escape(want)):
            solver._cosine_solve(values, cfg)

    def test_grid_of_another_size_rejected(self):
        cfg = ReconConfig(ReconOperator((GridSpec(8, 2), GridSpec(10, 2)), SH, 0))
        with pytest.raises(ConfigurationError, match="expected shape"):
            solver._cosine_solve(np.ones((4, 4)), cfg)


class TestBandGain:
    """The solve's per-bin gain against G on the fine grid and against the kernels' closed forms."""

    @staticmethod
    def sweep(kind, n_coarse, reference):
        """Every grid and module count of the sweep: the band gain, its reference and the case."""
        for ticks in range(2, 17, 2):
            for rate in (1, 2, 3):
                grid = GridSpec(n_coarse, ticks, rate)
                for modules in range(min(2, ticks // 2) + 1):
                    expected = reference(grid, kind, modules)
                    for last in (True, False):
                        index, weight, gain = solver._axis_band(grid, kind, modules, last)
                        signed = np.where(index > grid.n_fine // 2, grid.n_fine - index, index)
                        yield gain, expected[signed], (grid, modules, last)

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("n_coarse", [8, 9, 16, 33])
    def test_matches_measured_gain(self, kind, n_coarse):
        for gain, measured, case in self.sweep(kind, n_coarse, measured_gain):
            err = np.max(np.abs(gain - measured))
            assert err <= 1e-13 * np.max(np.abs(measured)), case

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("n_coarse", [8, 9, 16, 33])
    def test_matches_closed_form(self, kind, n_coarse):
        for gain, closed, case in self.sweep(kind, n_coarse, closed_form_gain):
            assert np.all(np.abs(gain - closed) <= 1e-13 * np.abs(closed)), case

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

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize(
        "grid",
        [GridSpec(16, 4), GridSpec(25, 8), GridSpec(32, 8, 2), GridSpec(21, 6, 3),
         GridSpec(40, 12, 3)],
        ids=["16x4", "25x8-odd", "32x8-rate2", "21x6-rate3", "40x12-rate3"],
    )
    def test_matches_dense_fine_grid_oracle(self, grid, kind, rng, monkeypatch):
        # the oracle projects interpolated, mixed samples onto the band; the
        # dense oracle stacks the tests' fine-grid G over the unit vectors.
        # The solution is T, the band of the samples' trigonometric
        # interpolant, whatever the kernel and the mixer, so the system the
        # oracle checks is compared too: it is where they show
        systems = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: systems.append(a) or cond(a))
        for modules in (0, 1, 2):
            s = CoarseSamples(grid, rng.standard_normal(grid.n_coarse))
            op = ReconOperator(grid, kind, modules)
            got = fixed_point_oracle(s, op).values
            want = dense_oracle(s, op)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), modules
            dense = band_matrix(op)
            assert np.max(np.abs(systems.pop() - dense)) <= 1e-12 * np.max(np.abs(dense)), modules

    def test_samples_on_another_grid_rejected(self):
        # same shape, other band edge: the observation would cut elsewhere than G
        grid = GridSpec(16, 4)
        x = gen_bandlimited(2, GridSpec(16, 4, 2), 0.0)
        with pytest.raises(ConfigurationError, match="same grids"):
            fixed_point_oracle(sample(x), ReconOperator(grid, SH, 0))

    def test_singular_system_reported(self, monkeypatch):
        # every real operator is invertible on its passband, so G is faked:
        # removing each column's mean after interpolation sends the constant to zero
        def mean_free(values, grid, kind, axis):
            out = samplers._interp_axis(values, grid, kind, axis)
            return out - out.mean(axis=axis, keepdims=True)

        monkeypatch.setattr(solver, "_interp_axis", mean_free)
        grid = GridSpec(16, 4)
        x = gen_bandlimited(3, grid, 0.0)
        with pytest.raises(SingularSystemError):
            fixed_point_oracle(sample(x), ReconOperator(grid, SH, 0))

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
