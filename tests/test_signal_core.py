import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fine_reference import lowpass
from interpcomp import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    add_awgn,
    gen_bandlimited,
    psnr_db,
    snr_db,
)
from interpcomp.samplers import lattice
from interpcomp.signal_core import _awgn, _band_samples, _db_power, _draws, _snr_cell


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(64, 16, 2)
        assert g.n_fine == 1024
        assert g.band_edge == pytest.approx(1.0 / 64.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_coarse=3, ticks_per_sample=16),
            dict(n_coarse=64, ticks_per_sample=1),
            dict(n_coarse=64, ticks_per_sample=15),  # odd
            dict(n_coarse=64, ticks_per_sample=16, rate_multiple=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            GridSpec(**kwargs)

    def test_complex_values_rejected(self):
        # numpy would drop the imaginary part with only a ComplexWarning
        with pytest.raises(ConfigurationError, match="must be real"):
            DenseSignal(GridSpec(4, 2), np.ones(8) + 1j)

    def test_signal_length_checked(self, grid):
        with pytest.raises(ConfigurationError):
            DenseSignal(grid, np.zeros(grid.n_fine - 1))
        with pytest.raises(ConfigurationError):
            DenseSignal(grid, np.full(grid.n_fine, np.nan))


class TestGenBandlimited:
    def test_power_exact(self, grid):
        x = gen_bandlimited(1, grid, 34.0)
        power = np.mean(x.values**2)
        assert abs(power - 10**3.4) / 10**3.4 < 1e-9

    def test_spectrum_zero_above_cutoff(self, grid):
        x = gen_bandlimited(1, grid, 34.0)
        spec = np.fft.rfft(x.values)
        freqs = np.fft.rfftfreq(grid.n_fine)
        assert np.all(np.abs(spec[freqs >= grid.band_edge - 1e-12]) < 1e-9)

    def test_deterministic(self, grid):
        a = gen_bandlimited(5, grid, 34.0)
        b = gen_bandlimited(5, grid, 34.0)
        assert np.array_equal(a.values, b.values)

    def test_infinite_power_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            gen_bandlimited(1, grid, -math.inf)

    def test_overflowing_power_rejected(self):
        with pytest.raises(ConfigurationError, match="power_db = 4000.0 dB overflows"):
            gen_bandlimited(0, GridSpec(16, 4), 4000.0)

    def test_overflowing_scaled_signal_rejected(self):
        # 10**307.8 is finite, but not once divided by the filtered draw's power
        with pytest.raises(ConfigurationError, match="power_db = 3078.0 dB overflows"):
            gen_bandlimited(0, GridSpec(16, 4), 3078.0)

    def test_underflowing_power_rejected(self):
        # 10**-400 is 0.0 in float64: the signal would be all zeros
        with pytest.raises(ConfigurationError, match="power_db = -4000.0 dB underflows"):
            gen_bandlimited(0, GridSpec(16, 4), -4000.0)

    def test_lowpass_invariance(self, grid):
        # exactly band-limited: re-filtering at the generation cutoff is a no-op
        x = gen_bandlimited(3, grid, 34.0)
        y = lowpass(x)
        assert np.max(np.abs(y.values - x.values)) < 1e-10

    def test_2d_power_and_band(self):
        gy, gx = GridSpec(16, 8), GridSpec(32, 8)
        img = gen_bandlimited(2, (gy, gx), 10.0)
        assert abs(np.mean(img.values**2) - 10.0) / 10.0 < 1e-9
        spec = np.abs(np.fft.fft2(img.values))
        fy = np.fft.fftfreq(gy.n_fine)[:, None] / gy.band_edge
        fx = np.fft.fftfreq(gx.n_fine)[None, :] / gx.band_edge
        assert np.all(spec[fy**2 + fx**2 >= 1.0 - 1e-9] < 1e-9)


class TestAddAwgn:
    def test_vanishing_noise(self, bl_signal):
        y = add_awgn(bl_signal, -300.0, seed=9)
        assert np.max(np.abs(y.values - bl_signal.values)) < 1e-12

    @pytest.mark.parametrize("power_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_power_rejected(self, bl_signal, power_db):
        with pytest.raises(ConfigurationError, match="noise_power_db must be finite"):
            add_awgn(bl_signal, power_db, seed=9)

    def test_overflowing_noise_power_rejected(self, bl_signal):
        with pytest.raises(ConfigurationError, match="noise_power_db = 3100.0 dB overflows"):
            add_awgn(bl_signal, 3100.0, seed=9)

    def test_underflowing_noise_power_rejected(self, bl_signal):
        with pytest.raises(ConfigurationError, match="noise_power_db = -4000.0 dB underflows"):
            add_awgn(bl_signal, -4000.0, seed=9)

    def test_snr_about_54db(self, grid):
        # 34 dB signal + (-20 dB) noise: empirical SNR near 54 dB
        snrs = []
        for seed in range(12):
            x = gen_bandlimited(100 + seed, grid, 34.0)
            y = add_awgn(x, -20.0, seed=seed)
            snrs.append(snr_db(x, y))
        assert abs(np.mean(snrs) - 54.0) < 1.0

    def test_variance_stable_across_seeds(self):
        grid = GridSpec(256, 16)  # N_f = 4096
        x = DenseSignal(grid, np.zeros(grid.n_fine))
        v1 = np.var(add_awgn(x, -20.0, seed=1).values)
        v2 = np.var(add_awgn(x, -20.0, seed=2).values)
        assert not np.array_equal(
            add_awgn(x, -20.0, 1).values, add_awgn(x, -20.0, 2).values
        )
        for v in (v1, v2):
            assert abs(v - 1e-2) / 1e-2 < 0.05

    def test_mean_preserving(self, grid):
        # E[output] = x on a fixed bin, within 3 sigma / sqrt(trials)
        x = gen_bandlimited(0, grid, 34.0)
        trials = 200
        sigma = math.sqrt(10.0 ** (-20.0 / 10.0))
        samples = np.array(
            [add_awgn(x, -20.0, seed=s).values[17] for s in range(trials)]
        )
        assert abs(samples.mean() - x.values[17]) < 3.0 * sigma / math.sqrt(trials)


def one_draw(seed, grids, power_db):
    """The spectrum of one seed's draw, as ``_draws`` makes each row: its own transform and power.

    The power is Parseval's on the rfft bins: a bin k > 0 of the last axis
    stands for k and -k.
    """
    shape = tuple(g.n_fine for g in grids)
    axes = tuple(range(len(grids)))
    spec = np.fft.rfftn(np.random.default_rng(seed).standard_normal(shape), axes=axes)
    radius_sq = 0.0
    for axis, g in enumerate(grids):
        last = axis == len(grids) - 1
        f = (np.fft.rfftfreq(g.n_fine) if last else np.fft.fftfreq(g.n_fine)) / g.band_edge
        radius_sq = radius_sq + (f * f).reshape([-1 if a == axis else 1 for a in range(len(grids))])
    spec[radius_sq >= 1.0 - 1e-9] = 0.0
    sq = spec.real**2 + spec.imag**2
    sq[..., 1:] *= 2.0
    power = float(np.sum(sq)) / math.prod(shape) ** 2
    spec *= math.sqrt(10.0 ** (power_db / 10.0) / power)
    return spec


class TestChunkDraw:
    """A chunk of trials drawn as one array of spectra, row by row bitwise the draw of its seed."""

    GRIDS = [
        (GridSpec(128, 16),),  # the CLI's 1-D default
        (GridSpec(32, 8),) * 2,  # its 2-D default
        (GridSpec(32, 8, 2),),
        (GridSpec(37, 4),),
        (GridSpec(37, 4), GridSpec(16, 4, 2)),
    ]
    IDS = ["128x16", "32x8-2d", "32x8-rate2", "37x4", "37x4-by-16x4-rate2"]
    # a repeated seed must repeat its row: each row has its own rng
    SEEDS = [4, 11, 5, 4]

    @staticmethod
    def values(spectrum, grids):
        shape = tuple(g.n_fine for g in grids)
        return np.fft.irfftn(spectrum, s=shape, axes=range(len(shape)))

    @pytest.mark.parametrize("grids", GRIDS, ids=IDS)
    def test_rows_are_the_draws_of_their_seeds(self, grids):
        grid = grids[0] if len(grids) == 1 else grids
        chunk = _draws(self.SEEDS, grid, 34.0)
        shape = tuple(g.n_fine for g in grids)
        assert chunk.shape == (len(self.SEEDS),) + shape[:-1] + (shape[-1] // 2 + 1,)
        for seed, row in zip(self.SEEDS, chunk, strict=True):
            np.testing.assert_array_equal(row, one_draw(seed, grids, 34.0))
            np.testing.assert_array_equal(
                self.values(row, grids), gen_bandlimited(seed, grid, 34.0).values
            )
        assert not np.array_equal(chunk[0], chunk[1])
        xs = [self.values(row, grids) for row in chunk]
        noise = _awgn([s + 7 for s in self.SEEDS], shape, -20.0)
        for seed, row, x in zip(self.SEEDS, noise, xs, strict=True):
            sigma = math.sqrt(10.0 ** (-20.0 / 10.0))
            one = x + sigma * np.random.default_rng(seed + 7).standard_normal(x.shape)
            np.testing.assert_array_equal(x + row, one)
            np.testing.assert_array_equal(x + row, add_awgn(DenseSignal(grid, x), -20.0, seed + 7).values)

    @pytest.mark.parametrize("grids", GRIDS, ids=IDS)
    def test_samples_and_power_from_the_band(self, grids):
        # the lattice samples from one coarse inverse of the band, and the
        # power from Parseval on the rfft bins, against the fine signal's own
        grid = grids[0] if len(grids) == 1 else grids
        chunk = _draws(self.SEEDS, grid, 34.0)
        weight = np.full(chunk.shape[-1], 2.0)
        weight[0] = 1.0
        for seed, row, got in zip(self.SEEDS, chunk, _band_samples(chunk, grid), strict=True):
            x = gen_bandlimited(seed, grid, 34.0).values
            want = x[lattice(grids)]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            power = np.mean(x**2)
            assert abs(np.sum(weight * np.abs(row) ** 2) / x.size**2 - power) <= 1e-12 * power
            assert abs(power - 10**3.4) <= 1e-12 * 10**3.4

    @pytest.mark.parametrize("grids", GRIDS, ids=IDS)
    def test_unit_noise_scales_to_each_power(self, grids):
        # the CLI draws a chunk's unit-power normals once, slices the lattice
        # and scales the slice to each noise power: _awgn's noise there bitwise
        shape, at = tuple(g.n_fine for g in grids), (slice(None),) + lattice(grids)
        unit = _awgn(self.SEEDS, shape, 0.0)[at]
        for db in (-30.0, -20.0, -7.3, 0.0, 12.5, 300.0):
            scaled = unit * math.sqrt(_db_power(db, "noise_power_db"))
            np.testing.assert_array_equal(scaled, _awgn(self.SEEDS, shape, db)[at])

    def test_overflow_in_a_chunk_rejected(self):
        # at 3077 dB seeds 0 and 5 scale to finite values and seed 1 does not
        grid = GridSpec(16, 4)
        assert np.all(np.isfinite(_draws([0, 5], grid, 3077.0)))
        with pytest.raises(ConfigurationError, match="power_db = 3077.0 dB overflows the scaled"):
            _draws([0, 1, 5], grid, 3077.0)
        for db, message in ((4000.0, "4000.0 dB overflows float64"), (-4000.0, "underflows")):
            with pytest.raises(ConfigurationError, match=message):
                _draws([0, 5], grid, db)
        with pytest.raises(ConfigurationError, match="noise_power_db = 3100.0 dB overflows"):
            _awgn([0, 5], (64,), 3100.0)

    def test_degenerate_draw_in_a_chunk_rejected(self, monkeypatch):
        # a seed whose normals are all zero filters to zero power
        real = np.random.default_rng

        class Zeros:
            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros() if seed == 6 else real(seed))
        grid = GridSpec(16, 4)
        assert np.all(np.isfinite(_draws([5, 7], grid, 34.0)))
        for seeds in ([6], [5, 6, 7]):
            with pytest.raises(ConfigurationError, match="degenerate draw: filtered signal has zero"):
                _draws(seeds, grid, 34.0)


class TestSnr:
    def test_identical_is_inf(self, bl_signal):
        assert math.isinf(snr_db(bl_signal, bl_signal))

    def test_zero_estimate_is_zero_db(self, bl_signal):
        zero = bl_signal.with_values(np.zeros_like(bl_signal.values))
        assert snr_db(bl_signal, zero) == pytest.approx(0.0, abs=1e-12)

    def test_silent_reference(self):
        # no reference energy: any error is infinitely loud, none is a match
        assert snr_db(np.zeros(20), np.ones(20)) == -math.inf
        assert snr_db(np.zeros(20), np.zeros(20)) == math.inf

    def test_ratio_beyond_float64(self):
        # 16 interior cells: energy 16e-320 (subnormal) against error 16e20, so
        # energy/err underflows to 0; the dB come from the difference of logs
        assert snr_db(np.full(20, 1e-160), np.full(20, 1e10)) == pytest.approx(-3400, abs=0.01)
        assert _snr_cell(1e200, 1e-200) == pytest.approx(4000, abs=1e-9)

    def test_interior_offset_matches_direct_sum(self, grid):
        n = grid.n_fine
        t = np.arange(n)
        ref = DenseSignal(grid, np.sin(2 * np.pi * 3 * t / n))
        m = math.ceil(0.10 * n)
        est_vals = ref.values.copy()
        est_vals[m : n - m] += 0.01
        est = DenseSignal(grid, est_vals)
        interior = ref.values[m : n - m]
        expected = 10 * math.log10(np.sum(interior**2) / (1e-4 * interior.size))
        assert snr_db(ref, est) == pytest.approx(expected, abs=1e-9)
        assert snr_db(ref.values, est.values) == snr_db(ref, est)

    def test_length_mismatch(self, grid):
        x = DenseSignal(grid, np.zeros(grid.n_fine))
        other = DenseSignal(GridSpec(32, 16), np.ones(512))
        with pytest.raises(ConfigurationError):
            snr_db(x, other)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_perturbation(self, c):
        grid = GridSpec(16, 4)
        rng = np.random.default_rng(3)
        base = rng.standard_normal(grid.n_fine)
        w = np.zeros(grid.n_fine)
        w[10:-10] = rng.standard_normal(grid.n_fine - 20)
        ref = DenseSignal(grid, base)
        small = snr_db(ref, DenseSignal(grid, base + c * w))
        big = snr_db(ref, DenseSignal(grid, base + 2 * c * w))
        assert small > big


class TestPsnr:
    def test_identical_inf(self, rng):
        img = rng.integers(0, 256, size=(8, 8)).astype(float)
        assert math.isinf(psnr_db(img, img))

    def test_uniform_one_level_error(self):
        a = np.full((16, 16), 100.0)
        b = a + 1.0
        assert psnr_db(a, b) == pytest.approx(20 * math.log10(255.0), abs=1e-12)

    def test_matches_bruteforce(self, rng):
        a = rng.integers(0, 256, size=(8, 8)).astype(float)
        b = rng.integers(0, 256, size=(8, 8)).astype(float)
        mse = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(8) for j in range(8)
        ) / 64.0
        assert psnr_db(a, b) == pytest.approx(10 * math.log10(255**2 / mse), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            psnr_db(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_on_dense_images(self):
        gy, gx = GridSpec(4, 2), GridSpec(4, 2)
        a = DenseSignal((gy, gx), np.zeros((8, 8)))
        b = DenseSignal((gy, gx), np.full((8, 8), 2.0))
        assert psnr_db(a, b) == pytest.approx(10 * math.log10(255**2 / 4.0))


@pytest.mark.parametrize("metric", [snr_db, psnr_db], ids=["snr", "psnr"])
class TestMetricInputs:
    def test_energy_overflow_rejected(self, metric):
        x = gen_bandlimited(0, GridSpec(16, 4), 3075.0)
        with pytest.raises(ConfigurationError, match="energy overflows float64"):
            metric(x, x.values * 0.5)

    def test_complex_rejected(self, metric):
        x = gen_bandlimited(0, GridSpec(16, 4), 0.0).values
        for ref, est in ((x, x + 0j), (x + 0j, x)):
            with pytest.raises(ConfigurationError, match="must be real"):
                metric(ref, est)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, metric, bad):
        good = np.ones(20)
        worse = good.copy()
        worse[10] = bad
        for ref, est in ((good, worse), (worse, good)):
            with pytest.raises(ConfigurationError, match="must be finite"):
                metric(ref, est)
