import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpcomp import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    UsageError,
    add_awgn,
    gen_bandlimited,
    lowpass,
    psnr_db,
    snr_db,
)


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
        with pytest.raises(UsageError):
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
        with pytest.raises(UsageError):
            psnr_db(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_on_dense_images(self):
        gy, gx = GridSpec(4, 2), GridSpec(4, 2)
        a = DenseSignal((gy, gx), np.zeros((8, 8)))
        b = DenseSignal((gy, gx), np.full((8, 8), 2.0))
        assert psnr_db(a, b) == pytest.approx(10 * math.log10(255**2 / 4.0))
