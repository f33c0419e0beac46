import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpcomp import (
    CoarseSamples,
    ConfigurationError,
    DenseSignal,
    GridSpec,
    InterpKind,
    ReconOperator,
    cosine_mix,
    gen_bandlimited,
    sample,
    snr_db,
)
from interpcomp.modular import mixer_period

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


def sinc_sum(ft, modules, p):
    return sum(np.sinc(ft - m) ** p for m in range(-modules, modules + 1))


def modular_reconstruct(samples, kind, modules):
    """The one-shot modular reconstruction: interpolate, mix, lowpass, as G's observation."""
    return ReconOperator(samples.grid, kind, modules).observation(samples)


class TestCosineMix:
    def test_zero_modules_identity(self, bl_signal):
        assert cosine_mix(bl_signal, 0) is bl_signal

    def test_closed_form_r4(self):
        grid = GridSpec(4, 4)
        ones = DenseSignal(grid, np.ones(grid.n_fine))
        out = cosine_mix(ones, 1)
        expected = np.tile([3.0, 1.0, -1.0, 1.0], 4)
        assert np.allclose(out.values, expected, atol=1e-12)

    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=9, deadline=None)
    def test_lattice_tick_gain(self, modules):
        r = 16
        period = mixer_period(r, modules)
        assert period[0] == pytest.approx(1 + 2 * modules, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=16).map(lambda h: 2 * h),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixer_mean_is_one(self, ticks, modules):
        if 2 * modules > ticks:
            return
        assert np.mean(mixer_period(ticks, modules)) == pytest.approx(1.0, abs=1e-12)

    def test_harmonics_must_fit_fine_grid(self):
        with pytest.raises(ConfigurationError):
            mixer_period(4, 3)

    def test_negative_modules_rejected(self):
        with pytest.raises(ConfigurationError, match="modules must be >= 0"):
            mixer_period(4, -1)


class TestCosineMix2d:
    def grids(self):
        return GridSpec(6, 8), GridSpec(8, 4)

    def test_zero_modules_identity(self, rng):
        gy, gx = self.grids()
        img = DenseSignal((gy, gx), rng.standard_normal((gy.n_fine, gx.n_fine)))
        assert cosine_mix(img, 0) is img

    def test_lattice_gain_nine(self):
        gy, gx = self.grids()
        img = DenseSignal((gy, gx), np.ones((gy.n_fine, gx.n_fine)))
        out = cosine_mix(img, 1)
        lattice = out.values[:: gy.ticks_per_sample, :: gx.ticks_per_sample]
        assert np.allclose(lattice, 9.0, atol=1e-12)

    def test_rank_one_separability(self, rng):
        gy, gx = self.grids()
        u = rng.standard_normal(gy.n_fine)
        v = rng.standard_normal(gx.n_fine)
        out2d = cosine_mix(DenseSignal((gy, gx), np.outer(u, v)), 2)
        u_mix = cosine_mix(DenseSignal(gy, u), 2).values
        v_mix = cosine_mix(DenseSignal(gx, v), 2).values
        assert np.max(np.abs(out2d.values - np.outer(u_mix, v_mix))) < 1e-12


class TestModularReconstruct:
    def test_constant_exact(self, grid):
        s = CoarseSamples(grid, np.full(grid.n_coarse, 5.0))
        for modules in (0, 1, 4):
            out = modular_reconstruct(s, SH, modules)
            assert np.max(np.abs(out - 5.0)) < 1e-12

    def test_band_edge_gain_one_module(self):
        # gain at the folded band edge: sinc(1/2)+sinc(-1/2)+sinc(3/2)
        grid = GridSpec(64, 16)
        t = np.arange(grid.n_fine)
        x = DenseSignal(grid, np.cos(np.pi * t / grid.ticks_per_sample))
        out = modular_reconstruct(sample(x), SH, 1)
        m = int(0.1 * grid.n_fine)
        basis = np.stack([x.values[m:-m], np.sin(np.pi * t / grid.ticks_per_sample)[m:-m]], axis=1)
        coeffs = np.linalg.lstsq(basis, out[m:-m], rcond=None)[0]
        expected = sinc_sum(0.5, 1, 1)
        assert expected == pytest.approx(1.0610, abs=1e-4)
        assert np.hypot(*coeffs) == pytest.approx(expected, rel=0.01)

    def test_more_modules_better(self, grid):
        # Monte-Carlo: 4 modules beat plain filtering by a wide margin at k=1
        gains = []
        for seed in range(8):
            x = gen_bandlimited(40 + seed, grid, 34.0)
            s = sample(x)
            snr0 = snr_db(x, modular_reconstruct(s, SH, 0))
            snr4 = snr_db(x, modular_reconstruct(s, SH, 4))
            gains.append(snr4 - snr0)
        assert np.mean(gains) >= 10.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_gain_sum_converges(self, p):
        # worst-case |1 - H_N| over the band shrinks as modules are added
        ft = np.linspace(0.0, 0.5, 2001)
        worst = [np.max(np.abs(1.0 - sinc_sum(ft, n, p))) for n in range(7)]
        assert all(a > b for a, b in zip(worst, worst[1:]))

    def test_linear_in_samples(self, grid, rng):
        a = rng.standard_normal(grid.n_coarse)
        b = rng.standard_normal(grid.n_coarse)
        lhs = modular_reconstruct(CoarseSamples(grid, 2.0 * a - 3.0 * b), LI, 2)
        rhs = (
            2.0 * modular_reconstruct(CoarseSamples(grid, a), LI, 2)
            - 3.0 * modular_reconstruct(CoarseSamples(grid, b), LI, 2)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10
