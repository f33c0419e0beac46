"""The cosine-module compensator: G's mixing stage, and the one-shot modular reconstruction.

The mixer has no function of its own; it is the stage of the tests' fine-grid
G, ``fine_reference.apply_g``, between the interpolation and the lowpass.
``mixed`` reads its output as the input of the lowpass's first transform.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpcomp import (
    CoarseSamples,
    DenseSignal,
    GridSpec,
    InterpKind,
    ReconOperator,
    gen_bandlimited,
    interpolate,
    sample,
    snr_db,
)
from fine_reference import apply_g, observation

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


def sinc_sum(ft, modules, p):
    return sum(np.sinc(ft - m) ** p for m in range(-modules, modules + 1))


def modular_reconstruct(samples, kind, modules):
    """The one-shot modular reconstruction: interpolate, mix, lowpass, as G's observation."""
    return observation(ReconOperator(samples.grid, kind, modules), samples)


def mixed(grid, values, modules):
    """The S&H-interpolated samples of ``values`` after G's mixer: the lowpass's input."""
    seen = []
    rfft = np.fft.rfft

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return rfft(a, *args, **kwargs)

    with mock.patch.object(np.fft, "rfft", record):
        apply_g(ReconOperator(grid, SH, modules), values)
    return seen[0]


class TestCosineMix:
    def test_zero_modules_identity(self, grid, bl_signal):
        held = interpolate(sample(bl_signal), SH).values
        assert np.array_equal(mixed(grid, bl_signal.values, 0), held)

    def test_closed_form_r4(self):
        grid = GridSpec(4, 4)
        out = mixed(grid, np.ones(grid.n_fine), 1)
        expected = np.tile([3.0, 1.0, -1.0, 1.0], 4)
        assert np.allclose(out, expected, atol=1e-12)

    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=9, deadline=None)
    def test_lattice_tick_gain(self, modules):
        grid = GridSpec(4, 16)
        lattice_tick = mixed(grid, np.ones(grid.n_fine), modules)[0]
        assert lattice_tick == pytest.approx(1 + 2 * modules, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=16).map(lambda h: 2 * h),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixer_mean_is_one(self, ticks, modules):
        if 2 * modules > ticks:
            return
        grid = GridSpec(4, ticks)
        assert np.mean(mixed(grid, np.ones(grid.n_fine), modules)) == pytest.approx(1.0, abs=1e-12)


class TestCosineMix2d:
    def grids(self):
        return GridSpec(6, 8), GridSpec(8, 4)

    def test_zero_modules_identity(self, rng):
        gy, gx = self.grids()
        img = DenseSignal((gy, gx), rng.standard_normal((gy.n_fine, gx.n_fine)))
        held = interpolate(sample(img), SH).values
        assert np.array_equal(mixed((gy, gx), img.values, 0), held)

    def test_lattice_gain_nine(self):
        gy, gx = self.grids()
        out = mixed((gy, gx), np.ones((gy.n_fine, gx.n_fine)), 1)
        lattice = out[:: gy.ticks_per_sample, :: gx.ticks_per_sample]
        assert np.allclose(lattice, 9.0, atol=1e-12)

    def test_rank_one_separability(self, rng):
        gy, gx = self.grids()
        u = rng.standard_normal(gy.n_fine)
        v = rng.standard_normal(gx.n_fine)
        out2d = mixed((gy, gx), np.outer(u, v), 2)
        assert np.max(np.abs(out2d - np.outer(mixed(gy, u, 2), mixed(gx, v, 2)))) < 1e-12


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
