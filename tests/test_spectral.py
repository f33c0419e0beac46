"""The ideal lowpass, G's last stage: its mask, and the filter built on it.

``lowpass`` is the test-side copy of the stage, on the mask that G and the
closed-form gain share.
"""

import numpy as np
import pytest

from fine_reference import lowpass
from interpcomp import DenseSignal, GridSpec
from interpcomp.solver import EDGE_WEIGHT, _gain_mask


def tone(grid, cycles, phase=0.0):
    t = np.arange(grid.n_fine)
    return DenseSignal(grid, np.cos(2 * np.pi * cycles * t / grid.n_fine + phase))


class TestLowpass:
    def test_bandlimited_unchanged(self, grid, bl_signal):
        y = lowpass(bl_signal)
        assert np.max(np.abs(y.values - bl_signal.values)) < 1e-12 * np.max(
            np.abs(bl_signal.values)
        )

    def test_tone_above_cutoff_zeroed(self, grid):
        x = tone(grid, cycles=grid.n_coarse)  # one cycle per sample: way above edge
        y = lowpass(x)
        assert np.max(np.abs(y.values)) < 1e-12

    def test_edge_bin_weight(self, grid):
        edge_cycles = int(round(grid.band_edge * grid.n_fine))
        x = tone(grid, edge_cycles)
        y = lowpass(x)
        assert np.allclose(y.values, 0.5 * x.values, atol=1e-12)

    def test_parseval_power_fraction(self):
        # white noise keeps (fraction of passband bins) of its power on average
        grid = GridSpec(64, 16)
        freqs = np.fft.fftfreq(grid.n_fine)
        kept = np.sum(np.abs(freqs) < grid.band_edge - 1e-12) + 0.5 * np.sum(
            np.isclose(np.abs(freqs), grid.band_edge, rtol=0, atol=1e-12)
        )
        expected = kept / grid.n_fine
        ratios = []
        for seed in range(24):
            x = DenseSignal(
                grid, np.random.default_rng(seed).standard_normal(grid.n_fine)
            )
            y = lowpass(x)
            ratios.append(np.mean(y.values**2) / np.mean(x.values**2))
        assert np.mean(ratios) == pytest.approx(expected, rel=0.08)

    def test_idempotent_on_bandlimited(self, grid, bl_signal):
        # cutoff-aligned bin carries no content for generated signals
        once = lowpass(bl_signal)
        twice = lowpass(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_self_adjoint_and_nonexpansive(self, rng):
        grid = GridSpec(16, 8)
        x = rng.standard_normal(grid.n_fine)
        y = rng.standard_normal(grid.n_fine)
        px = lowpass(DenseSignal(grid, x)).values
        py = lowpass(DenseSignal(grid, y)).values
        assert np.dot(px, y) == pytest.approx(np.dot(x, py), rel=1e-12)
        assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12

    def test_linear(self, grid, rng):
        x = rng.standard_normal(grid.n_fine)
        y = rng.standard_normal(grid.n_fine)
        lhs = lowpass(DenseSignal(grid, 2.5 * x - 1.25 * y)).values
        rhs = (
            2.5 * lowpass(DenseSignal(grid, x)).values
            - 1.25 * lowpass(DenseSignal(grid, y)).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_real_output(self, rng):
        grid = GridSpec(16, 8)
        x = lowpass(DenseSignal(grid, rng.standard_normal(grid.n_fine)))
        assert x.values.dtype == np.float64



class TestLowpass2d:
    def grids(self):
        return GridSpec(8, 8), GridSpec(16, 8)

    def test_constant_unchanged(self):
        gy, gx = self.grids()
        img = DenseSignal((gy, gx), np.full((gy.n_fine, gx.n_fine), 4.0))
        out = lowpass(img)
        assert np.max(np.abs(out.values - 4.0)) < 1e-12

    def test_rectangular_passband(self):
        # f_x above cutoff, f_y below: the separable mask kills the whole tone
        gy, gx = self.grids()
        yy, xx = np.mgrid[0 : gy.n_fine, 0 : gx.n_fine]
        img = DenseSignal(
            (gy, gx),
            np.cos(2 * np.pi * 20 * xx / gx.n_fine) * np.cos(2 * np.pi * xx * 0 + 2 * np.pi * yy / gy.n_fine),
        )
        out = lowpass(img)
        assert np.max(np.abs(out.values)) < 1e-12


class TestGainMask:
    @pytest.mark.parametrize(
        "grid,ones,edge",
        [
            (GridSpec(8, 4), 4, 4),
            (GridSpec(9, 2), 5, None),
            # rate 2: the edge bin 4 is not the coarse Nyquist bin 8, so it is cut
            (GridSpec(16, 8, 2), 4, None),
            # rate 2 with no edge bin: 2*2*k = 18 has no integer k
            (GridSpec(18, 4, 2), 5, None),
            (GridSpec(33, 16, 3), 6, None),
        ],
        ids=["8x4", "9x2-odd", "16x8-rate2", "18x4-rate2-no-edge", "33x16-rate3-odd"],
    )
    def test_one_below_edge_weight_on_it_zero_above(self, grid, ones, edge):
        mask = _gain_mask(grid)
        expected = np.zeros(grid.n_fine // 2 + 1)
        expected[:ones] = 1.0
        if edge is not None:
            expected[edge] = EDGE_WEIGHT
        assert EDGE_WEIGHT == 0.5
        assert np.array_equal(mask, expected)
        assert not mask.flags.writeable
