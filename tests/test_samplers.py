import numpy as np
import pytest

from fine_reference import lowpass
from interpcomp import (
    CoarseSamples,
    ConfigurationError,
    DenseSignal,
    GridSpec,
    InterpKind,
    gen_bandlimited,
    interpolate,
    sample,
)
from interpcomp.samplers import _TAPS, _interp_axis, _response

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


class TestSample:
    def test_constant(self, grid):
        c = DenseSignal(grid, np.full(grid.n_fine, 2.5))
        assert np.all(sample(c).values == 2.5)

    def test_index_arithmetic(self):
        grid = GridSpec(4, 4)
        x = DenseSignal(grid, np.arange(grid.n_fine, dtype=float))
        assert np.array_equal(sample(x).values, [0.0, 4.0, 8.0, 12.0])

    def test_roundtrip_through_ideal_reconstruction(self):
        # at k=2 the samples oversample the band 2x: ideal sinc interpolation
        # (zero-stuff * R, then cut at the signal band edge) recovers x exactly
        grid = GridSpec(64, 16, rate_multiple=2)
        x = gen_bandlimited(11, grid, 10.0)
        s = sample(x)
        comb = np.zeros(grid.n_fine)
        comb[:: grid.ticks_per_sample] = s.values * grid.ticks_per_sample
        ideal = lowpass(DenseSignal(grid, comb))
        assert np.max(np.abs(sample(ideal).values - s.values)) < 1e-10


class TestInterpolate:
    def test_constant_both_kinds(self, grid):
        s = CoarseSamples(grid, np.full(grid.n_coarse, 1.75))
        for kind in (SH, LI):
            out = interpolate(s, kind)
            assert np.max(np.abs(out.values - 1.75)) < 1e-15

    @pytest.mark.parametrize("kind", ["sh", "bogus", None])
    def test_kind_must_be_an_interp_kind(self, kind):
        # the kernels are keyed by InterpKind: "sh" names none
        s = CoarseSamples(GridSpec(4, 4), np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ConfigurationError, match=f"kind must be an InterpKind, got {kind!r}"):
            interpolate(s, kind)

    def test_linear_ramp(self):
        # circular tent through alternating samples; one period matches the
        # closed-form ramp 0, .25, .5, .75, 1, .75, .5, .25
        grid = GridSpec(4, 4)
        s = CoarseSamples(grid, np.array([0.0, 1.0, 0.0, 1.0]))
        out = interpolate(s, LI)
        expected = np.tile([0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25], 2)
        assert np.allclose(out.values, expected, atol=1e-15)

    def test_li_reproduces_samples(self, grid, bl_signal):
        s = sample(bl_signal)
        out = interpolate(s, LI)
        assert np.array_equal(out.values[:: grid.ticks_per_sample], s.values)

    def test_sh_idempotent(self, grid, bl_signal):
        s = sample(bl_signal)
        held = interpolate(s, SH)
        again = interpolate(sample(held), SH)
        assert np.array_equal(held.values, again.values)

    def test_sh_band_edge_attenuation(self):
        # tone at the band edge, held and ideally filtered: amplitude sinc(1/2)
        grid = GridSpec(64, 16)
        t = np.arange(grid.n_fine)
        x = DenseSignal(grid, np.cos(np.pi * t / grid.ticks_per_sample))
        y = lowpass(interpolate(sample(x), SH))
        m = int(0.1 * grid.n_fine)
        basis = np.stack(
            [
                np.cos(np.pi * t / grid.ticks_per_sample)[m:-m],
                np.sin(np.pi * t / grid.ticks_per_sample)[m:-m],
            ],
            axis=1,
        )
        coeffs = np.linalg.lstsq(basis, y.values[m:-m], rcond=None)[0]
        amplitude = np.hypot(*coeffs)
        assert amplitude == pytest.approx(2.0 / np.pi, rel=0.01)

    @pytest.mark.parametrize("kind,p", [(SH, 1), (LI, 2)])
    def test_per_bin_gain_is_sinc_power(self, kind, p):
        grid = GridSpec(64, 16)
        x = gen_bandlimited(7, grid, 34.0)
        y = lowpass(interpolate(sample(x), kind))
        spec_x = np.fft.rfft(x.values)
        spec_y = np.fft.rfft(y.values)
        ft = np.fft.rfftfreq(grid.n_fine) * grid.ticks_per_sample
        sel = (ft <= 0.45) & (np.abs(spec_x) > 1e-9)
        gains = spec_y[sel] / spec_x[sel]
        target = np.sinc(ft[sel]) ** p
        assert np.max(np.abs(gains - target) / np.abs(target)) < 0.01


def reference_w_next(kind, r):
    """The next sample's share at ticks 0..R-1 of a block, as the interpolator wrote it by hand."""
    if kind is SH:
        # first half holds s[n], the midway tick averages s[n] and s[n+1], the rest holds s[n+1]
        w_next = np.zeros(r)
        w_next[r // 2] = 0.5
        w_next[r // 2 + 1 :] = 1.0
        return w_next
    return np.arange(r) / r


def reference_interp_axis(values, kind, r, axis):
    """Interpolation along one axis from the hand-written rows, circular."""
    w_next = reference_w_next(kind, r)
    vals = np.moveaxis(values, axis, -1)[..., np.newaxis]
    fine = vals * (1.0 - w_next) + np.roll(vals, -1, axis=-2) * w_next
    return np.moveaxis(fine.reshape(*vals.shape[:-2], -1), -1, axis)


class TestKernelTable:
    """The tap table against the hand-written weights, and the kernels' interpolation property."""

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("r", [2, 4, 6, 10, 16])
    def test_interpolate_matches_hand_written_weights_1d(self, kind, r, rng):
        # at R = 6 and 10, 1 - (R - t)/R is not t/R in float64
        grid = GridSpec(7, r)
        values = rng.standard_normal(grid.n_coarse)
        out = interpolate(CoarseSamples(grid, values), kind).values
        assert np.array_equal(out, reference_interp_axis(values, kind, r, 0))

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("r", [2, 4, 6, 10, 16])
    def test_interpolate_matches_hand_written_weights_2d(self, kind, r, rng):
        gy, gx = GridSpec(5, r), GridSpec(4, 10 if r == 6 else 6)
        values = rng.standard_normal((gy.n_coarse, gx.n_coarse))
        out = interpolate(CoarseSamples((gy, gx), values), kind).values
        # last axis first, as interpolate runs
        rows = reference_interp_axis(values, kind, gx.ticks_per_sample, 1)
        assert np.array_equal(out, reference_interp_axis(rows, kind, r, 0))

    @pytest.mark.parametrize("kind", list(InterpKind))
    @pytest.mark.parametrize("r", [2, 4, 6, 8, 16])
    def test_aliases_sum_to_r(self, kind, r):
        # Poisson summation: the R aliases of an interpolating kernel's
        # response sum to R h[0] = R, so the modules drive the gain to 1
        f = np.linspace(-0.5, 0.5, 64)
        aliases = _response(kind, r, f[:, np.newaxis] + np.arange(r) / r)
        assert np.max(np.abs(aliases.sum(axis=1) - r)) <= 1e-13 * r

    @pytest.mark.parametrize("kind", list(InterpKind))
    @pytest.mark.parametrize("r", [2, 4, 6, 8, 16])
    def test_taps_interpolate(self, kind, r):
        h = _TAPS[kind](r)
        assert h.shape == (r + 1,)
        assert h[0] == 1.0 and h[r] == 0.0
        # _interp_axis gives s[n] the rest of s[n+1]'s share h[R - t], which is h[t]
        assert np.allclose(h + h[::-1], 1.0, rtol=0.0, atol=1e-15)


    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("r", [2, 6])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_interp_axis_matches_a_loop_over_lines(self, kind, r, axis, rng):
        # tick t of block n is s[n] (1 - h[R - t]) + s[n+1] h[R - t], circular,
        # along any axis of the array, one line at a time
        values = rng.standard_normal((5, 4, 6))
        grid = GridSpec(values.shape[axis], r)
        w_next = _TAPS[kind](r)[::-1]
        want = np.empty(values.shape[:axis] + (grid.n_fine,) + values.shape[axis + 1 :])
        lines, fine = np.moveaxis(values, axis, -1), np.moveaxis(want, axis, -1)
        for line in np.ndindex(lines.shape[:-1]):
            s = lines[line]
            for tick in range(grid.n_fine):
                n, t = divmod(tick, r)
                fine[line + (tick,)] = s[n] * (1.0 - w_next[t]) + s[(n + 1) % s.size] * w_next[t]
        got = _interp_axis(values, grid, kind, axis)
        assert got.shape == want.shape and np.array_equal(got, want)


class TestInterpolate2d:
    def grids(self):
        return GridSpec(8, 4), GridSpec(6, 8)

    def test_constant(self):
        gy, gx = self.grids()
        s = CoarseSamples((gy, gx), np.full((gy.n_coarse, gx.n_coarse), 3.0))
        for kind in (SH, LI):
            out = interpolate(s, kind)
            assert np.max(np.abs(out.values - 3.0)) < 1e-15

    @pytest.mark.parametrize("kind", [SH, LI])
    def test_rank_one_separability(self, kind, rng):
        gy, gx = self.grids()
        u = rng.standard_normal(gy.n_coarse)
        v = rng.standard_normal(gx.n_coarse)
        out2d = interpolate(CoarseSamples((gy, gx), np.outer(u, v)), kind)
        u_fine = interpolate(CoarseSamples(gy, u), kind).values
        v_fine = interpolate(CoarseSamples(gx, v), kind).values
        assert np.max(np.abs(out2d.values - np.outer(u_fine, v_fine))) < 1e-12

    @pytest.mark.parametrize("kind", [SH, LI])
    def test_axis_order_commutes(self, kind, rng):
        gy, gx = self.grids()
        vals = rng.standard_normal((gy.n_coarse, gx.n_coarse))
        rows_first = _interp_axis(
            _interp_axis(vals, gx, kind, axis=1), gy, kind, axis=0
        )
        cols_first = _interp_axis(
            _interp_axis(vals, gy, kind, axis=0), gx, kind, axis=1
        )
        assert np.max(np.abs(rows_first - cols_first)) < 1e-12

    def test_sample_lattice(self, rng):
        gy, gx = self.grids()
        vals = rng.standard_normal((gy.n_fine, gx.n_fine))
        img = DenseSignal((gy, gx), vals)
        s = sample(img)
        assert np.array_equal(
            s.values, vals[:: gy.ticks_per_sample, :: gx.ticks_per_sample]
        )
