import math
from functools import partial

import numpy as np
import pytest

from interpcomp import (
    ConfigurationError,
    GridSpec,
    InterpKind,
    contraction_factor,
    distortion_gain,
    lambda_opt_minimax,
    lambda_opt_paper,
    noise_tolerance_coeff,
    op_counts,
    op_counts_2d,
    predicted_gain_db,
)
from interpcomp.analysis import PAPER_PRINTED_LAMBDA_OPT
from interpcomp.solver import _axis_band

SH = InterpKind.SAMPLE_AND_HOLD
LI = InterpKind.LINEAR


class TestDistortionGain:
    def test_dc_is_exactly_one(self):
        for kind in (SH, LI):
            for modules in range(5):
                assert distortion_gain(kind, modules, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_even_in_frequency(self):
        for ft in (0.1, 0.25, 0.4, 0.5):
            assert distortion_gain(SH, 2, ft) == pytest.approx(
                distortion_gain(SH, 2, -ft), abs=1e-14
            )

    def test_band_edge_one_module(self):
        # 2/pi + 2/pi - 2/(3*pi)
        expected = 2 / math.pi + 2 / math.pi - 2 / (3 * math.pi)
        assert distortion_gain(SH, 1, 0.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0610, abs=1e-4)

    def test_li_band_edge_plain(self):
        assert distortion_gain(LI, 0, 0.5) == pytest.approx((2 / math.pi) ** 2, abs=1e-12)

    def test_array_matches_scalar(self):
        # one sum serves one frequency and the dense band grid alike
        ft = np.linspace(-1.3, 1.3, 27)
        for kind in (SH, LI):
            gains = distortion_gain(kind, 2, ft)
            assert gains.shape == ft.shape
            assert gains.tolist() == [distortion_gain(kind, 2, float(f)) for f in ft]

    def test_negative_modules_rejected(self):
        # the band maxima take the same sum, so they check the count too
        for call in (
            lambda: distortion_gain(SH, -1, 0.25),
            lambda: contraction_factor(SH, -1, 1.0),
            lambda: lambda_opt_minimax(SH, -1),
        ):
            with pytest.raises(ConfigurationError, match="modules must be >= 0"):
                call()

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    def test_discrete_band_edge_gain_converges(self, kind):
        # the fine grid samples the continuous interpolator kernel every
        # 1/R of a sampling interval, so the band-edge gain of the discrete
        # G misses the continuous sinc^p by O(1/R^2): the error falls about
        # 4x per doubling of R (S&H: 0.63457 at R=16)
        target = distortion_gain(kind, 0, 0.5)
        errors = []
        for ticks in (16, 32, 64, 128):
            gain = _axis_band(GridSpec(8, ticks), kind, 0, True)[2]
            errors.append(abs(gain[-1] - target))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 < coarse / fine < 4.1
        assert errors[-1] < 1e-4

    @pytest.mark.parametrize("kind", [SH, LI], ids=["sh", "li"])
    @pytest.mark.parametrize("rate", [2, 4])
    def test_discrete_gain_tracks_the_band_at_every_rate(self, kind, rate):
        # over the signal band |fT| < 1/(2k), G's per-bin gain follows the
        # continuous sum up to the fine grid's O(1/R^2) error, the band's last
        # bin included: no lowpass weight scales it at k >= 2
        n_coarse = 128
        for ticks in (16, 32):
            for modules in range(3):
                gain = _axis_band(GridSpec(n_coarse, ticks, rate), kind, modules, True)[2]
                ft = np.arange(gain.size) / n_coarse
                assert ft[-1] < 0.5 / rate
                err = np.max(np.abs(gain - distortion_gain(kind, modules, ft)))
                assert err < 1e-2, (ticks, modules, err)


class TestContractionFactor:
    def test_reference_values(self):
        assert contraction_factor(SH, 1, 1.0, 1) == pytest.approx(0.06, abs=0.005)
        assert contraction_factor(SH, 0, 1.0, 1) == pytest.approx(0.3634, abs=0.001)
        assert contraction_factor(LI, 0, 1.0, 1) == pytest.approx(0.5947, abs=0.001)
        assert contraction_factor(SH, 1, 1.0, 2) == pytest.approx(0.02, abs=0.005)
        # recomputed value; the printed 0.234 follows a sign slip
        assert contraction_factor(LI, 1, 1.0, 1) == pytest.approx(0.1444, abs=0.005)

    def test_monotone_in_modules(self):
        for kind in (SH, LI):
            for k in (1, 2, 4):
                rs = [contraction_factor(kind, n, 1.0, k) for n in range(7)]
                assert all(a >= b - 1e-12 for a, b in zip(rs, rs[1:]))

    def test_convergent_at_unit_relaxation(self):
        for kind in (SH, LI):
            for n in range(7):
                for k in (1, 2, 4):
                    assert contraction_factor(kind, n, 1.0, k) < 1.0

    @pytest.mark.parametrize("relax", [0.0, -1.0, math.nan, math.inf])
    def test_relax_must_be_positive_and_finite(self, relax):
        with pytest.raises(ConfigurationError, match="relax must be positive and finite"):
            contraction_factor(SH, 1, relax)

    def test_rate_multiple_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="rate_multiple"):
            contraction_factor(SH, 1, 1.0, 0)


class TestLambdaOpt:
    def test_paper_closed_forms(self):
        # the printed S&H value agrees with the recomputed one; the printed
        # LI value follows a sign slip and disagrees
        sh = lambda_opt_paper(SH)
        assert sh == pytest.approx(0.9425, abs=1e-3)
        assert PAPER_PRINTED_LAMBDA_OPT[SH] == 0.94
        assert abs(sh - PAPER_PRINTED_LAMBDA_OPT[SH]) <= 5e-3
        li = lambda_opt_paper(LI)
        assert li == pytest.approx(1.169, abs=1e-3)
        assert PAPER_PRINTED_LAMBDA_OPT[LI] == 1.31
        assert abs(li - PAPER_PRINTED_LAMBDA_OPT[LI]) > 5e-3

    def test_band_edge_balance_improves_sh(self):
        lam = lambda_opt_paper(SH)
        assert contraction_factor(SH, 1, lam, 1) <= contraction_factor(SH, 1, 1.0, 1)

    def test_minimax_beats_unit_relaxation(self):
        # the printed LI closed form overshoots at DC; the minimax value is
        # the one guaranteed to do no worse than relax=1
        for kind in (SH, LI):
            lam = lambda_opt_minimax(kind, 1, 1)
            assert contraction_factor(kind, 1, lam, 1) <= contraction_factor(
                kind, 1, 1.0, 1
            ) + 1e-9

    def test_minimax_ranges(self):
        assert 0.90 <= lambda_opt_minimax(SH, 1, 1) <= 1.00
        assert 0.98 <= lambda_opt_minimax(SH, 6, 1) <= 1.02
        for kind in (SH, LI):
            for n in (0, 1, 3):
                assert 0.0 < lambda_opt_minimax(kind, n, 1) < 2.0


class TestNoiseCoeff:
    def test_published_values(self):
        assert noise_tolerance_coeff(SH, 0, 1.0, 2) == pytest.approx(0.318)
        assert noise_tolerance_coeff(SH, 1, 1.0, 2) == pytest.approx(0.531)

    def test_hybrid_tolerates_more(self):
        conv = noise_tolerance_coeff(SH, 0, 1.0, 2)
        hyb = noise_tolerance_coeff(SH, 1, 1.0, 2)
        assert hyb > conv

    def test_relax_scaling(self):
        assert noise_tolerance_coeff(SH, 0, 0.5, 3) == pytest.approx(
            0.318 * 0.5 ** (-1)
        )

    def test_unsupported_combination(self):
        assert noise_tolerance_coeff(LI, 1, 1.0, 2) is None

    @pytest.mark.parametrize(
        "args,name",
        [
            ((SH, 0, 0.0, 5), "relax"),
            ((SH, 0, -1.0, 2.5), "relax"),
            ((SH, 0, math.nan, 2), "relax"),
            ((SH, 0, math.inf, 2), "relax"),
            ((SH, -3, 1.0, 2), "modules"),
            ((SH, 1.5, 1.0, 2), "modules"),
            ((SH, 0, 1.0, 2.5), "iteration_k"),
            ((SH, 0, 1.0, 0), "iteration_k"),
        ],
        ids=["relax0", "relax-1", "relax-nan", "relax-inf", "modules-3", "modules1.5",
             "iteration_k2.5", "iteration_k0"],
    )
    def test_bad_input_named(self, args, name):
        # no ZeroDivisionError, complex or NaN coefficient, and no None as if
        # the paper printed no coefficient for a count that is not one
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            noise_tolerance_coeff(*args)


class TestOpCounts:
    def test_reference_point(self):
        assert op_counts(1, 2, False) == (10, 5)
        assert op_counts(1, 2, True) == (12, 7)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    @pytest.mark.parametrize("n", [2, 64, 1024, 4096])
    def test_formula_matrix(self, m, n):
        log2_2n = int(math.log2(2 * n))
        assert op_counts(m, n, False) == (m * (4 * log2_2n + 2), m * (2 * log2_2n + 1))
        assert op_counts(m, n, True) == (m * (4 * log2_2n + 4), m * (2 * log2_2n + 3))

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_hybrid_overhead_is_2m(self, m):
        conv = op_counts(m, 256, False)
        hyb = op_counts(m, 256, True)
        assert (hyb[0] - conv[0], hyb[1] - conv[1]) == (2 * m, 2 * m)

    def test_2d_scales_by_2k(self):
        adds, mults = op_counts(3, 512, True)
        assert op_counts_2d(3, 512, 512, True) == (2 * 512 * adds, 2 * 512 * mults)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            op_counts(1, 3, False)

    def test_rejects_no_iterations(self):
        with pytest.raises(ConfigurationError, match="iterations"):
            op_counts(0, 2, False)


class TestPredictedGain:
    def test_closed_form(self):
        assert predicted_gain_db(0.1) == pytest.approx(20.0, abs=1e-12)

    def test_rate_ratio_three_gives_9_5db(self):
        r1, r2 = 0.06, 0.02
        diff = predicted_gain_db(r2) - predicted_gain_db(r1)
        assert diff == pytest.approx(10 * math.log10(9), abs=1e-12)

    def test_hybrid_vs_plain_rates(self):
        r_hyb = contraction_factor(SH, 1, 1.0, 1)
        r_plain = contraction_factor(SH, 0, 1.0, 1)
        assert predicted_gain_db(r_hyb) == pytest.approx(24.4, abs=0.5)
        assert predicted_gain_db(r_plain) == pytest.approx(8.8, abs=0.3)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                predicted_gain_db(bad)


# every analysis function checks its kind, and both band functions their
# rate multiple, before it computes anything
KIND_CALLS = [
    (distortion_gain, (1, 0.25)),
    (contraction_factor, (1, 1.0)),
    (lambda_opt_paper, ()),
    (lambda_opt_minimax, (1,)),
    (noise_tolerance_coeff, (1, 1.0, 2)),
]
BAD_INPUT = [
    pytest.param(partial(fn, kind, *rest), "kind must be an InterpKind", id=f"{fn.__name__}-{kind}")
    for fn, rest in KIND_CALLS
    for kind in ("sh", None)
] + [
    pytest.param(call, "rate_multiple must be >= 1", id=f"{call.func.__name__}-rate{rate}")
    for rate in (0, -1)
    for call in (
        partial(contraction_factor, SH, 1, 1.0, rate_multiple=rate),
        partial(lambda_opt_minimax, SH, 1, rate_multiple=rate),
    )
]


@pytest.mark.parametrize("call,message", BAD_INPUT)
def test_bad_input_rejected(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()
