"""Closed-form and numerical convergence analysis.

Everything here is derived from the per-bin distortion gain of the
compensated interpolator,

    H_N(fT) = sum_{m=-N..N} sinc^p(fT - m),   p = 1 (S&H) or 2 (linear),

evaluated over the signal band ``|fT| <= 1/(2k)`` for a sampling rate ``k``
times Nyquist.  The contraction factor of the relaxed iteration is the band
maximum of ``|1 - relax * H_N|``; each iteration multiplies the error by at
most that factor, i.e. gains ``-20*log10(r)`` dB of SNR.

One sum, :func:`distortion_gain`, gives H_N at a frequency or on the band grid
and checks the kind for both; every count must be an integer in its range.
Bad input raises ConfigurationError.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .samplers import InterpKind, _check_kind
from .signal_core import ConfigurationError, _check_count

__all__ = [
    "distortion_gain",
    "contraction_factor",
    "lambda_opt_paper",
    "lambda_opt_minimax",
    "noise_tolerance_coeff",
    "op_counts",
    "op_counts_2d",
    "predicted_gain_db",
]

GRID_POINTS = 20001  # dense frequency grid for band maxima

# Noise-bound coefficients as printed in the source analysis; the derivation
# does not recompute cleanly, so they are stored, not derived.
_PAPER_NOISE_COEFF = {
    (InterpKind.SAMPLE_AND_HOLD, 0): 0.318,
    (InterpKind.SAMPLE_AND_HOLD, 1): 0.531,
}

# Printed reference values that disagree with the recomputed ones (the
# printed linear-interpolation numbers follow a sign slip in the sinc sum).
PAPER_PRINTED_LAMBDA_OPT = {
    InterpKind.SAMPLE_AND_HOLD: 0.94,
    InterpKind.LINEAR: 1.31,
}


def distortion_gain(kind: InterpKind, modules: int, ft):
    """Per-bin gain H_N at normalized frequency ``ft = f*T``, a float or an array; 1 at DC."""
    _check_kind(kind)
    _check_count(modules, "modules", 0)
    m = np.arange(-modules, modules + 1)
    gain = np.sum(np.sinc(np.subtract.outer(ft, m)) ** kind.distortion_exponent, axis=-1)
    return gain if np.ndim(ft) else float(gain)


def _gain_on_band(kind: InterpKind, modules: int, rate_multiple: int) -> np.ndarray:
    _check_count(rate_multiple, "rate_multiple", 1)
    return distortion_gain(kind, modules, np.linspace(0.0, 0.5 / rate_multiple, GRID_POINTS))


def contraction_factor(
    kind: InterpKind, modules: int, relax: float, rate_multiple: int = 1
) -> float:
    """Band maximum of ``|1 - relax * H_N|`` on a dense frequency grid."""
    if not 0.0 < relax < math.inf:
        raise ConfigurationError(f"relax must be positive and finite, got {relax}")
    gains = _gain_on_band(kind, modules, rate_multiple)
    return float(np.max(np.abs(1.0 - relax * gains)))


def lambda_opt_paper(kind: InterpKind) -> float:
    """Closed-form one-module relaxation ``1 / H_1(1/2)``, which zeroes the band-edge residual.

    The published values are ``PAPER_PRINTED_LAMBDA_OPT``, kept apart as references.
    """
    return 1.0 / distortion_gain(kind, 1, 0.5)


def lambda_opt_minimax(
    kind: InterpKind, modules: int, rate_multiple: int = 1
) -> float:
    """Minimizer of the contraction factor over relax, in closed form.

    For band gains in [a, b], max|1 - relax * g| is smallest at exactly
    ``relax = 2 / (a + b)``; a and b are taken on the same dense frequency
    grid as :func:`contraction_factor`.
    """
    gains = _gain_on_band(kind, modules, rate_multiple)
    return float(2.0 / (gains.min() + gains.max()))


def noise_tolerance_coeff(
    kind: InterpKind, modules: int, relax: float, iteration_k: int
) -> Optional[float]:
    """Published worst-case noise-tolerance coefficient scaled by relax**(2-k).

    Coefficients exist only for the conventional S&H bound (0.318) and the
    one-module hybrid bound (0.531); every other combination returns None.
    """
    _check_kind(kind)
    base = _PAPER_NOISE_COEFF.get((kind, modules))
    return None if base is None else base * relax ** (2 - iteration_k)


def op_counts(iterations: int, fft_block: int, hybrid_one_module: bool) -> Tuple[int, int]:
    """(additions, multiplications) per sample for M iterations at FFT block size N.

    M and N are integer counts, N a power of two.  Conventional: M*(4*log2(2N) + 2)
    adds, M*(2*log2(2N) + 1) mults; the one-module hybrid costs two extra adds and
    two extra mults per iteration: M*(4*log2(2N) + 4) and M*(2*log2(2N) + 3).
    """
    _check_count(iterations, "iterations", 1)
    _check_count(fft_block, "fft_block", 1)
    if fft_block & (fft_block - 1):
        raise ConfigurationError(f"fft_block must be a power of two, got {fft_block}")
    log2_2n = int(math.log2(2 * fft_block))
    if hybrid_one_module:
        return iterations * (4 * log2_2n + 4), iterations * (2 * log2_2n + 3)
    return iterations * (4 * log2_2n + 2), iterations * (2 * log2_2n + 1)


def op_counts_2d(
    iterations: int, fft_block: int, image_size: int, hybrid_one_module: bool
) -> Tuple[int, int]:
    """2-D cost: the 1-D cost repeated per row and per column, i.e. times 2K."""
    adds, mults = op_counts(iterations, fft_block, hybrid_one_module)
    return 2 * image_size * adds, 2 * image_size * mults


def predicted_gain_db(r: float) -> float:
    """SNR improvement per iteration implied by a contraction factor r."""
    if not 0.0 < r < 1.0:
        raise ConfigurationError(f"contraction factor must be in (0, 1), got {r}")
    return -20.0 * math.log10(r)
