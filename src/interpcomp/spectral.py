"""Ideal lowpass filtering through the DFT, on one axis or separably on several.

The band-limiting operator cuts at each axis's signal band edge: it keeps
DFT bins strictly below the edge, zeroes bins strictly above it, and scales
a bin landing exactly on the edge by ``EDGE_WEIGHT`` (0.5, which makes the
operator self-adjoint and treats the folded band edge symmetrically).  Real
input yields real output by construction (rfft/irfft).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .signal_core import DenseSignal, GridSpec

__all__ = ["lowpass", "lowpass_array"]

EDGE_WEIGHT = 0.5


@lru_cache(maxsize=64)
def _gain_mask(n: int, cutoff: float) -> np.ndarray:
    freqs = np.fft.rfftfreq(n)
    mask = np.zeros(freqs.size)
    mask[freqs < cutoff - 1e-12] = 1.0
    mask[np.abs(freqs - cutoff) <= 1e-12] = EDGE_WEIGHT
    mask.setflags(write=False)
    return mask


def lowpass_array(values: np.ndarray, grid: GridSpec, axis: int = -1) -> np.ndarray:
    """Apply the ideal lowpass at ``grid.band_edge`` along one axis of a real array."""
    n = values.shape[axis]
    mask = _gain_mask(n, grid.band_edge)
    shape = [1] * values.ndim
    shape[axis] = mask.size
    spec_vals = np.fft.rfft(values, axis=axis) * mask.reshape(shape)
    return np.fft.irfft(spec_vals, n=n, axis=axis)


def lowpass(x: DenseSignal) -> DenseSignal:
    """Ideal lowpass of a dense signal at its band edge (circular, zero phase).

    On several axes the filter is separable, with the rectangular passband of
    the per-axis band edges, applied last axis first.
    """
    out = x.values
    for axis in reversed(range(out.ndim)):
        out = lowpass_array(out, x.grid[axis], axis)
    return x.with_values(out)
