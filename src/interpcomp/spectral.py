"""Ideal lowpass filtering through the DFT, on one axis or separably on several.

The band-limiting operator keeps DFT bins strictly below the cutoff, zeroes
bins strictly above it, and scales a bin landing exactly on the cutoff by
``edge_weight`` (0.5 by default, which makes the operator self-adjoint and
treats the folded band edge symmetrically).  Real input yields real output
by construction (rfft/irfft).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal_core import ConfigurationError, DenseSignal, per_axis

__all__ = ["LowpassSpec", "lowpass", "lowpass_array"]


@dataclass(frozen=True)
class LowpassSpec:
    """Cutoff in cycles per fine tick plus the gain for a bin exactly at the cutoff."""

    cutoff: float
    edge_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.cutoff <= 0.5:
            raise ConfigurationError(f"cutoff must be in (0, 0.5], got {self.cutoff}")
        if not 0.0 <= self.edge_weight <= 1.0:
            raise ConfigurationError(
                f"edge_weight must be in [0, 1], got {self.edge_weight}"
            )


@lru_cache(maxsize=64)
def _gain_mask(n: int, cutoff: float, edge_weight: float) -> np.ndarray:
    freqs = np.fft.rfftfreq(n)
    mask = np.zeros(freqs.size)
    mask[freqs < cutoff - 1e-12] = 1.0
    mask[np.abs(freqs - cutoff) <= 1e-12] = edge_weight
    mask.setflags(write=False)
    return mask


def lowpass_array(values: np.ndarray, spec: LowpassSpec, axis: int = -1) -> np.ndarray:
    """Apply the ideal lowpass along one axis of a real array."""
    n = values.shape[axis]
    mask = _gain_mask(n, spec.cutoff, spec.edge_weight)
    shape = [1] * values.ndim
    shape[axis] = mask.size
    spec_vals = np.fft.rfft(values, axis=axis) * mask.reshape(shape)
    return np.fft.irfft(spec_vals, n=n, axis=axis)


def axis_specs(spec, ndim: int) -> tuple:
    """``spec`` as one LowpassSpec per axis of an ``ndim``-axis signal."""
    specs = per_axis(spec, LowpassSpec)
    if len(specs) != ndim:
        raise ConfigurationError(f"{len(specs)} lowpass specs for {ndim} signal axes")
    return specs


def lowpass(x: DenseSignal, spec) -> DenseSignal:
    """Ideal lowpass of a dense signal (circular, zero phase).

    ``spec`` is one LowpassSpec per axis (a lone one for a 1-D signal).  On
    several axes the filter is separable, with the rectangular passband of
    the per-axis cutoffs, applied last axis first.
    """
    specs = axis_specs(spec, x.values.ndim)
    out = x.values
    for axis in reversed(range(out.ndim)):
        out = lowpass_array(out, specs[axis], axis)
    return x.with_values(out)
