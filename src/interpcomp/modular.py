"""The modular compensator: pointwise mixing with sampling-harmonic cosines.

Multiplying an interpolated signal by ``1 + 2*sum_{m=1..N} cos(2*pi*m*t/T)``
shifts the spectral replicas created by sampling back into the baseband; an
ideal lowpass at the band edge then turns the per-bin distortion into the
partial sinc sum ``H_N(f) = sum_{|m|<=N} sinc^p(f*T - m)``.  The mixer is
phase-anchored so that fine tick 0 is a coarse sample position.  On a lattice of several axes
the mixer is the product of the per-axis mixers, so the distortion gain is
the product of the per-axis sinc sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .signal_core import ConfigurationError, DenseSignal

__all__ = ["mixer_period", "cosine_mix"]


@lru_cache(maxsize=128)
def mixer_period(ticks_per_sample: int, modules: int) -> np.ndarray:
    """One period (length R) of the cosine mixer ``1 + 2*sum cos(2*pi*m*i/R)``."""
    if modules < 0:
        raise ConfigurationError(f"modules must be >= 0, got {modules}")
    if 2 * modules > ticks_per_sample:
        # harmonic m lives at m/R cycles per tick; beyond the fine-grid
        # Nyquist it would alias onto lower harmonics (or DC) and corrupt
        # the compensation instead of extending it
        raise ConfigurationError(
            f"{modules} modules need ticks_per_sample >= {2 * modules}, "
            f"got {ticks_per_sample}"
        )
    i = np.arange(ticks_per_sample)
    m = np.ones(ticks_per_sample)
    for harmonic in range(1, modules + 1):
        m += 2.0 * np.cos(2.0 * np.pi * harmonic * i / ticks_per_sample)
    m.setflags(write=False)
    return m


def _mix_axis(values: np.ndarray, ticks_per_sample: int, modules: int, axis: int) -> np.ndarray:
    n = values.shape[axis]
    gains = np.tile(mixer_period(ticks_per_sample, modules), n // ticks_per_sample)
    shape = [1] * values.ndim
    shape[axis] = n
    return values * gains.reshape(shape)


def cosine_mix(s: DenseSignal, modules: int) -> DenseSignal:
    """Pointwise product with the harmonic mixer; ``modules=0`` is the identity.

    On several axes the mixer is separable: the product of the per-axis
    mixers, applied last axis first.
    """
    if modules == 0:
        return s
    out = s.values
    for axis in reversed(range(out.ndim)):
        out = _mix_axis(out, s.grid[axis].ticks_per_sample, modules, axis)
    return s.with_values(out)

