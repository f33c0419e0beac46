"""The sampling operator: coarse samples out of a dense signal, and their
re-interpolation with Sample-and-Hold or Linear Interpolation, on one axis
or separably on several.  Each interpolator is defined once, by its taps
in ``_TAPS``, which the band solve's per-bin gain reads too.

Both interpolators are zero phase on the fine grid.  The hold window is
centered on each sample; since ``ticks_per_sample`` is even, the window
boundary lands exactly midway between two samples, and that tick takes the
average of the two equidistant samples.  Tie-breaking toward either sample
would introduce a half-tick linear phase, which would leak into every
measured distortion gain and contraction factor (the compensation analysis
assumes a real, phase-free sinc^p response).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .signal_core import ConfigurationError, DenseSignal, GridSpec, _check_values, per_axis

__all__ = [
    "InterpKind",
    "CoarseSamples",
    "sample",
    "interpolate",
]


class InterpKind(enum.Enum):
    """Zero-order hold vs first-order (linear) interpolation."""

    SAMPLE_AND_HOLD = "sh"
    LINEAR = "li"

    @property
    def distortion_exponent(self) -> int:
        """Power of the sinc distortion: 1 for the hold, 2 for linear."""
        return 1 if self is InterpKind.SAMPLE_AND_HOLD else 2


# h[t] for t = 0..r, r ticks per sample; h[-t] = h[t] and h is 0 beyond r.  Each
# kernel interpolates, h[0] = 1 and h[r] = 0, and h[t] + h[r - t] = 1
_TAPS = {
    InterpKind.SAMPLE_AND_HOLD: lambda r: np.repeat([1.0, 0.5, 0.0], [r // 2, 1, r // 2]),
    # (r - t) / r, not 1 - t / r: the next sample's share h[r - t] is then t / r exactly
    InterpKind.LINEAR: lambda r: np.arange(r, -1, -1) / r,
}


def _check_kind(kind) -> None:
    # the tap table is keyed by InterpKind, so a value such as "sh" has no kernel
    if not isinstance(kind, InterpKind):
        raise ConfigurationError(f"kind must be an InterpKind, got {kind!r}")


def _response(kind: InterpKind, r: int, f: np.ndarray) -> np.ndarray:
    """The kernel's response H(f) = h[0] + 2 sum_{t=1..r} h[t] cos(2 pi f t), f in cycles/tick."""
    h = _TAPS[kind](r)
    return h[0] + 2.0 * np.cos(2.0 * np.pi * np.multiply.outer(f, np.arange(1, r + 1))) @ h[1:]


@dataclass(frozen=True)
class CoarseSamples:
    """One value per sampling interval on every axis.

    ``values[n]`` sits at fine tick ``n * ticks_per_sample`` of its axis;
    ``grid`` is a lone GridSpec or one GridSpec per array axis, stored as a
    tuple, as for :class:`DenseSignal`.
    """

    grid: Union[GridSpec, Tuple[GridSpec, ...]]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", per_axis(self.grid))
        shape = tuple([g.n_coarse for g in self.grid])
        object.__setattr__(self, "values", _check_values(self.values, shape, "CoarseSamples"))


def lattice(grids: Tuple[GridSpec, ...]) -> tuple:
    """Index of the coarse sample positions: every ``ticks_per_sample``-th tick per axis."""
    return tuple([slice(None, None, g.ticks_per_sample) for g in grids])


def sample(x: DenseSignal) -> CoarseSamples:
    """Pick the dense value at every coarse position: values[n] = x[n * R] on each axis."""
    return CoarseSamples(x.grid, x.values[lattice(x.grid)].copy())


def _interp_axis(values: np.ndarray, grid: GridSpec, kind: InterpKind, axis: int) -> np.ndarray:
    """Interpolate coarse values along one axis onto the fine grid (circular)."""
    vals = np.expand_dims(np.asarray(values, dtype=np.float64), axis + 1)
    # tick t of block n, on a new axis after `axis`: h[t] of s[n] and h[R - t] of
    # s[n+1], the last block's s[0]; the taps broadcast over the axes behind it
    w_next = _TAPS[kind](grid.ticks_per_sample)[:0:-1].reshape(-1, *[1] * (vals.ndim - axis - 2))
    fine = vals * (1.0 - w_next)
    lead = (slice(None),) * axis
    fine[lead + (slice(None, -1),)] += vals[lead + (slice(1, None),)] * w_next
    fine[lead + (slice(-1, None),)] += vals[lead + (slice(None, 1),)] * w_next
    return fine.reshape(*vals.shape[:axis], grid.n_fine, *vals.shape[axis + 2 :])


def interpolate(s: CoarseSamples, kind: InterpKind) -> DenseSignal:
    """Re-interpolate coarse samples onto the fine grid (S&H or linear, circular).

    Separable on several axes: one axis at a time, last axis first (the
    order commutes up to rounding).
    """
    _check_kind(kind)
    fine = s.values
    for axis in reversed(range(fine.ndim)):
        fine = _interp_axis(fine, s.grid[axis], kind, axis)
    return DenseSignal(s.grid, fine)
