"""The sampling operator: coarse samples out of a dense signal, and their
re-interpolation with Sample-and-Hold or Linear Interpolation, on one axis
or separably on several.

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


def _check_kind(kind) -> None:
    # the interpolators branch on the hold alone, so any other value would run linear
    if not isinstance(kind, InterpKind):
        raise ConfigurationError(f"kind must be an InterpKind, got {kind!r}")


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
    r = grid.ticks_per_sample
    vals = np.moveaxis(np.asarray(values, dtype=np.float64), axis, -1)
    if kind is InterpKind.SAMPLE_AND_HOLD:
        # one block of R ticks per sample: first half holds s[n], the midway
        # tick averages s[n] and s[n+1], the rest holds s[n+1]
        w_next = np.zeros(r)
        w_next[r // 2] = 0.5
        w_next[r // 2 + 1 :] = 1.0
    else:
        w_next = np.arange(r) / r
    fine = vals[..., :, np.newaxis] * (1.0 - w_next)
    # each sample's block adds the next sample's share; the last wraps to the first
    fine[..., :-1, :] += vals[..., 1:, np.newaxis] * w_next
    fine[..., -1:, :] += vals[..., :1, np.newaxis] * w_next
    fine = fine.reshape(*vals.shape[:-1], grid.n_fine)
    return np.moveaxis(fine, -1, axis)


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
