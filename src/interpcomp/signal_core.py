"""Grid conventions, test-signal generation, noise injection, and fidelity metrics.

Continuous time is emulated by a fine uniform grid with ``ticks_per_sample``
ticks per sampling interval; all "analog" operators in the rest of the
package act on this grid.  Signals are one period of a periodic waveform, so
every filtering operation is circular.

A signal has one or more axes, each with its own :class:`GridSpec`.  Every
function that takes a grid takes a lone GridSpec for one axis or a tuple
with one GridSpec per array axis.  The operators of the other modules are
separable: on several axes they apply the 1-D operator along each axis in
turn, last axis first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np

__all__ = [
    "ConfigurationError",
    "GridSpec",
    "DenseSignal",
    "gen_bandlimited",
    "add_awgn",
    "snr_db",
    "psnr_db",
]

# snr_db leaves out this fraction of the samples at each end of every axis
EDGE_IGNORE_FRAC = 0.10
# full scale of an 8-bit pixel, the peak in psnr_db
PEAK = 255.0


class ConfigurationError(ValueError):
    """Raised on bad input: a value out of its range, or values that do not fit together."""


def _check_count(value, name: str, least: int) -> None:
    """ConfigurationError naming ``name`` unless ``value`` is an integer >= ``least``."""
    # a bool is an int subclass, but True is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: ``n_coarse`` samples, each spanning ``ticks_per_sample`` fine ticks.

    All three fields are integer counts.  ``rate_multiple`` is the
    oversampling factor relative to the Nyquist rate: the signal band edge is
    ``1 / (2 * rate_multiple * ticks_per_sample)`` in cycles per fine tick, so
    ``rate_multiple=1`` means sampling exactly at the Nyquist rate of the band.
    """

    n_coarse: int
    ticks_per_sample: int
    rate_multiple: int = 1

    def __post_init__(self):
        _check_count(self.n_coarse, "n_coarse", 4)
        _check_count(self.ticks_per_sample, "ticks_per_sample", 2)
        if self.ticks_per_sample % 2 != 0:
            # centered hold boundaries must land on a tick
            raise ConfigurationError(
                f"ticks_per_sample must be even, got {self.ticks_per_sample}"
            )
        _check_count(self.rate_multiple, "rate_multiple", 1)

    @property
    def n_fine(self) -> int:
        return self.n_coarse * self.ticks_per_sample

    @property
    def band_edge(self) -> float:
        """Signal band edge in cycles per fine tick."""
        return 1.0 / (2.0 * self.rate_multiple * self.ticks_per_sample)


def per_axis(grid) -> tuple:
    """``grid`` as a tuple with one GridSpec per axis; a lone GridSpec is one axis."""
    return (grid,) if isinstance(grid, GridSpec) else tuple(grid)


def _real(values) -> np.ndarray:
    """``values`` as float64; ConfigurationError if complex, not a dropped imaginary part."""
    if np.iscomplexobj(values):
        raise ConfigurationError("values must be real, got complex values")
    return np.asarray(values, dtype=np.float64)


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """``values`` as float64, checked to have exactly ``shape`` and no NaN or inf."""
    arr = _real(values)
    if arr.shape != shape:
        raise ConfigurationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what}: values must all be finite")
    return arr


@dataclass(frozen=True)
class DenseSignal:
    """Real signal on the fine grid of every axis, one period of a periodic waveform.

    ``grid`` is a lone :class:`GridSpec` (1-D, ``values[tick]``) or one
    GridSpec per array axis (an image is ``(grid_y, grid_x)``,
    ``values[row, col]``); it is stored as a tuple either way.
    """

    grid: Union[GridSpec, Tuple[GridSpec, ...]]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", per_axis(self.grid))
        shape = tuple([g.n_fine for g in self.grid])
        object.__setattr__(self, "values", _check_values(self.values, shape, "DenseSignal"))

    def with_values(self, values: np.ndarray) -> "DenseSignal":
        return DenseSignal(self.grid, values)


def _db_power(db: float, name: str) -> float:
    """``10**(db/10)``; ConfigurationError naming ``name`` unless that is finite and nonzero."""
    if not math.isfinite(db):
        raise ConfigurationError(f"{name} must be finite, got {db}")
    try:
        power = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigurationError(f"{name} = {db} dB overflows float64") from None
    if power == 0.0:
        raise ConfigurationError(f"{name} = {db} dB underflows float64")
    return power


def gen_bandlimited(seed: int, grid, power_db: float) -> DenseSignal:
    """Deterministic band-limited Gaussian test signal of the requested mean-square power.

    White Gaussian noise is lowpass filtered through the DFT and rescaled so
    that ``mean(x**2) == 10**(power_db/10)`` exactly (to rounding).  The
    spectrum is confined to the ellipsoid inscribed in the per-axis band
    edges: in 1-D it is zero at and above the band edge; on several axes it
    is the classical radially band-limited field, with no content in the
    corners of the rectangular passband used by the reconstruction lowpass.
    It is the one row of :func:`_draws` of ``[seed]``, bitwise.
    """
    return DenseSignal(grid, _draws([seed], grid, power_db)[0])


@lru_cache(maxsize=64)
def _draw_cut(grids: tuple) -> np.ndarray:
    """The ``rfftn`` bins of ``grids``' fine shape that :func:`gen_bandlimited` zeroes."""
    radius_sq = 0.0
    for axis, g in enumerate(grids):
        f = (np.fft.rfftfreq if axis == len(grids) - 1 else np.fft.fftfreq)(g.n_fine) / g.band_edge
        radius_sq = radius_sq + (f * f).reshape([-1 if a == axis else 1 for a in range(len(grids))])
    # the bin exactly on the band edge is zeroed too, which keeps generated
    # signals invariant under the ideal lowpass whatever its edge-bin weight;
    # the 1e-9 slack only absorbs the rounding of that bin's frequency
    cut = radius_sq >= 1.0 - 1e-9
    cut.setflags(write=False)
    return cut


def _draws(seeds, grid, power_db: float) -> np.ndarray:
    """:func:`gen_bandlimited` of each seed, one row each, bitwise, from one rfftn/irfftn pair."""
    scale = _db_power(power_db, "power_db")
    grids = per_axis(grid)
    shape = tuple([g.n_fine for g in grids])
    axes = tuple(range(1, len(grids) + 1))
    spec = np.fft.rfftn(_awgn(seeds, shape, 0.0), axes=axes)  # unit-power white noise
    np.copyto(spec, 0.0, where=_draw_cut(grids))
    x = np.fft.irfftn(spec, s=shape, axes=axes)
    powers = np.mean(x * x, axis=axes).tolist()
    if min(powers) <= 0.0:
        raise ConfigurationError("degenerate draw: filtered signal has zero power")
    ratios = [scale / power for power in powers]
    if math.inf in ratios:
        raise ConfigurationError(f"power_db = {power_db} dB overflows the scaled signal")
    x *= np.sqrt(ratios).reshape((-1,) + (1,) * len(grids))
    return x


def _awgn(seeds, shape: tuple, noise_power_db: float) -> np.ndarray:
    """:func:`add_awgn`'s noise of every seed, stacked: one row per seed, from its own rng."""
    noise = np.empty((len(seeds),) + shape)
    for row, seed in zip(noise, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    noise *= math.sqrt(_db_power(noise_power_db, "noise_power_db"))
    return noise


def add_awgn(x: DenseSignal, noise_power_db: float, seed: int) -> DenseSignal:
    """Add zero-mean white Gaussian noise of power ``10**(noise_power_db/10)`` (:func:`_awgn`)."""
    return x.with_values(x.values + _awgn([seed], x.values.shape, noise_power_db)[0])


def snr_db(reference, estimate) -> float:
    """Interior SNR in dB; ``EDGE_IGNORE_FRAC`` of each axis is excluded at both ends.

    Accepts :class:`DenseSignal` or plain arrays of equal shape.  Returns
    ``math.inf`` when the interior error is exactly zero, and ``-math.inf``
    when only the interior reference is.  Raises :class:`ConfigurationError`
    on unequal shapes, a NaN or inf, or an energy that overflows float64.
    """
    ref, est = _metric_inputs(reference, estimate)
    interior = _interior(ref.shape)
    r = ref[interior]
    with _overflow_rejected(lambda: "the signal or error energy overflows float64"):
        e = r - est[interior]
        return _snr_cell(float(np.sum(r * r)), float(np.sum(e * e)))


def _metric_inputs(reference, estimate) -> Tuple[np.ndarray, np.ndarray]:
    """The values of ``reference`` and ``estimate`` as float64, checked to match and be finite."""
    ref, est = [_real(getattr(x, "values", x)) for x in (reference, estimate)]
    if ref.shape != est.shape:
        raise ConfigurationError(f"shape mismatch: {ref.shape} vs {est.shape}")
    if not (np.isfinite(ref).all() and np.isfinite(est).all()):
        raise ConfigurationError("reference and estimate must be finite")
    return ref, est


@contextmanager
def _overflow_rejected(message: Callable[[], str]):
    """The package's one overflow guard: ConfigurationError(``message()``) if float64 overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ConfigurationError(message()) from None


def _interior(shape: tuple) -> tuple:
    """The slices of ``shape`` that :func:`snr_db` scores, ``EDGE_IGNORE_FRAC`` in from each end."""
    margins = [math.ceil(EDGE_IGNORE_FRAC * n) for n in shape]
    return tuple([slice(m, n - m) for m, n in zip(margins, shape)])


def _snr_cell(energy: float, err: float) -> float:
    """``10*log10(energy/err)``: ``inf`` if ``err <= 0``, else ``-inf`` if ``energy`` is 0."""
    if err <= 0.0:
        return math.inf
    if energy == 0.0:
        return -math.inf
    ratio = energy / err
    if ratio == 0.0 or ratio == math.inf:  # the ratio leaves float64; its logs do not
        return 10.0 * (math.log10(energy) - math.log10(err))
    return 10.0 * math.log10(ratio)


def psnr_db(reference, estimate) -> float:
    """Peak SNR ``10*log10(PEAK**2 / MSE)`` over all pixels, PEAK = 255; ``inf`` on zero MSE.

    Accepts and checks its inputs as :func:`snr_db` does.
    """
    ref, est = _metric_inputs(reference, estimate)
    with _overflow_rejected(lambda: "the signal or error energy overflows float64"):
        return _snr_cell(PEAK * PEAK, float(np.mean((ref - est) ** 2)))
