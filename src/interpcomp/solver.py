"""The reconstruction solve.

Three ways to invert the sampling/interpolation distortion given only the
coarse samples of an unknown band-limited signal:

* the plain relaxed fixed-point iteration
  ``x_{k+1} = relax * g_obs + x_k - relax * G(x_k)``,
* the same iteration with the cosine-module compensator folded into ``G``
  (the hybrid scheme; ``modules=0`` recovers the plain method exactly),
* a Chebyshev-accelerated variant driven by frame bounds ``(A, B)``.

``G`` is the physical chain of the paper: sample, interpolate, mix with the
cosine modules, lowpass.  ``g_obs`` is ``G`` applied to the observed
samples, which equals ``G`` applied to any dense signal consistent with
them.  The reference signal, when supplied, is used only for SNR reporting.

One operator serves any number of axes: on a lattice (an image has grids
``(grid_y, grid_x)``) ``G`` is separable and applies each 1-D stage along
every axis in turn, last axis first.  ``G`` depends only on the grids, the
interpolator and the module count (:class:`ReconOperator`); its lowpass cuts
at each axis's band edge.  No path here runs ``G`` on the fine grid: the
tests' ``fine_reference.py`` does, as the slow reference of every solve.

:func:`iterate` computes each iterate per DFT bin in closed form.  On
band-limited input ``G`` is diagonal in the DFT: sampling, interpolation and
mixing are periodic with period ``ticks_per_sample``, so each only moves a
bin onto bins ``n_coarse`` apart from it, and the lowpass keeps the band,
which holds one bin of each such set.  (A band-edge bin at the coarse
Nyquist frequency shares its set with its mirror bin.  G only outputs the
part of the pair that is even about the edge, every iterate stays in that
part, and there the gain is exact.)  So ``G`` scales each band bin by a real
gain G̃, in closed form (:func:`_axis_band`).  G sees a signal only through
its samples, so the loop's fixed point on the band is T, the band of the
samples' trigonometric interpolant: ``ticks_per_sample`` times the lowpass
mask at |k| times the coarse spectrum at k mod ``n_coarse``.  The
observation is T·G̃, and iterate j is ``(1 - e_j)·T``, with ``e_j`` a
polynomial in ``q = 1 - s·G̃`` (``s`` the relaxation parameter, or
``2/(A+B)`` under Chebyshev): ``q**(j+1)`` for the plain loop, Gröchenig's
three-term recursion for Chebyshev ("Acceleration of the frame algorithm",
IEEE Trans. Signal Process., 1993).  So the solve never runs G: its only
fine-grid work is one inverse transform of the band (:func:`_band_inverse`).
On an image's even mirror extension the band is real and even, and
:func:`_cosine_solve` runs the same solve as cosine transforms of the image.

The SNR trace scores every iterate from band coefficients alone, with no
estimate (:func:`_traces`).  It reads each reference's band R from its fine
``rfftn`` spectrum; the remainder o, the inverse transform of the rest, is
zero for a drawn trial.  Iterate j's error is then o + b_j, where b_j is the
inverse transform of the band ``B_j = (R - T) + e_j·T``.  Folded onto k >= 0
(:func:`_fold`), B_j's real coefficients a each weight one cos or sin row, so
b_j's interior energy is ``a·(G a)``, one real Gram matrix G per axis
(:func:`_axis_gram`), its cross term with o is linear in a, and the
reference's energy is the same sum over R.  Only a remainder costs fine
transforms.  The trials of a chunk sit on a leading batch axis, and one
coarse ``rfftn`` serves every configuration on the grid: a configuration
then costs band arithmetic alone, and its cells are bitwise those of a call
with one trial and that configuration alone.  A solve that overflows float64
names max |q| over the bins it applied (:func:`_solve_guard`): bins 0..n-1
in :func:`_cosine_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice, repeat
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .samplers import CoarseSamples, InterpKind, _check_kind, _interp_axis, _response, lattice
from .signal_core import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    _check_count,
    _check_values,
    _interior,
    _metric_inputs,
    _overflow_rejected,
    _snr_cell,
    per_axis,
)

__all__ = [
    "SingularSystemError",
    "ReconOperator",
    "ChebyshevAccel",
    "ReconConfig",
    "ReconReport",
    "iterate",
    "fixed_point_oracle",
]

# fixed_point_oracle solves a dense system on the band; keep instances small
ORACLE_MAX_FINE = 512
# the points of one array of a batched solve: fine-grid points per chunk of
# trials (cli.cmd_convergence) and band coefficients per stack of traced
# iterates, so that a run's memory stays that of a few such arrays, whatever
# its trial or iteration count.  2**16 points is 512 KiB of float64: a 2-D
# trial of 256 x 256 points runs alone, since two of them in one batch ran
# slower than two batches of one (their arrays leave the cache)
BATCH_POINTS = 1 << 16


class SingularSystemError(ValueError):
    """The restricted reconstruction operator is not invertible on the passband."""


@dataclass(frozen=True)
class ReconOperator:
    """G = lowpass ∘ mix ∘ interpolate ∘ sample, on one axis or separably on several.

    The configuration of the reconstruction's fine-grid model G.  Its mixer
    ``1 + 2*sum_{m=1..N} cos(2*pi*m*t/T)`` (N = ``modules``, an integer; none at 0),
    phase-anchored so that fine tick 0 is a coarse sample position, shifts
    the spectral replicas created by sampling back into the baseband, so the
    lowpass at the band edge turns the per-bin distortion into a partial sum
    of the kernel's response over 2N+1 replicas (sinc^p terms as R -> inf),
    or the product of the per-axis sums.  :func:`iterate` uses that gain
    (:func:`_axis_band`).  Only the tests run G on the fine grid
    (``fine_reference.apply_g``).

    ``grid`` is a lone GridSpec or one GridSpec per axis, stored as a tuple;
    the lowpass cuts at each axis's band edge.
    """

    grid: Union[GridSpec, Tuple[GridSpec, ...]]
    kind: InterpKind
    modules: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", per_axis(self.grid))
        _check_kind(self.kind)
        _check_count(self.modules, "modules", 0)
        min_ticks = min(g.ticks_per_sample for g in self.grid)
        if 2 * self.modules > min_ticks:
            # harmonic m lives at m/R cycles per tick; beyond the fine-grid
            # Nyquist it would alias onto lower harmonics (or DC) and corrupt
            # the compensation instead of extending it
            raise ConfigurationError(
                f"{self.modules} modules need ticks_per_sample >= "
                f"{2 * self.modules} on every axis, got {min_ticks}"
            )


@dataclass(frozen=True)
class ChebyshevAccel:
    """Frame bounds of the three-term recursion: A + B > 1, or DC (G̃ = 1) never contracts."""

    a: float = 1.0
    b: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.a <= self.b < np.inf:
            raise ConfigurationError(
                f"frame bounds require 0 < A <= B < inf, got A={self.a}, B={self.b}"
            )
        _check_relax(self.step, f"the step 2/(A+B) of frame bounds A={self.a}, B={self.b}")

    @property
    def rho(self) -> float:
        return (self.b - self.a) / (self.b + self.a)

    @property
    def step(self) -> float:
        """The recursion's relaxation, ``2 / (A + B)``."""
        return 2.0 / (self.a + self.b)


def _check_relax(relax: float, name: str = "relaxation parameter") -> None:
    if not 0.0 < relax < 2.0:
        raise ConfigurationError(f"{name} must lie in (0, 2), got {relax}")


@dataclass(frozen=True)
class ReconConfig:
    """One solve: ``iterations`` steps of relaxation ``relax``, or of the Chebyshev recursion.

    ``iterations`` is an integer count, K >= 1.  With ``acceleration`` set,
    ``relax`` is unused: the recursion relaxes by ``acceleration.step``.
    """

    operator: ReconOperator
    relax: float = 1.0
    iterations: int = 1
    acceleration: Optional[ChebyshevAccel] = None

    def __post_init__(self):
        _check_relax(self.relax)
        _check_count(self.iterations, "iterations", 1)


@dataclass
class ReconReport:
    """Outcome of one reconstruction run.

    ``estimate`` is the dense signal.
    ``snr_trace_db[j]`` is the SNR of the estimate after iteration ``j+1``;
    ``snr_initial_db`` is the SNR of the starting estimate (the simply
    filtered reconstruction), or None when no reference was supplied or the
    run was Chebyshev-accelerated.  Each is :func:`snr_db` of that iterate
    to rounding, scoring the exact iterate: it is computed from the band
    coefficients (:func:`_traces`), not from a float64 estimate (to 1e-6 dB
    of a long-double transcription, as tested, below 150 dB).
    ``non_contraction`` is the exact per-bin criterion: it is set
    when some band bin does not contract, that is when ``max |q| >= 1`` over
    the band, with ``q = 1 - s*G̃`` as in :func:`_error_factors`.  It depends
    on the configuration alone, and the error of a run that overflows names it.
    """

    estimate: DenseSignal
    snr_initial_db: Optional[float] = None
    snr_trace_db: Optional[list] = None
    non_contraction: bool = False


# the lowpass weight of the coarse-Nyquist pair ±n_coarse/2, the band edge at
# rate_multiple 1 only: the samples' Nyquist term splits evenly between the pair
EDGE_WEIGHT = 0.5


@lru_cache(maxsize=64)
def _gain_mask(grid: GridSpec) -> np.ndarray:
    """The band on the rfft bins of ``grid.n_fine`` points: the one rule every band helper reads.

    Bin k passes whole when ``2 * rate_multiple * k < n_coarse``.  The
    coarse-Nyquist bin 2k = n_coarse takes ``EDGE_WEIGHT`` at rate 1, where
    it is the band edge.  Every other bin is cut, the edge bin at a higher
    rate among them.
    """
    twice = 2 * grid.rate_multiple * np.arange(grid.n_fine // 2 + 1)
    mask = np.where(twice < grid.n_coarse, 1.0, 0.0)
    mask[(twice == grid.n_coarse) & (grid.rate_multiple == 1)] = EDGE_WEIGHT
    mask.setflags(write=False)
    return mask


def _band_bins(grid: GridSpec, last: bool) -> np.ndarray:
    """One axis's signed band bins: 0..B on the last (rfft) axis, 0..B and -B..-1 on another."""
    top = np.count_nonzero(_gain_mask(grid)) - 1
    return np.arange(top + 1) if last else np.concatenate([np.arange(top + 1), np.arange(-top, 0)])


@lru_cache(maxsize=64)
def _axis_band(grid: GridSpec, kind: InterpKind, modules: int, last: bool):
    """Band bins of one axis of ``rfftn``'s output, with T's weight and G's gain.

    The last axis holds rfft bins 0..B; any other axis holds full-FFT bins,
    so its band is the signed bins 0..B and -B..-1, the latter at n+k.  At
    signed bin k, with f = (k + m*n_coarse)/n_fine, G's gain before the
    lowpass is ``raw(k) = sum over |m| <= modules of H(f) / R``: sampling
    folds bins ``n_coarse`` apart together and scales them by 1/R, the
    interpolator scales each by its kernel's response H
    (:func:`samplers._response`), and the mixer's m-th harmonic shifts bin
    k + m*n_coarse back onto k.  The band is :func:`_gain_mask`'s; T's
    weight is ``R * mask(|k|)`` and the gain is raw(k) on every band bin: the
    mask is 1 there but at the coarse-Nyquist pair, where the mirror bin
    folds the halves back together.  H is even: raw is taken at |k|, even bitwise.
    """
    n, r = grid.n_fine, grid.ticks_per_sample
    k = _band_bins(grid, last)
    f = (np.abs(k)[:, np.newaxis] + grid.n_coarse * np.arange(-modules, modules + 1)) / n
    raw = np.sum(_response(kind, r, f), axis=1) / r
    out = k % n, r * _gain_mask(grid)[np.abs(k)], raw
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _axis_gram(grid: GridSpec, last: bool):
    """One axis's cross weights w and real Gram matrix G on its band's real coefficients.

    ``irfftn`` of a band sums one real row ``Re(alpha exp(2 pi i k t / n))``
    per real coefficient: on the last axis X_k's real and imaginary parts,
    of rows ``w_k cos`` and ``-w_k sin`` (w_k 1/n, or 2/n at k > 0); on
    another :func:`_fold`'s U_k and V_k, of rows cos/n and sin/n.  So over
    the interior t that :func:`snr_db` scores, coefficients a have energy
    ``a·(G a)``, G along each axis, ``G[i, j] = Re(alpha_i alpha_j S(k_i + k_j)
    + alpha_i conj(alpha_j) S(k_i - k_j)) / 2``, with ``S(m)`` the interior's
    sum of ``exp(2 pi i m t / n)``: the discrete prolate concentration kernel
    (Slepian, Bell Syst. Tech. J., 1978), a geometric sum in closed form.
    |m| < n, so only m = 0 sums to the interior's length.  The cross term with
    a band Y is ``a·(w Y).view(np.float64)``, w 1/(2n) at a folded row k > 0:
    ``X_k conj(Y_k) + X_-k conj(Y_-k) = (U conj(U') + V conj(V')) / 2``.
    """
    n, k = grid.n_fine, _band_bins(grid, last)
    w = np.where(k != 0, 2.0 / n if last else 0.5 / n, 1.0 / n)
    if last:  # the real and imaginary part of each bin
        k, alpha = np.repeat(k, 2), np.repeat(w, 2) * np.tile([1.0, 1j], k.size)
    else:  # cos rows at bins 0..B, sin rows where _fold puts V_B..V_1
        k, alpha = np.abs(k), np.where(k < 0, -1j / n, 1.0 / n)
    span = _interior((n,))[0]
    lo, size = span.start, span.stop - span.start

    def kernel(m):
        # exp(i pi m (2 lo + size - 1) / n) sin(pi m size / n) / sin(pi m / n), angles mod 2 pi
        num, den = np.sin(np.pi * (m * size % (2 * n)) / n), np.sin(np.pi * m / n)
        ratio = np.divide(num, den, out=np.full(m.shape, float(size)), where=m != 0)
        return ratio * np.exp(1j * np.pi * (m * (2 * lo + size - 1) % (2 * n)) / n)

    gram = np.outer(alpha, alpha) * kernel(k + k[:, np.newaxis])
    gram += np.outer(alpha, np.conj(alpha)) * kernel(k[:, np.newaxis] - k)
    out = w, 0.25 * (gram + gram.T).real  # symmetric bitwise, not only to rounding
    for a in out:
        a.setflags(write=False)
    return out


def _fold(band: np.ndarray, ndim: int) -> np.ndarray:
    """``band`` with each non-last of its last ``ndim`` axes' signed bins folded onto k >= 0.

    Bins 0..B, -B..-1 become U_0..U_B, ``U_k = X_k + X_-k`` but U_0 = X_0,
    then V_B..V_1, ``V_k = i(X_k - X_-k)``: the cos and sin coefficients.  G̃
    is even in k, so the signed layout's error factors scale them unchanged.
    """
    for axis in range(-ndim, -1):
        x = np.moveaxis(band, axis, 0)
        top = len(x) // 2
        pos, neg = x[top:0:-1], x[top + 1 :]  # bins B..1 and -B..-1
        band = np.moveaxis(np.concatenate([x[:1], (pos + neg)[::-1], 1j * (pos - neg)]), 0, axis)
    return np.ascontiguousarray(band)


def _outer(vectors) -> np.ndarray:
    """The outer product of per-axis vectors, one array axis each."""
    return reduce(np.multiply, np.ix_(*vectors))


def _gather(spectrum: np.ndarray, index) -> np.ndarray:
    """``spectrum`` at ``np.ix_(*index)`` on its last axes, in C order whatever its leading axes.

    Indexing behind a leading slice lays the leading axes out innermost.
    numpy picks the loop of a matrix product or a sum from the strides, and
    another loop may round differently, so the gather is made C-contiguous:
    then each trial's band products run as in a solve of that trial alone.
    """
    return np.ascontiguousarray(spectrum[(Ellipsis,) + np.ix_(*index)])


def _band_observation(op: ReconOperator, values: np.ndarray):
    """The band's per-axis index into the fine grid's ``rfftn`` output, and T there.

    ``T * G̃`` is the band of the ``rfftn`` of G applied to the samples, at
    ``np.ix_(*index)``.  T, the band of the samples' trigonometric
    interpolant, is read from one ``rfftn`` of the coarse values: a fine bin
    k reads coarse bin k mod ``n_coarse`` on each axis (on a non-last axis,
    fine bin n-j reads coarse bin ``n_coarse``-j).  ``values`` may carry
    leading (trial) axes, which T keeps; neither the index nor T depends on
    the interpolator or the module count.
    """
    ndim = len(op.grid)
    index, weight, _ = zip(
        *[_axis_band(g, op.kind, op.modules, axis == ndim - 1) for axis, g in enumerate(op.grid)]
    )
    coarse = np.fft.rfftn(values, axes=tuple(range(values.ndim - ndim, values.ndim)))
    fixed = _gather(coarse, [k % g.n_coarse for k, g in zip(index, op.grid)])
    return index, fixed * _outer(weight)


def _band_inverse(band: np.ndarray, index, shape: tuple) -> np.ndarray:
    """``irfftn`` of the band zero-filled to ``shape``, bitwise.

    ``band`` sits at ``index``, as from :func:`_band_observation`, after any
    leading (trial) axes, each transformed apart.  A non-last axis is
    transformed only on the band's lines, as all others stay zero; the last
    axis holds rfft bins 0..B, which ``irfft`` zero-pads itself.
    """
    lead = band.ndim - len(shape)
    for axis, (k, n) in enumerate(zip(index[:-1], shape), start=lead):
        full = np.zeros(band.shape[:axis] + (n,) + band.shape[axis + 1 :], dtype=np.complex128)
        full[(slice(None),) * axis + (k,)] = band
        band = np.fft.ifft(full, axis=axis)
    return np.fft.irfft(band, n=shape[-1], axis=-1)


def _error_factors(q: np.ndarray, rho: float):
    """Yield the per-bin error factors e_1 = q, e_2, ... of Gröchenig's recursion.

    ``q = 1 - s*G̃``; iterate j is ``(1 - e_j) * T``.  With e_0 = 1,
    ``e_j = lam_j*q*e_(j-1) + (1 - lam_j)*e_(j-2)``, where lam_1 = 2 and
    ``lam_j = 1 / (1 - rho**2 * lam_(j-1) / 4)``.  A bin converges exactly
    when ``|q| < 1``.  Where lam_j is 1, as at every j > 1 when rho = 0 (the
    plain loop), the second term is zero and a step is one multiply, q * e.
    """
    rho_sq = rho**2
    lam, prev, cur = 2.0, 1.0, q
    while True:
        yield cur
        lam = 1.0 / (1.0 - rho_sq * lam / 4.0)
        prev, cur = cur, q * cur if lam == 1.0 else lam * q * cur + (1.0 - lam) * prev


def _factors(cfg: ReconConfig, gains=None):
    """``q = 1 - s*G̃`` on the band, and the error factor of every traced iterate of ``cfg``.

    s is the relaxation, or ``2/(A+B)`` under Chebyshev, and G̃ the outer
    product of the per-axis ``gains``, by default the band's.  The factors
    end at e_K; the plain loop's start, e = q, comes first.
    """
    op, accel = cfg.operator, cfg.acceleration
    last = len(op.grid) - 1
    if gains is None:
        gains = [_axis_band(g, op.kind, op.modules, a == last)[2] for a, g in enumerate(op.grid)]
    q = 1.0 - (cfg.relax if accel is None else accel.step) * _outer(gains)
    rho = 0.0 if accel is None else accel.rho
    return q, islice(_error_factors(q, rho), cfg.iterations + (accel is None))


def _last(factors):
    """The last of the error ``factors``, e_K, holding one at a time."""
    return reduce(lambda _, e: e, factors)


def _solve_guard(cfg: ReconConfig, q: Optional[np.ndarray] = None):
    """The overflow guard of a solve of ``cfg``: its error names max |q|, by default the band's."""
    def message():
        worst = float(np.max(np.abs(_factors(cfg)[0] if q is None else q)))
        if worst < 1.0:  # the samples' own magnitude, not the iteration, overflows
            return f"the values overflow float64, though max |1 - s*gain| = {worst:.6g} < 1"
        return (
            f"the iterates overflow float64 within {cfg.iterations} iterations: "
            f"a band bin does not contract, max |1 - s*gain| = {worst:.6g} >= 1"
        )

    return _overflow_rejected(message)


def _along_axes(mats, stack: np.ndarray) -> np.ndarray:
    """``stack`` with the symmetric ``mats[i]`` applied along its i-th last axis: ``M_y δ M_x``.

    Every leading axis is a stack axis, so each matrix product runs on the
    same slices, of the same strides, however many trials and iterates.
    """
    for axis, m in zip(range(-len(mats), 0), mats):
        stack = stack @ m if axis == -1 else (m @ stack.swapaxes(axis, -2)).swapaxes(axis, -2)
    return stack


def _reference(spectra: np.ndarray, index, shape: tuple):
    """Per trial, for :func:`_scores`: the interior energy of the remainder o, the band R, and O.

    o is the inverse transform of the spectrum off the band and O the band of
    its interior, zero-filled: zeros, with no transform, where no row has any.
    """
    band = _gather(spectra, index)
    if np.count_nonzero(spectra) == np.count_nonzero(band):
        return np.zeros(len(band)), band, np.zeros_like(band)
    rest, axes = spectra.copy(), tuple(range(1, spectra.ndim))
    rest[(Ellipsis,) + np.ix_(*index)] = 0.0
    interior, placed = (slice(None),) + _interior(shape), np.zeros((len(band),) + shape)
    o = placed[interior] = np.fft.irfftn(rest, s=shape, axes=axes)[interior]
    floor = (o * o).reshape(len(o), -1).sum(axis=1)
    return floor, band, _gather(np.fft.rfftn(placed, axes=axes), index)


def _traces(coarse: np.ndarray, configs: Sequence[ReconConfig], references: np.ndarray) -> list:
    """:func:`_scores` of trial i's ``coarse`` samples in row i, checked as CoarseSamples are."""
    shape = np.shape(coarse)[:1] + tuple([g.n_coarse for g in configs[0].operator.grid])
    coarse = _check_values(coarse, shape, "CoarseSamples")
    index, fixed = _band_observation(configs[0].operator, coarse)
    return _scores(index, fixed, configs, references)


def _scores(index, fixed: np.ndarray, configs: Sequence[ReconConfig], references) -> list:
    """The initial cell and the trace of every trial, for every configuration on one grid.

    Row i of ``fixed`` is trial i's band T, at ``index``, and row i of the
    finite stack ``references`` is the fine ``rfftn`` of its reference.
    Returns one pair ``(initial cells, traces)`` per configuration, each
    with one entry per trial: :func:`snr_db` of the plain loop's start (None
    under Chebyshev), and the list of :func:`snr_db` of every iterate, each
    scoring the exact iterate to rounding.  With R the reference's band, o
    and O as :func:`_reference` returns them, iterate j's interior error is
    o + b_j, where b_j has the band ``B_j = (R - T) + e_j·T``.  With a the
    real coefficients of B_j folded (:func:`_fold`), its energy is
    ``|o|**2 + a·(G a + 2c)``, c from O folded (:func:`_axis_gram`), and the
    reference's is the same with R for B_j.  R, o and O serve every
    configuration, which adds no transform.  Each trial's sums and matrix
    products run on slices laid out as in a call with that trial alone, so
    neither the batch nor the other configurations change a cell.  The
    iterates go through in stacks of at most ``BATCH_POINTS`` band
    coefficients over all trials, each row turned to dB by one ``map`` of
    :func:`_snr_cell`, whose ``math.log10`` keeps the cells' bits off the
    CPU's vector paths.  An overflow raises :func:`iterate`'s error for the
    configuration it occurred in, or for the first while the reference is
    scored.
    """
    grid = configs[0].operator.grid
    shape = tuple([g.n_fine for g in grid])
    trials, spectra = len(fixed), np.asarray(references)
    want = (trials,) + shape[:-1] + (shape[-1] // 2 + 1,)
    if spectra.shape != want:
        raise ConfigurationError(
            f"shape mismatch: a traced solve needs reference spectra {want}, got {spectra.shape}"
        )
    if not np.isfinite(spectra).all():
        raise ConfigurationError("reference and estimate must be finite")  # as snr_db says it
    weights, grams = zip(*[_axis_gram(g, axis == len(grid) - 1) for axis, g in enumerate(grid)])
    size = max(1, BATCH_POINTS // fixed.size)

    def energies(a):  # |o|**2 + a·(G a + 2c) of each trial's rows of real coefficients a
        err = (a * (_along_axes(grams, a) + cross)).reshape(trials, a.shape[1], -1)
        return floor[:, np.newaxis] + err.sum(axis=-1)

    with _solve_guard(configs[0]):
        floor, band, rest = _reference(spectra, index, shape)
        gap, fixed, band, rest = [_fold(x, len(grid)) for x in (band - fixed, fixed, band, rest)]
        cross = 2.0 * (_outer(weights) * rest).view(np.float64)[:, np.newaxis]
        energy = energies(band.view(np.float64)[:, np.newaxis])[:, 0].tolist()
    out = []
    for cfg in configs:
        cells = [[] for _ in range(trials)]
        q, factors = _factors(cfg)
        with _solve_guard(cfg, q):
            for rows in iter(lambda: list(islice(factors, size)), []):
                a = gap[:, np.newaxis] + np.stack(rows) * fixed[:, np.newaxis]
                err = energies(a.view(np.float64))
                if not np.all(np.isfinite(err)):
                    # the matmul's overflow can escape the guard, as in a threaded BLAS
                    raise FloatingPointError("overflow in the traced error energies")
                for trial, power, errs in zip(cells, energy, err.tolist()):
                    trial += map(_snr_cell, repeat(power), errs)
        start = cfg.acceleration is None
        out.append(([c[0] if start else None for c in cells], [c[start:] for c in cells]))
    return out


def iterate(observed: CoarseSamples, cfg: ReconConfig, reference=None) -> ReconReport:
    """Reconstruct a dense signal from its coarse samples, on any number of axes.

    Computes each iterate of the plain relaxed loop, or of the Chebyshev
    recursion when ``cfg.acceleration`` is set, per band bin in closed form
    (see the module docstring).  One inverse transform returns the estimate;
    :func:`_cosine_solve` is this solve on an image's mirror extension.  With a
    reference of the grid's shape, every iterate's SNR is traced from band
    coefficients and the reference's ``rfftn`` (:func:`_scores`), at a fixed
    number of transforms whatever the iteration count.  A run that overflows float64
    raises :class:`ConfigurationError`, which says whether a band bin does
    not contract.
    """
    op = cfg.operator
    if not isinstance(observed, CoarseSamples):
        raise ConfigurationError(f"iterate solves CoarseSamples, got {type(observed).__name__}")
    if observed.grid != op.grid:
        raise ConfigurationError("samples and operator must have the same grids")
    shape = tuple([g.n_fine for g in op.grid])
    index, fixed = _band_observation(op, observed.values[np.newaxis])
    q, factors = _factors(cfg)
    with _solve_guard(cfg, q):
        est = _band_inverse((1.0 - _last(factors)) * fixed, index, shape)[0]
    init = trace = None
    if reference is not None:
        reference, _ = _metric_inputs(reference, est)
        with _solve_guard(cfg, q):
            spectrum = np.fft.rfftn(reference)[np.newaxis]
        [((init,), (trace,))] = _scores(index, fixed, [cfg], spectrum)
    return ReconReport(
        estimate=DenseSignal(op.grid, est),
        snr_initial_db=init,
        snr_trace_db=trace,
        non_contraction=float(np.max(np.abs(q))) >= 1.0,
    )


def _cosine_solve(values: np.ndarray, configs: Sequence[ReconConfig]) -> Iterator[np.ndarray]:
    """:func:`iterate`'s estimate of each of ``configs`` on the even mirror extension of ``values``.

    Each is cut to the values' span.  ``configs`` share the extension's grids,
    of 2n coarse samples per n values.  Its DFT at bin k is ``2 exp(i pi k/2n)
    C_k``, C the values' DCT-II (Makhoul, IEEE Trans. ASSP, 1980), and 0 at
    k = n.  G̃ is real and even, so with M = nR the estimate at tick t is
    ``irfft`` of length 2M of the real band ``(1 - e_K)·T`` at t + R/2: one
    forward pass gives every configuration its T, and the estimates follow
    lazily, one inverse at a time.  Each transform runs along the band's last,
    contiguous axis, and the axes roll one place right between transforms.
    The forward pass (axes d-1..0) leaves the image's axes rolled one left; q
    and each inverse (axes d-2..0, then d-1) take them rolled one right, the
    same order at d <= 2, and an inverse ends on the image's rows in the
    image's order, never transposed.  An overflow raises :func:`iterate`'s
    error for its configuration and the bins 0..n-1 applied: bin n, where G̃
    is most extreme, holds 0 and is never computed.
    """
    op = configs[0].operator
    if any(cfg.operator.grid != op.grid for cfg in configs):
        raise ConfigurationError("the cosine solve takes configurations on one set of grids")
    band = _check_values(values, tuple([g.n_coarse // 2 for g in op.grid]), "the cosine solve")
    # per configuration and axis: band bins 0..n-1, with T's weight R and the gain G̃
    bands = [[[a[: g.n_coarse // 2] for a in _axis_band(g, o.kind, o.modules, True)]
              for g in op.grid] for o in [cfg.operator for cfg in configs]]
    for i, (g, (k, weight, _)) in enumerate(zip(reversed(op.grid), reversed(bands[0]))):
        band = np.ascontiguousarray(np.moveaxis(band, -1, 0)) if i else band
        line = np.fft.rfft(np.concatenate([band, band[..., ::-1]], axis=-1), axis=-1)[..., : k.size]
        band = weight * (np.exp(-1j * np.pi * k / g.n_coarse) * line).real
    # from the image's axes rolled one left to rolled one right: a copy at d >= 3 only
    axes = np.roll(np.arange(band.ndim), 1)
    band = np.ascontiguousarray(band.transpose(np.roll(axes, 1)))
    shape = tuple([g.n_fine // 2 for g in op.grid])

    def solve(cfg, axis_bands):  # its arrays are freed on return, before the next solve
        q, factors = _factors(cfg, [axis_bands[a][2] for a in axes])
        with _solve_guard(cfg, q):
            est = (1.0 - _last(factors)) * band
            for i, a in enumerate(reversed(axes)):
                est = np.ascontiguousarray(np.moveaxis(est, -1, 0)) if i else est
                r, m = op.grid[a].ticks_per_sample, op.grid[a].n_fine // 2
                est = np.fft.irfft(est, 2 * m, axis=-1)[..., r // 2 : r // 2 + m]
        # a copy of the row slice, so the estimate does not hold the irfft's 2M-wide output
        return _check_values(est.copy(), shape, "the cosine solve")

    return map(solve, configs, bands)


def _band_basis(grid: GridSpec) -> np.ndarray:
    """Orthonormal basis of the band: DC and a cos/sin pair per weight-1 :func:`_gain_mask` bin."""
    n = grid.n_fine
    cols = [np.full(n, 1.0 / np.sqrt(n))]
    i = np.arange(n)
    for j in np.flatnonzero(_gain_mask(grid) == 1.0)[1:].tolist():
        cols.append(np.sqrt(2.0 / n) * np.cos(2.0 * np.pi * j * i / n))
        cols.append(np.sqrt(2.0 / n) * np.sin(2.0 * np.pi * j * i / n))
    return np.stack(cols, axis=1)


def fixed_point_oracle(observed: CoarseSamples, op: ReconOperator) -> DenseSignal:
    """Direct linear-algebra solution of ``G x = G x_obs`` on the passband.

    Restricts G to the orthonormal basis B of the open passband and solves.
    G's lowpass leaves every column of B unchanged, so ``Bᵀ·G`` is
    ``Bᵀ·mix·interpolate·sample``: the oracle interpolates the lattice
    samples of B's columns and of the observation, mixes them and projects
    onto B.  It never runs G on the fine grid, as the tests' dense oracle
    does (``fine_reference.dense_oracle``).  Verification-only: instances are
    limited to 1-D operators with ``n_fine <= 512``.
    """
    if len(op.grid) != 1:
        raise ConfigurationError("the oracle handles 1-D operators only")
    grid = op.grid[0]
    if grid.n_fine > ORACLE_MAX_FINE:
        raise ConfigurationError(
            f"oracle instances are limited to n_fine <= {ORACLE_MAX_FINE}, got {grid.n_fine}"
        )
    # samples of another grid, even of the same shape, belong to another band
    if observed.grid != op.grid:
        raise ConfigurationError("samples and operator must have the same grids")
    basis = _band_basis(grid)
    coarse = np.column_stack([basis[lattice(op.grid)], observed.values])
    # the mixer over one sampling interval, tick 0 on the lattice
    ticks = np.arange(grid.ticks_per_sample) / grid.ticks_per_sample
    harmonics = np.arange(1, op.modules + 1)[:, np.newaxis]
    mixer = 1.0 + 2.0 * np.cos(2.0 * np.pi * harmonics * ticks).sum(axis=0)
    fine = _interp_axis(coarse, grid, op.kind, axis=0)
    projected = basis.T @ (np.tile(mixer, grid.n_coarse)[:, np.newaxis] * fine)
    reduced, rhs = projected[:, :-1], projected[:, -1]
    cond = np.linalg.cond(reduced)
    if not np.isfinite(cond) or cond > 1e10:
        raise SingularSystemError(
            f"operator is not invertible on the passband (condition number {cond:.3g})"
        )
    coeffs = np.linalg.solve(reduced, rhs)
    return DenseSignal(op.grid, basis @ coeffs)
