"""The reconstruction solve.

Three ways to invert the sampling/interpolation distortion given only the
coarse samples of an unknown band-limited signal:

* the plain relaxed fixed-point iteration
  ``x_{k+1} = relax * g_obs + x_k - relax * G(x_k)``,
* the same iteration with the cosine-module compensator folded into ``G``
  (the hybrid scheme; ``modules=0`` recovers the plain method exactly),
* a Chebyshev-accelerated variant driven by frame bounds ``(A, B)``.

``g_obs`` is ``G`` applied to the observed samples, which equals ``G``
applied to any dense signal consistent with them.  The reference signal,
when supplied, is used only for SNR reporting.

One operator serves any number of axes: on a lattice (an image has grids
``(grid_y, grid_x)``) ``G`` is separable and applies each 1-D stage along
every axis in turn, last axis first.  ``G`` depends only on the grids, the
interpolator and the module count; its lowpass cuts at each axis's band
edge.

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
IEEE Trans. Signal Process., 1993).  So the solve never runs G: one inverse
transform of the estimate's band, which computes only the leading corner of
the grid asked for (:func:`_band_inverse`), is its only fine-grid work.  A
traced solve adds one forward transform of the estimate's interior
residual: the interior error energy of every earlier iterate follows from
its band coefficients and that residual's, through a small matrix per axis,
the discrete prolate concentration kernel (:func:`_axis_gram`,
:func:`_band_trace`).

:func:`iterate` also solves a list of samples on one grid as one batch, on
a leading trial axis: a solve of B trials makes one batched coarse
``rfftn``, one batched inverse and, when traced, one batched residual
transform, and computes the error factors, which depend on the
configuration alone, once.  Its estimates and SNR cells are bitwise those
of B single solves; a single solve is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .samplers import CoarseSamples, InterpKind, _check_kind, interpolate, lattice, sample
from .signal_core import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    _check_count,
    _check_values,
    _interior,
    _metric_inputs,
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

# fixed_point_oracle builds a dense matrix; keep instances small
ORACLE_MAX_FINE = 512
# the points of one array of a batched solve: fine-grid points per chunk of
# trials (cli._mean_traces) and band coefficients per stack of traced
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

    G is the fine-grid model of the reconstruction.  Its mixer
    ``1 + 2*sum_{m=1..N} cos(2*pi*m*t/T)`` (N = ``modules``, an integer; none at 0),
    phase-anchored so that fine tick 0 is a coarse sample position, shifts
    the spectral replicas created by sampling back into the baseband, so the
    lowpass at the band edge turns the per-bin distortion into the partial
    sinc sum ``H_N(f) = sum_{|m|<=N} sinc^p(f*T - m)``, or the product of the
    per-axis sums.  :func:`iterate` uses that gain in closed form
    (:func:`_axis_band`); :meth:`apply_values` runs G on the fine grid, as the
    operator of :func:`fixed_point_oracle` and as the tests' reference.

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

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """G on the fine grid: each stage along every axis in turn, last axis first."""
        out = interpolate(sample(DenseSignal(self.grid, values)), self.kind).values
        axes = range(out.ndim - 1, -1, -1)

        def along(vector, axis):
            return vector.reshape((-1,) + (1,) * (out.ndim - 1 - axis))

        for axis in axes if self.modules else ():
            r = self.grid[axis].ticks_per_sample
            period = np.ones(r)
            for harmonic in range(1, self.modules + 1):
                period += 2.0 * np.cos(2.0 * np.pi * harmonic * np.arange(r) / r)
            out = out * along(np.tile(period, self.grid[axis].n_coarse), axis)
        for axis in axes:
            n = out.shape[axis]
            mask = along(_gain_mask(n, self.grid[axis].band_edge), axis)
            out = np.fft.irfft(np.fft.rfft(out, axis=axis) * mask, n=n, axis=axis)
        return out

    def observation(self, samples: CoarseSamples) -> np.ndarray:
        """G applied to the samples placed on the lattice of a zero fine array."""
        # samples of another grid, even of the same shape, belong to another band
        if samples.grid != self.grid:
            raise ConfigurationError("samples and operator must have the same grids")
        placed = np.zeros(tuple([g.n_fine for g in self.grid]))
        placed[lattice(self.grid)] = samples.values
        return self.apply_values(placed)


@dataclass(frozen=True)
class ChebyshevAccel:
    """Frame bounds for the accelerated three-term recursion."""

    a: float = 1.0
    b: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.a <= self.b < np.inf:
            raise ConfigurationError(
                f"frame bounds require 0 < A <= B < inf, got A={self.a}, B={self.b}"
            )

    @property
    def rho(self) -> float:
        return (self.b - self.a) / (self.b + self.a)

    @property
    def step(self) -> float:
        """The recursion's relaxation, ``2 / (A + B)``."""
        return 2.0 / (self.a + self.b)


def _check_relax(relax: float) -> None:
    if not 0.0 < relax < 2.0:
        raise ConfigurationError(f"relaxation parameter must lie in (0, 2), got {relax}")


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

    ``estimate`` is the dense signal or, for a solve given a ``crop``, the
    values of that leading corner of the grid as a finite float64 array.
    ``snr_trace_db[j]`` is the SNR of the estimate after iteration ``j+1``;
    ``snr_initial_db`` is the SNR of the starting estimate (the simply
    filtered reconstruction), or None when no reference was supplied or the
    run was Chebyshev-accelerated.  Each is :func:`snr_db` of that iterate,
    computed from its band coefficients with no inverse transform of its own:
    the last is exactly ``snr_db(reference, estimate)``, and an earlier one
    agrees with ``snr_db`` to rounding (to 1e-6 dB, as tested, below
    150 dB).  ``non_contraction`` is the exact per-bin criterion: it is set
    when some band bin does not contract, that is when ``max |q| >= 1`` over
    the band, with ``q = 1 - s*G̃`` as in :func:`_error_factors`.  It depends
    on the configuration alone.
    ``operator_applications`` counts the fine-grid passes of G made by the
    call; it is 0 for every call, since :func:`iterate` works on DFT
    coefficients throughout, and is kept for the benchmark's tracer.
    """

    estimate: DenseSignal
    operator_applications: int
    snr_initial_db: Optional[float] = None
    snr_trace_db: Optional[list] = None
    non_contraction: bool = False


# the lowpass weight of a bin exactly on the band edge: 0.5 makes the lowpass
# self-adjoint and treats the folded band edge symmetrically
EDGE_WEIGHT = 0.5


@lru_cache(maxsize=64)
def _gain_mask(n: int, cutoff: float) -> np.ndarray:
    """The ideal lowpass on the rfft bins of ``n`` points: 1 below ``cutoff``, 0 above."""
    freqs = np.fft.rfftfreq(n)
    mask = np.zeros(freqs.size)
    mask[freqs < cutoff - 1e-12] = 1.0
    mask[np.abs(freqs - cutoff) <= 1e-12] = EDGE_WEIGHT
    mask.setflags(write=False)
    return mask


def _band_bins(grid: GridSpec, last: bool) -> np.ndarray:
    """One axis's signed band bins: 0..B on the last (rfft) axis, 0..B and -B..-1 on another."""
    top = np.count_nonzero(_gain_mask(grid.n_fine, grid.band_edge)) - 1
    return np.arange(top + 1) if last else np.concatenate([np.arange(top + 1), np.arange(-top, 0)])


@lru_cache(maxsize=64)
def _axis_band(grid: GridSpec, kind: InterpKind, modules: int, last: bool):
    """Band bins of one axis of ``rfftn``'s output, with T's weight and G's gain.

    The last axis holds rfft bins 0..B; any other axis holds full-FFT bins,
    so its band is the signed bins 0..B and -B..-1, the latter at n+k.  At
    signed bin k, with f = (k + m*n_coarse)/n_fine, G's gain before the
    lowpass is ``raw(k) = sum over |m| <= modules of kernel(f)``: sampling
    folds bins ``n_coarse`` apart together, the interpolator scales each by
    its kernel's DFT, and the mixer's m-th harmonic shifts bin k + m*n_coarse
    back onto k.  The kernel term is ``sin(pi f R) cot(pi f) / R`` for the
    centred hold with half-weight ends and ``(sin(pi f R) / (R sin(pi f)))**2``
    for the triangle.  T's weight is ``R * mask(|k|)`` and the gain
    ``mask(|k|) * raw(k)``, except at the coarse Nyquist bin 2|k| = n_coarse
    (only at ``rate_multiple`` 1 with even ``n_coarse``), where the mirror
    bin undoes the mask's halving and the gain is raw(k).
    """
    n, r = grid.n_fine, grid.ticks_per_sample
    mask = _gain_mask(n, grid.band_edge)
    k = _band_bins(grid, last)
    f = (k[:, np.newaxis] + grid.n_coarse * np.arange(-modules, modules + 1)) / n
    hold = kind is InterpKind.SAMPLE_AND_HOLD
    den = r * (np.tan(np.pi * f) if hold else np.sin(np.pi * f))
    # every term is 1 at f = 0, the only f at which den vanishes
    term = np.divide(np.sin(np.pi * f * r), den, out=np.ones_like(f), where=f != 0)
    raw = np.sum(term if hold else term * term, axis=1)
    mask = mask[np.abs(k)]
    out = k % n, r * mask, np.where(2 * np.abs(k) == grid.n_coarse, raw, mask * raw)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _axis_gram(grid: GridSpec, last: bool):
    """One axis's inverse-transform weights w and interior kernels M⁻ and M⁺ on its band bins.

    ``irfftn`` of band coefficients X, zero elsewhere, is Re z, where on each
    axis ``z[t] = sum over band bins k of w_k X_k exp(2 pi i k t / n)``: w_k
    is 1/n, or 2/n at the last axis's bins k > 0.  So over the interior t
    that :func:`snr_db` scores, ``sum |z|**2 = conj(X)·(M⁻ X)`` and
    ``sum z**2 = X·(M⁺ X)``, applying each axis's matrix along that axis, with
    ``M∓[k, k'] = w_k w_k' S(k' ∓ k)`` and ``S(m)`` the sum over the interior
    of ``exp(2 pi i m t / n)``: the discrete prolate concentration kernel
    (Slepian, "Prolate spheroidal wave functions, Fourier analysis, and
    uncertainty V: the discrete case", Bell Syst. Tech. J., 1978).  S is a
    geometric sum, in closed form; |m| < n, so only m = 0 sums to the
    interior's length.
    """
    n = grid.n_fine
    k = _band_bins(grid, last)
    w = np.where((k > 0) & last, 2.0 / n, 1.0 / n)
    span = _interior((n,))[0]
    lo, size = span.start, span.stop - span.start

    def kernel(m):
        # exp(i pi m (2 lo + size - 1) / n) sin(pi m size / n) / sin(pi m / n);
        # the integer products are reduced mod 2n, so every angle is in [0, 2 pi)
        ratio = np.divide(
            np.sin(np.pi * (m * size % (2 * n)) / n), np.sin(np.pi * m / n),
            out=np.full(m.shape, float(size)), where=m != 0,
        )
        return ratio * np.exp(1j * np.pi * (m * (2 * lo + size - 1) % (2 * n)) / n)

    pair = np.outer(w, w)
    out = w, pair * kernel(k - k[:, np.newaxis]), pair * kernel(k + k[:, np.newaxis])
    for a in out:
        a.setflags(write=False)
    return out


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
    """The band's per-axis index into the fine grid's ``rfftn`` output, T there and G̃ there.

    ``T * G̃`` is the band of ``rfftn(op.observation(samples))``, at
    ``np.ix_(*index)``.  T, the band of the samples' trigonometric
    interpolant, is read from one ``rfftn`` of the coarse values: a fine bin
    k reads coarse bin k mod ``n_coarse`` on each axis (on a non-last axis,
    fine bin n-j reads coarse bin ``n_coarse``-j).  ``values`` may carry
    leading (trial) axes, which T keeps; G̃ depends on the operator alone.
    """
    ndim = len(op.grid)
    index, weight, gain = zip(
        *[_axis_band(g, op.kind, op.modules, axis == ndim - 1) for axis, g in enumerate(op.grid)]
    )
    coarse = np.fft.rfftn(values, axes=tuple(range(values.ndim - ndim, values.ndim)))
    fixed = _gather(coarse, [k % g.n_coarse for k, g in zip(index, op.grid)])
    return index, fixed * _outer(weight), _outer(gain)


def _band_inverse(band: np.ndarray, index, shape: tuple, crop: tuple) -> np.ndarray:
    """The leading ``crop`` corner of ``irfftn`` of the band zero-filled to ``shape``, bitwise.

    ``band`` sits at ``index``, as from :func:`_band_observation`, after any
    leading (trial) axes, each transformed apart.  A non-last axis is
    transformed only on the band's lines, as all others stay zero; the last
    axis holds rfft bins 0..B, which ``irfft`` zero-pads itself.
    """
    lead = band.ndim - len(shape)
    for axis, (k, n, keep) in enumerate(zip(index[:-1], shape, crop), start=lead):
        before = (slice(None),) * axis
        full = np.zeros(band.shape[:axis] + (n,) + band.shape[axis + 1 :], dtype=np.complex128)
        full[before + (k,)] = band
        band = np.fft.ifft(full, axis=axis)[before + (slice(keep),)]
    return np.fft.irfft(band, n=shape[-1], axis=-1)[..., : crop[-1]]


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


def _along_axes(mats, stack: np.ndarray) -> np.ndarray:
    """``stack`` with ``mats[i]`` applied along the i-th of its last axes: ``M_y δ M_xᵀ`` in 2-D.

    Every leading axis is a stack axis, so each matrix product runs on the
    same slices, of the same strides, however many trials and iterates.
    """
    for axis, m in zip(range(-len(mats), 0), mats):
        stack = (m @ stack.swapaxes(axis, -2)).swapaxes(axis, -2)
    return stack


def _residual(reference, values, index):
    """Per trial, for :func:`_band_trace`: the reference's interior energy, |d|**2 and D.

    d = reference - values on the interior, zero-filled outside it, and D is
    its band; one batched forward transform gives every trial's D.  Its
    fine-grid arrays are freed on return, before the stacks of iterates.
    """
    ref, values = _metric_inputs(reference, values)
    trials = len(ref)
    interior = (slice(None),) + _interior(ref.shape[1:])
    r = ref[interior]
    placed = np.zeros(ref.shape)
    d = np.subtract(r, values[interior], out=placed[interior])
    energy = (r * r).reshape(trials, -1).sum(axis=1).tolist()
    floor = (d * d).reshape(trials, -1).sum(axis=1)
    return energy, floor, _gather(np.fft.rfftn(placed, axes=tuple(range(1, ref.ndim))), index)


def _band_trace(reference, values, last, errors, fixed, index, grids) -> list:
    """``snr_db(reference, v_j)`` for every iterate v_j of each trial, from its band.

    ``reference``, ``values`` (the last iterate, v_K) and ``fixed`` (T) hold
    one trial per row of a leading axis; the result holds one list of cells
    per trial.  ``errors`` yields each iterate's factor e_j and ``last`` is
    e_K, shared by every trial.  With d = reference - v_K on the interior,
    iterate j's error there is ``d - Re z_j``, where z_j has the band
    ``δ_j = (e_K - e_j)·T`` (:func:`_axis_gram`).  So its energy is
    ``|d|**2 - 2 Re(δ_j · w conj(D)) + (conj(δ_j)·(M⁻ δ_j) + Re δ_j·(M⁺ δ_j)) / 2``,
    with D the band of one forward transform of d zero-filled outside the
    interior, and w the product of the axes' weights; the last term is
    ``sum (Re z_j)**2``, by ``(Re z)**2 = (|z|**2 + Re z**2) / 2``.  No term
    needs the reference to be band-limited, and the last iterate's energy is
    ``|d|**2`` as :func:`snr_db` sums it.  Each trial's sums and matrix
    products run on slices laid out as in a solve of that trial alone, so a
    batch changes no cell.  The iterates go through in stacks of at most
    ``BATCH_POINTS`` band coefficients over all trials.
    """
    energy, floor, residual = _residual(reference, values, index)
    trials = len(floor)
    weights, minus, plus = zip(
        *[_axis_gram(g, axis == len(grids) - 1) for axis, g in enumerate(grids)]
    )
    # one matrix-vector product per trial: (iterates x band) by the trial's band
    cross = (_outer(weights) * np.conj(residual)).reshape(trials, -1, 1)
    cells = [[] for _ in range(trials)]
    size = max(1, BATCH_POINTS // fixed.size)
    for rows in iter(lambda: list(islice(errors, size)), []):
        stack = (last - np.stack(rows)) * fixed[:, np.newaxis]
        quad = np.conj(stack) * _along_axes(minus, stack) + stack * _along_axes(plus, stack)
        flat = stack.reshape(trials, len(rows), -1)
        quad = quad.reshape(trials, len(rows), -1).sum(axis=-1).real
        err = floor[:, np.newaxis] - 2.0 * (flat @ cross)[..., 0].real + 0.5 * quad
        if not np.all(np.isfinite(err)):
            # the matmul's overflow can escape np.errstate, as in a threaded BLAS
            raise FloatingPointError("overflow in the traced error energies")
        for trial, power, errs in zip(cells, energy, err.tolist()):
            trial += [_snr_cell(power, x) for x in errs]
    return cells


def _stack(arrays: list) -> np.ndarray:
    """``arrays`` on a new leading axis; a lone array is a view, not a copy."""
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)


class _Reports(list):
    """The reports of a batched :func:`iterate`, one per samples, in order.

    ``operator_applications`` sums theirs, so the benchmark's tracer reads
    a batched call as it reads a single one.
    """

    @property
    def operator_applications(self) -> int:
        return sum(rep.operator_applications for rep in self)


def iterate(
    observed: Union[CoarseSamples, Sequence[CoarseSamples]],
    cfg: ReconConfig,
    reference=None,
    crop: Optional[Tuple[int, ...]] = None,
) -> Union[ReconReport, List[ReconReport]]:
    """Reconstruct a dense signal from its coarse samples, on any number of axes.

    Computes each iterate of the plain relaxed loop, or of the Chebyshev
    recursion when ``cfg.acceleration`` is set, per band bin in closed form
    (see the module docstring).  One inverse transform returns the estimate,
    or only its leading ``crop`` corner (one size in 1..n per axis).  With a
    reference, which must have the grid's shape and takes no crop, every
    iterate's SNR is traced from its band coefficients (:func:`_band_trace`),
    at one more forward transform per solve, whatever the iteration count.
    A run that overflows float64 raises :class:`ConfigurationError`, which
    says whether a band bin does not contract.

    ``observed`` may also be a list or tuple of samples on the operator's
    grids, with ``reference`` None or a list or tuple of one reference each:
    the trials are solved as one batch, and a list of one report per
    samples, in order, is returned, bitwise what one call per samples
    returns.  A single call is that solve on a batch of one.  A batch of B
    trials makes one batched coarse ``rfftn``, one batched inverse and, when
    traced, one batched residual transform; the error factors, which depend
    on the configuration alone, are computed once.  An overflow in any trial
    fails the whole batch.
    """
    op = cfg.operator
    single = not isinstance(observed, (list, tuple))
    batch = [observed] if single else list(observed)
    references = None if reference is None else [reference] if single else reference
    if not batch:
        raise ConfigurationError("a batch needs at least one CoarseSamples")
    for s in batch:
        if not isinstance(s, CoarseSamples):
            raise ConfigurationError(f"iterate solves CoarseSamples, got {type(s).__name__}")
        if s.grid != op.grid:
            raise ConfigurationError("samples and operator must have the same grids")
    if references is not None and (
        not isinstance(references, (list, tuple)) or len(references) != len(batch)
    ):
        raise ConfigurationError(
            f"a batch of {len(batch)} samples needs a list of as many references"
        )
    shape = tuple([g.n_fine for g in op.grid])
    corner = shape if crop is None else tuple(crop)
    if len(corner) != len(shape) or not all(
        isinstance(c, (int, np.integer)) and 1 <= c <= n for c, n in zip(corner, shape)
    ):
        raise ConfigurationError(f"crop must be an integer in 1..n per axis of {shape}, got {crop}")
    if references is not None:
        references = [np.asarray(getattr(r, "values", r), dtype=np.float64) for r in references]
        got = next((r.shape for r in references if r.shape != shape), corner)
        if got != shape:  # a cropped estimate, or a reference of another shape
            raise ConfigurationError(
                f"shape mismatch: a traced solve scores the grid {shape}, got {got}"
            )
        references = _stack(references)
    index, fixed, gain = _band_observation(op, _stack([s.values for s in batch]))
    accel = cfg.acceleration
    q = 1.0 - (cfg.relax if accel is None else accel.step) * gain
    worst = float(np.max(np.abs(q)))

    def factors():
        # the plain loop's start, e = q, is reported apart from the trace
        return islice(
            _error_factors(q, 0.0 if accel is None else accel.rho), cfg.iterations + (accel is None)
        )

    traces = [None] * len(batch)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for last in factors():
                pass
            values = _band_inverse((1.0 - last) * fixed, index, shape, corner)
            if references is not None:
                traces = _band_trace(references, values, last, factors(), fixed, index, op.grid)
    except FloatingPointError:
        if worst < 1.0:  # the samples' own magnitude, not the iteration, overflows
            why = f"the values overflow float64, though max |1 - s*gain| = {worst:.6g} < 1"
        else:
            why = (
                f"the iterates overflow float64 within {cfg.iterations} iterations: "
                f"a band bin does not contract, max |1 - s*gain| = {worst:.6g} >= 1"
            )
        raise ConfigurationError(why) from None
    reports = _Reports(
        ReconReport(
            estimate=(
                DenseSignal(op.grid, est) if crop is None
                else _check_values(est, corner, "DenseSignal")
            ),
            operator_applications=0,
            snr_initial_db=trace.pop(0) if trace is not None and accel is None else None,
            snr_trace_db=trace,
            non_contraction=worst >= 1.0,
        )
        for est, trace in zip(values, traces)
    )
    return reports[0] if single else reports


def _band_basis(n: int, cutoff: float) -> np.ndarray:
    """Orthonormal real basis of the open passband (bins strictly below cutoff)."""
    cols = [np.full(n, 1.0 / np.sqrt(n))]
    i = np.arange(n)
    for j in range(1, n // 2 + 1):
        if j / n >= cutoff - 1e-12:
            break
        cols.append(np.sqrt(2.0 / n) * np.cos(2.0 * np.pi * j * i / n))
        cols.append(np.sqrt(2.0 / n) * np.sin(2.0 * np.pi * j * i / n))
    return np.stack(cols, axis=1)


def fixed_point_oracle(observed: CoarseSamples, op: ReconOperator) -> DenseSignal:
    """Direct linear-algebra solution of ``G x = G x_obs`` on the passband.

    Builds the dense matrix of G column by column, restricts it to the
    orthonormal basis of the open passband, and solves.  Verification-only:
    instances are limited to 1-D operators with ``n_fine <= 512``.
    """
    if len(op.grid) != 1:
        raise ConfigurationError("the oracle handles 1-D operators only")
    n = op.grid[0].n_fine
    if n > ORACLE_MAX_FINE:
        raise ConfigurationError(
            f"oracle instances are limited to n_fine <= {ORACLE_MAX_FINE}, got {n}"
        )
    gmat = np.empty((n, n))
    eye = np.eye(n)
    for j in range(n):
        gmat[:, j] = op.apply_values(eye[:, j])
    basis = _band_basis(n, op.grid[0].band_edge)
    reduced = basis.T @ gmat @ basis
    rhs = basis.T @ op.observation(observed)
    cond = np.linalg.cond(reduced)
    if not np.isfinite(cond) or cond > 1e10:
        raise SingularSystemError(
            f"operator is not invertible on the passband (condition number {cond:.3g})"
        )
    coeffs = np.linalg.solve(reduced, rhs)
    return DenseSignal(op.grid, basis @ coeffs)
