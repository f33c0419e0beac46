"""Iterative reconstruction engines.

Three ways to invert the sampling/interpolation distortion given only the
coarse samples of an unknown band-limited signal:

* the plain relaxed fixed-point iteration
  ``x_{k+1} = relax * g_obs + x_k - relax * G(x_k)``,
* the same iteration with the cosine-module compensator folded into ``G``
  (the hybrid scheme; ``modules=0`` recovers the plain method exactly),
* a Chebyshev-accelerated variant driven by frame bounds ``(A, B)``.

``g_obs`` is the one-shot modular reconstruction of the observed samples,
which equals ``G`` applied to any dense signal consistent with them.  The
reference signal, when supplied, is used only for SNR reporting.

One operator serves any number of axes: on a lattice (an image has grids
``(grid_y, grid_x)``) ``G`` is separable and applies each 1-D stage along
every axis in turn, last axis first.  ``G`` depends only on the grids, the
interpolator and the module count; its lowpass cuts at each axis's band
edge.

Two solves return the same iterate for the same :class:`ReconConfig`:

* :func:`iterate` runs the loop on the fine grid, one pass of ``G`` per
  iteration.  It traces the SNR of every iterate against a reference, so the
  CLI experiments use it, and it is the reference for the other solve.
* :func:`spectral_iterate` runs the same loop on DFT coefficients and
  never passes the fine grid with ``G``.  On band-limited input ``G`` is
  diagonal in the DFT: sampling, interpolation and mixing are periodic with
  period ``ticks_per_sample``, so each only moves a bin onto bins
  ``n_coarse`` apart from it, and the lowpass keeps the band, which holds
  one bin of each such set.  (A band-edge bin at the coarse Nyquist
  frequency shares its set with its mirror bin.  G only outputs the part of
  the pair that is even about the edge, every iterate stays in that part,
  and there the gain is exact.)  So ``G`` scales each band bin by a real
  gain, the product of the per-axis gains, and the K-th plain or Chebyshev
  iterate is a fixed polynomial in that gain (for Chebyshev, the polynomial
  of Gröchenig, "Acceleration of the frame algorithm", IEEE Trans. Signal
  Process., 1993).  G sees a signal only through its samples, so the
  observation is G applied to the samples' trigonometric interpolant, whose
  coefficient at band bin k is ``ticks_per_sample`` times the coarse
  spectrum at k mod ``n_coarse`` (halved at the coarse Nyquist bin): the
  observation's band is that times the gain.  So the gain is the solve's
  only measurement of G, and the final inverse transform its only fine-grid
  work.  Image enlargement uses this solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .modular import _mix_axis, modular_reconstruct
from .samplers import CoarseSamples, InterpKind, _interp_axis, lattice
from .signal_core import ConfigurationError, DenseSignal, GridSpec, per_axis, snr_db
from .spectral import _gain_mask, lowpass_array

__all__ = [
    "SingularSystemError",
    "ReconOperator",
    "ChebyshevAccel",
    "ReconConfig",
    "ReconReport",
    "apply_operator",
    "iterate",
    "spectral_iterate",
    "chebyshev_lambdas",
    "fixed_point_oracle",
]

# fixed_point_oracle builds a dense matrix; keep instances small
ORACLE_MAX_FINE = 512
# a measured per-bin gain is taken as real when its imaginary part is below
# this fraction of its largest value (rounding leaves about 1e-15)
GAIN_IMAG_TOL = 1e-9


class SingularSystemError(ValueError):
    """The restricted reconstruction operator is not invertible on the passband."""


@dataclass(frozen=True)
class ReconOperator:
    """G = lowpass ∘ mix ∘ interpolate ∘ sample, on one axis or separably on several.

    ``grid`` is a lone GridSpec or one GridSpec per axis, stored as a tuple;
    the lowpass cuts at each axis's band edge.
    """

    grid: Union[GridSpec, Tuple[GridSpec, ...]]
    kind: InterpKind
    modules: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", per_axis(self.grid))
        if self.modules < 0:
            raise ConfigurationError(f"modules must be >= 0, got {self.modules}")
        min_ticks = min(g.ticks_per_sample for g in self.grid)
        if 2 * self.modules > min_ticks:
            raise ConfigurationError(
                f"{self.modules} modules need ticks_per_sample >= "
                f"{2 * self.modules} on every axis, got {min_ticks}"
            )

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        axes = range(len(self.grid) - 1, -1, -1)
        out = values[lattice(self.grid)]
        for axis in axes:
            out = _interp_axis(out, self.grid[axis], self.kind, axis)
        for axis in axes:
            out = _mix_axis(out, self.grid[axis].ticks_per_sample, self.modules, axis)
        for axis in axes:
            out = lowpass_array(out, self.grid[axis], axis)
        return out

    def observation(self, samples: CoarseSamples) -> np.ndarray:
        # the one-shot reconstruction cuts at the samples' band edges
        if samples.grid != self.grid:
            raise ConfigurationError("samples and operator must have the same grids")
        return modular_reconstruct(samples, self.kind, self.modules).values


@dataclass(frozen=True)
class ChebyshevAccel:
    """Frame bounds for the accelerated three-term recursion."""

    a: float = 1.0
    b: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.a <= self.b:
            raise ConfigurationError(
                f"frame bounds require 0 < A <= B, got A={self.a}, B={self.b}"
            )

    @property
    def rho(self) -> float:
        return (self.b - self.a) / (self.b + self.a)


@dataclass(frozen=True)
class ReconConfig:
    operator: ReconOperator
    relax: float = 1.0
    iterations: int = 1
    acceleration: Optional[ChebyshevAccel] = None

    def __post_init__(self):
        if not 0.0 < self.relax < 2.0:
            raise ConfigurationError(
                f"relaxation parameter must lie in (0, 2), got {self.relax}"
            )
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )


@dataclass
class ReconReport:
    """Outcome of one reconstruction run.

    ``snr_trace_db[j]`` is the SNR of the estimate after iteration ``j+1``;
    ``snr_initial_db`` is the SNR of the starting estimate (the simply
    filtered reconstruction), or None when no reference was supplied or the
    run was Chebyshev-accelerated.  ``non_contraction`` is set when the
    update norm grew three iterations in a row, signalling a relaxation
    parameter (or frame bounds) outside the convergent range.
    ``operator_applications`` counts the fine-grid passes of G made by the
    call, the observation included: ``iterations + 1`` for :func:`iterate`'s
    plain loop, ``iterations`` for its Chebyshev loop, and 0 for
    :func:`spectral_iterate`, which works on DFT coefficients throughout.
    """

    estimate: DenseSignal
    iterations_run: int
    operator_applications: int
    snr_initial_db: Optional[float] = None
    snr_trace_db: Optional[list] = None
    non_contraction: bool = False


def apply_operator(x: DenseSignal, op: ReconOperator) -> DenseSignal:
    """Apply G once to a dense signal."""
    return x.with_values(op.apply_values(x.values))


SnrOf = Optional[Callable[[np.ndarray], float]]
NormOf = Callable[[np.ndarray], float]


def _plain_loop(g_obs: np.ndarray, apply_g, cfg: ReconConfig, snr_of: SnrOf, norm: NormOf):
    """Relaxed fixed-point loop from ``relax * g_obs``; one G pass per iteration.

    ``norm`` measures each update as the fine-grid 2-norm of the step.
    """
    relax = cfg.relax
    xk = relax * g_obs
    init_snr = snr_of(xk) if snr_of else None
    trace = [] if snr_of else None
    update_norms = []
    for _ in range(cfg.iterations):
        step = relax * (g_obs - apply_g(xk))
        xk = xk + step
        update_norms.append(float(norm(step)))
        if snr_of:
            trace.append(snr_of(xk))
    return xk, init_snr, trace, update_norms


def _chebyshev_loop(g_obs: np.ndarray, apply_g, cfg: ReconConfig, snr_of: SnrOf, norm: NormOf):
    """Three-term recursion seeded as the frame algorithm.

    The reference state is zero and the first iterate is ``2/(A+B)`` times
    the observed reconstruction; the trace starts at that first iterate, so
    ``iterations`` counts it and G is applied ``iterations - 1`` times.
    """
    accel = cfg.acceleration
    scale = 2.0 / (accel.a + accel.b)
    x_prev = np.zeros_like(g_obs)  # algebraic seed of the three-term recursion
    x_cur = scale * g_obs
    trace = [snr_of(x_cur)] if snr_of else None
    update_norms = []
    for lam in chebyshev_lambdas(accel.a, accel.b, cfg.iterations)[1:]:
        x_next = lam * (x_cur - x_prev + scale * (g_obs - apply_g(x_cur))) + x_prev
        update_norms.append(float(norm(x_next - x_cur)))
        x_prev, x_cur = x_cur, x_next
        if snr_of:
            trace.append(snr_of(x_cur))
    return x_cur, None, trace, update_norms


def _non_contraction(update_norms: List[float]) -> bool:
    """True when the update norm grew in three consecutive iterations."""
    streak = 0
    for prev, cur in zip(update_norms, update_norms[1:]):
        streak = streak + 1 if cur > prev else 0
        if streak >= 3:
            return True
    return False


@lru_cache(maxsize=32)
def chebyshev_lambdas(a: float, b: float, count: int) -> tuple:
    """The relaxation sequence: lambda_1 = 2, lambda_n = 1 / (1 - rho^2 * lambda_{n-1} / 4).

    Depends only on the frame bounds, so it is computed once per (A, B) and
    reused across reconstructions.
    """
    accel = ChebyshevAccel(a, b)
    rho_sq = accel.rho**2
    lams = [2.0]
    for _ in range(1, max(count, 1)):
        lams.append(1.0 / (1.0 - rho_sq * lams[-1] / 4.0))
    return tuple(lams)


def iterate(
    observed: CoarseSamples,
    cfg: ReconConfig,
    reference: Optional[DenseSignal] = None,
) -> ReconReport:
    """Reconstruct a dense signal from its coarse samples, on any number of axes.

    Runs the plain relaxed loop, or the Chebyshev recursion when
    ``cfg.acceleration`` is set.  With a reference, every iterate's SNR
    against it is traced.
    """
    op = cfg.operator
    g_obs = op.observation(observed)
    snr_of = None
    if reference is not None:
        snr_of = lambda v: snr_db(reference, v)
    loop = _plain_loop if cfg.acceleration is None else _chebyshev_loop
    xk, init_snr, trace, update_norms = loop(
        g_obs, op.apply_values, cfg, snr_of, np.linalg.norm
    )
    return ReconReport(
        estimate=DenseSignal(op.grid, xk),
        iterations_run=cfg.iterations,
        operator_applications=1 + len(update_norms),  # the observation is one pass
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        non_contraction=_non_contraction(update_norms),
    )


@lru_cache(maxsize=32)
def _band_gain(op: ReconOperator) -> np.ndarray:
    """Per-bin gain of a 1-D operator on the rfft bins its lowpass passes.

    Measured once per operator, that is per (grid, kind, modules), by
    running G on the band-limited impulse (the lowpass mask as a spectrum)
    and dividing spectra.  The closed form needs a zero-phase G, so a gain
    that is not real raises ``ConfigurationError``.
    """
    n = op.grid[0].n_fine
    mask = _gain_mask(n, op.grid[0].band_edge)
    band = mask > 0
    response = np.fft.rfft(op.apply_values(np.fft.irfft(mask, n)))
    gain = response[band] / mask[band]
    if np.max(np.abs(gain.imag)) > GAIN_IMAG_TOL * np.max(np.abs(gain.real)):
        raise ConfigurationError(
            "the operator's per-bin gain is not real (it shifts phase), "
            "so it has no per-bin closed form"
        )
    gain = gain.real
    gain.setflags(write=False)
    return gain


def _axis_band(op: ReconOperator, last: bool):
    """Band bins of one axis of ``rfftn``'s output, with the observation's weight and G's gain.

    The last axis holds rfft bins 0..B; any other axis holds full-FFT bins,
    so its band is 0..B and n-B..n-1, folded onto rfft bin |k| for the gain.
    The weight is ``ticks_per_sample`` times the gain, halved at the coarse
    Nyquist bin ``2|k| == n_coarse`` (only at ``rate_multiple`` 1 with even
    ``n_coarse``): the observation's coefficient at fine bin k is the weight
    times the coarse spectrum at bin k mod ``n_coarse``.
    """
    gain = _band_gain(op)
    grid = op.grid[0]
    fold = np.arange(gain.size)
    index = fold
    if not last:
        mirror = np.arange(gain.size - 1, 0, -1)
        fold = np.concatenate([fold, mirror])
        index = np.concatenate([index, grid.n_fine - mirror])
    weight = grid.ticks_per_sample * gain[fold]
    weight[2 * fold == grid.n_coarse] *= 0.5
    return index, weight, gain[fold]


def _outer(vectors) -> np.ndarray:
    """The outer product of per-axis vectors, one array axis each."""
    return reduce(np.multiply, np.ix_(*vectors))


def _band_observation(op: ReconOperator, values: np.ndarray):
    """The band of ``rfftn(op.observation(samples))`` from the samples' values alone.

    Returns the band's index into the fine grid's ``rfftn`` output, the
    observation's coefficients there and G's per-bin gain there.  The
    coefficients are the gain times the band of the samples' trigonometric
    interpolant, read from one ``rfftn`` of the coarse values: a fine bin k
    reads coarse bin k mod ``n_coarse`` on each axis (on a non-last axis,
    fine bin n-j reads coarse bin ``n_coarse``-j).
    """
    ndim = len(op.grid)
    index, weight, gain = zip(
        *[_axis_band(replace(op, grid=g), axis == ndim - 1) for axis, g in enumerate(op.grid)]
    )
    coarse = np.fft.rfftn(values, axes=tuple(range(ndim)))
    g_obs = coarse[np.ix_(*[k % g.n_coarse for k, g in zip(index, op.grid)])]
    return np.ix_(*index), g_obs * _outer(weight), _outer(gain)


def spectral_iterate(observed: CoarseSamples, cfg: ReconConfig) -> ReconReport:
    """The iterate :func:`iterate` returns, computed per DFT bin; no SNR trace.

    Runs the plain or Chebyshev loop on the observation's band coefficients
    (:func:`_band_observation`) with G as the per-bin gain, measured once
    per axis and cached.  The only fine-grid transform is the one ``irfftn``
    that returns the estimate.
    """
    op = cfg.operator
    if observed.grid != op.grid:
        raise ConfigurationError("samples and operator must have the same grids")
    shape = tuple([g.n_fine for g in op.grid])
    band, g_obs, gain = _band_observation(op, observed.values)

    def norm(coeffs):
        # Parseval on rfftn's half spectrum: each last-axis bin but 0 stands
        # for its mirror too (the band never reaches Nyquist: band_edge <= 1/4)
        total = 2.0 * np.vdot(coeffs, coeffs).real
        total -= np.vdot(coeffs[..., 0], coeffs[..., 0]).real
        return np.sqrt(total / np.prod(shape))

    loop = _plain_loop if cfg.acceleration is None else _chebyshev_loop
    coeffs, _, _, update_norms = loop(g_obs, lambda v: gain * v, cfg, None, norm)
    # allocated only now, so the loop's peak memory is the band alone
    spectrum = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    spectrum[band] = coeffs
    values = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))
    return ReconReport(
        estimate=DenseSignal(op.grid, values),
        iterations_run=cfg.iterations,
        operator_applications=0,
        non_contraction=_non_contraction(update_norms),
    )


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
