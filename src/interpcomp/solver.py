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

:func:`iterate` runs the loop on DFT coefficients.  On band-limited input
``G`` is diagonal in the DFT: sampling, interpolation and mixing are
periodic with period ``ticks_per_sample``, so each only moves a bin onto
bins ``n_coarse`` apart from it, and the lowpass keeps the band, which holds
one bin of each such set.  (A band-edge bin at the coarse Nyquist frequency
shares its set with its mirror bin.  G only outputs the part of the pair
that is even about the edge, every iterate stays in that part, and there the
gain is exact.)  So ``G`` scales each band bin by a real gain, the product
of the per-axis gains, and the K-th plain or Chebyshev iterate is a fixed
polynomial in that gain (for Chebyshev, the polynomial of Gröchenig,
"Acceleration of the frame algorithm", IEEE Trans. Signal Process., 1993).
G sees a signal only through its samples, so the observation is G applied
to the samples' trigonometric interpolant, whose coefficient at band bin k
is ``ticks_per_sample`` times the coarse spectrum at k mod ``n_coarse``
(halved at the coarse Nyquist bin): the observation's band is that times
the gain.  The gain itself has a closed form (:func:`_axis_band`), a sum of
the interpolator kernel's DFT over the mixer's harmonics, so the solve never
runs G: inverse transforms of the band, for the estimate and for each
traced SNR, are its only fine-grid work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .modular import cosine_mix
from .samplers import CoarseSamples, InterpKind, interpolate, lattice, sample
from .signal_core import ConfigurationError, DenseSignal, GridSpec, per_axis, snr_db
from .spectral import _gain_mask, lowpass

__all__ = [
    "SingularSystemError",
    "ReconOperator",
    "ChebyshevAccel",
    "ReconConfig",
    "ReconReport",
    "iterate",
    "chebyshev_lambdas",
    "fixed_point_oracle",
]

# fixed_point_oracle builds a dense matrix; keep instances small
ORACLE_MAX_FINE = 512


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
        signal = sample(DenseSignal(self.grid, values))
        return lowpass(cosine_mix(interpolate(signal, self.kind), self.modules)).values

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
    run was Chebyshev-accelerated.  ``non_contraction`` is the exact per-bin
    criterion: it is set when some band bin does not contract, that is when
    ``max |1 - s*G̃| >= 1`` over the band, with ``s`` the relaxation
    parameter, or ``2/(A+B)`` under Chebyshev acceleration.  It depends on
    the configuration alone, not on the samples.
    ``operator_applications`` counts the fine-grid passes of G made by the
    call; it is 0 for every call, since :func:`iterate` works on DFT
    coefficients throughout, and is kept for the benchmark's tracer.
    """

    estimate: DenseSignal
    iterations_run: int
    operator_applications: int
    snr_initial_db: Optional[float] = None
    snr_trace_db: Optional[list] = None
    non_contraction: bool = False


SnrOf = Optional[Callable[[np.ndarray], float]]


def _plain_loop(g_obs: np.ndarray, apply_g, cfg: ReconConfig, snr_of: SnrOf):
    """Relaxed fixed-point loop from ``relax * g_obs``; one G pass per iteration."""
    relax = cfg.relax
    xk = relax * g_obs
    init_snr = snr_of(xk) if snr_of else None
    trace = [] if snr_of else None
    for _ in range(cfg.iterations):
        xk = xk + relax * (g_obs - apply_g(xk))
        if snr_of:
            trace.append(snr_of(xk))
    return xk, init_snr, trace


def _chebyshev_loop(g_obs: np.ndarray, apply_g, cfg: ReconConfig, snr_of: SnrOf):
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
    for lam in chebyshev_lambdas(accel.a, accel.b, cfg.iterations)[1:]:
        x_next = lam * (x_cur - x_prev + scale * (g_obs - apply_g(x_cur))) + x_prev
        x_prev, x_cur = x_cur, x_next
        if snr_of:
            trace.append(snr_of(x_cur))
    return x_cur, None, trace


def _non_contraction(cfg: ReconConfig, gain: np.ndarray) -> bool:
    """True when some bin of ``gain`` does not contract: ``max |1 - s*gain| >= 1``.

    ``s`` is ``relax`` for the plain loop; the Chebyshev recursion converges
    on a bin exactly when ``|1 - 2*gain/(A+B)| < 1``, so there it is ``2/(A+B)``.
    """
    accel = cfg.acceleration
    step = cfg.relax if accel is None else 2.0 / (accel.a + accel.b)
    return bool(np.max(np.abs(1.0 - step * gain)) >= 1.0)


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


@lru_cache(maxsize=64)
def _axis_band(grid: GridSpec, kind: InterpKind, modules: int, last: bool):
    """Band bins of one axis of ``rfftn``'s output, with the observation's weight and G's gain.

    The last axis holds rfft bins 0..B; any other axis holds full-FFT bins,
    so its band is the signed bins 0..B and -B..-1, the latter at n+k.  At
    signed bin k, with f = (k + m*n_coarse)/n_fine, G's gain before the
    lowpass is ``raw(k) = sum over |m| <= modules of kernel(f)``: sampling
    folds bins ``n_coarse`` apart together, the interpolator scales each by
    its kernel's DFT, and the mixer's m-th harmonic shifts bin k + m*n_coarse
    back onto k.  The kernel term is ``sin(pi f R) cot(pi f) / R`` for the
    centred hold with half-weight ends and ``(sin(pi f R) / (R sin(pi f)))**2``
    for the triangle.  The observation's weight is ``R * mask(|k|) * raw(k)``,
    and the gain ``mask(|k|) * raw(k)``, except at the coarse Nyquist bin
    ``2|k| == n_coarse`` (only at ``rate_multiple`` 1 with even ``n_coarse``),
    where the mirror bin undoes the mask's halving and the gain is raw(k).
    """
    n, r = grid.n_fine, grid.ticks_per_sample
    mask = _gain_mask(n, grid.band_edge)
    top = np.count_nonzero(mask) - 1
    k = np.arange(top + 1) if last else np.concatenate([np.arange(top + 1), np.arange(-top, 0)])
    f = (k[:, np.newaxis] + grid.n_coarse * np.arange(-modules, modules + 1)) / n
    hold = kind is InterpKind.SAMPLE_AND_HOLD
    den = r * (np.tan(np.pi * f) if hold else np.sin(np.pi * f))
    # every term is 1 at f = 0, the only f at which den vanishes
    term = np.divide(np.sin(np.pi * f * r), den, out=np.ones_like(f), where=f != 0)
    raw = np.sum(term if hold else term * term, axis=1)
    masked = mask[np.abs(k)] * raw
    out = k % n, r * masked, np.where(2 * np.abs(k) == grid.n_coarse, raw, masked)
    for a in out:
        a.setflags(write=False)
    return out


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
        *[_axis_band(g, op.kind, op.modules, axis == ndim - 1) for axis, g in enumerate(op.grid)]
    )
    coarse = np.fft.rfftn(values, axes=tuple(range(ndim)))
    g_obs = coarse[np.ix_(*[k % g.n_coarse for k, g in zip(index, op.grid)])]
    return np.ix_(*index), g_obs * _outer(weight), _outer(gain)


def iterate(
    observed: CoarseSamples,
    cfg: ReconConfig,
    reference: Optional[DenseSignal] = None,
) -> ReconReport:
    """Reconstruct a dense signal from its coarse samples, on any number of axes.

    Runs the plain relaxed loop, or the Chebyshev recursion when
    ``cfg.acceleration`` is set, on the observation's band coefficients
    (:func:`_band_observation`) with G as the per-bin gain, in closed form
    per axis and cached.  With a reference, every iterate's SNR against it
    is traced, at one ``irfftn`` per traced iterate; the only other
    fine-grid transform is the ``irfftn`` that returns the estimate.
    """
    op = cfg.operator
    if observed.grid != op.grid:
        raise ConfigurationError("samples and operator must have the same grids")
    shape = tuple([g.n_fine for g in op.grid])
    band, g_obs, gain = _band_observation(op, observed.values)

    def values_of(coeffs):
        # allocated per call, so an untraced loop's peak memory is the band alone
        spectrum = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
        spectrum[band] = coeffs
        return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))

    snr_of = None
    if reference is not None:
        snr_of = lambda c: snr_db(reference, values_of(c))
    loop = _plain_loop if cfg.acceleration is None else _chebyshev_loop
    coeffs, init_snr, trace = loop(g_obs, lambda v: gain * v, cfg, snr_of)
    return ReconReport(
        estimate=DenseSignal(op.grid, values_of(coeffs)),
        iterations_run=cfg.iterations,
        operator_applications=0,
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        non_contraction=_non_contraction(cfg, gain),
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
