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
edge.  :func:`iterate` is the one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .modular import _mix_axis, modular_reconstruct
from .samplers import CoarseSamples, InterpKind, _interp_axis, lattice
from .signal_core import ConfigurationError, DenseSignal, GridSpec, per_axis, snr_db
from .spectral import lowpass_array

__all__ = [
    "SingularSystemError",
    "ReconOperator",
    "ChebyshevAccel",
    "ReconConfig",
    "ReconReport",
    "apply_operator",
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


def _plain_loop(g_obs: np.ndarray, apply_g, cfg: ReconConfig, snr_of: SnrOf):
    """Relaxed fixed-point loop from ``relax * g_obs``; one G pass per iteration."""
    relax = cfg.relax
    xk = relax * g_obs
    init_snr = snr_of(xk) if snr_of else None
    trace = [] if snr_of else None
    update_norms = []
    for _ in range(cfg.iterations):
        step = relax * (g_obs - apply_g(xk))
        xk = xk + step
        update_norms.append(float(np.linalg.norm(step)))
        if snr_of:
            trace.append(snr_of(xk))
    return xk, init_snr, trace, update_norms


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
    update_norms = []
    for lam in chebyshev_lambdas(accel.a, accel.b, cfg.iterations)[1:]:
        x_next = lam * (x_cur - x_prev + scale * (g_obs - apply_g(x_cur))) + x_prev
        update_norms.append(float(np.linalg.norm(x_next - x_cur)))
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
    xk, init_snr, trace, update_norms = loop(g_obs, op.apply_values, cfg, snr_of)
    return ReconReport(
        estimate=DenseSignal(op.grid, xk),
        iterations_run=cfg.iterations,
        operator_applications=1 + len(update_norms),  # the observation is one pass
        snr_initial_db=init_snr,
        snr_trace_db=trace,
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
