"""The fine-grid reference for :func:`interpcomp.iterate` and its per-bin gain.

``iterate`` computes each iterate per DFT bin in closed form, from a
closed-form per-bin gain, and never runs G itself.  ``fine_iterate`` runs
the explicit plain and Chebyshev loops on the fine grid instead, with
``op.apply_values`` as G and ``op.observation(samples)`` as the
observation: one pass of G per iteration, and every traced SNR taken from
the iterate itself.  The loops, the Chebyshev relaxation sequence
(``chebyshev_lambdas``) and the divergence flag are this module's own and
share no code with the solve.  ``fine_iterate`` has ``iterate``'s signature
and reports, so a test can swap it in for the solve; it runs the whole grid
and then cuts a requested crop from it, and it solves a list of samples as
a plain loop of single solves (``fine_solve``).  ``measured_gain`` measures
the per-bin gain the closed form must match, by running G on a band-limited
impulse.  ``lowpass`` is G's last stage on its own, for tests that filter
a signal without sampling it.
"""

from functools import reduce

import numpy as np

from interpcomp import CoarseSamples, DenseSignal, ReconOperator, ReconReport, snr_db
from interpcomp.solver import _gain_mask


def measured_gain(grid, kind, modules):
    """G's gain on the rfft bins its lowpass passes, on one axis.

    G is run on the band-limited impulse (the lowpass mask as a spectrum)
    and the spectra are divided.
    """
    mask = _gain_mask(grid.n_fine, grid.band_edge)
    band = mask > 0
    impulse = np.fft.irfft(mask, grid.n_fine)
    response = np.fft.rfft(ReconOperator(grid, kind, modules).apply_values(impulse))
    return response[band] / mask[band]


def lowpass(x):
    """The ideal lowpass of a dense signal at each axis's band edge, last axis first.

    The same rfft, mask and irfft per axis as G's last stage, on the mask G
    uses.
    """
    out = x.values
    for axis in reversed(range(out.ndim)):
        n = out.shape[axis]
        mask = _gain_mask(n, x.grid[axis].band_edge)
        shape = [1] * out.ndim
        shape[axis] = mask.size
        out = np.fft.irfft(np.fft.rfft(out, axis=axis) * mask.reshape(shape), n=n, axis=axis)
    return x.with_values(out)


def chebyshev_lambdas(a, b, count):
    """Gröchenig's relaxation sequence: lambda_1 = 2, lambda_n = 1 / (1 - rho^2 * lambda_{n-1} / 4).

    rho = (B - A) / (B + A) for frame bounds A and B.
    """
    rho_sq = ((b - a) / (b + a)) ** 2
    lams = [2.0]
    while len(lams) < count:
        lams.append(1.0 / (1.0 - rho_sq * lams[-1] / 4.0))
    return lams


def plain_loop(g_obs, apply_g, cfg, snr_of):
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


def chebyshev_loop(g_obs, apply_g, cfg, snr_of):
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


def fine_iterate(observed, cfg, reference=None, crop=None):
    """``iterate`` on the fine grid; a list of samples is solved one at a time."""
    if isinstance(observed, CoarseSamples):
        return fine_solve(observed, cfg, reference, crop)
    references = [None] * len(observed) if reference is None else reference
    return [fine_solve(s, cfg, r, crop) for s, r in zip(observed, references, strict=True)]


def fine_solve(observed, cfg, reference=None, crop=None):
    op = cfg.operator
    snr_of = None
    if reference is not None:
        snr_of = lambda v: snr_db(reference, v)
    loop = plain_loop if cfg.acceleration is None else chebyshev_loop
    xk, init_snr, trace = loop(op.observation(observed), op.apply_values, cfg, snr_of)
    # the gain is even in the bin, so the rfft bins of each axis cover the band
    gain = reduce(np.multiply.outer, [measured_gain(g, op.kind, op.modules).real for g in op.grid])
    accel = cfg.acceleration
    step = cfg.relax if accel is None else 2.0 / (accel.a + accel.b)
    passes = cfg.iterations if accel is None else cfg.iterations - 1
    estimate = DenseSignal(op.grid, xk)
    return ReconReport(
        estimate=estimate if crop is None else estimate.values[tuple(slice(n) for n in crop)],
        operator_applications=1 + passes,  # the observation is one pass
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        # a bin contracts in either loop exactly when |1 - step*gain| < 1
        non_contraction=bool(np.max(np.abs(1.0 - step * gain)) >= 1.0),
    )
