"""The fine-grid reference for :func:`interpcomp.iterate` and its per-bin gain.

``iterate`` computes each iterate per DFT bin in closed form, from a
per-bin gain that sums the interpolation kernel's frequency response, and
never runs G itself.  ``fine_solve`` runs the explicit plain and
Chebyshev loops on the fine grid instead, with ``op.apply_values`` as G and
``op.observation(samples)`` as the observation: one pass of G per
iteration, and every traced SNR taken from the iterate itself.  The loops,
the Chebyshev relaxation sequence (``chebyshev_lambdas``) and the
divergence flag are this module's own and share no code with the solve.
``fine_solve`` has ``iterate``'s signature and reports, so a test can
swap it in for the solve.  ``fine_cosine_solve`` has the signature and
result of the image solve, ``solver._cosine_solve``: ``on_extension`` builds
the mirror extension, runs a solve on it and cuts the image's span from it.
``fine_traces`` has the signature and result of the CLI's
scorer, ``solver._traces``, as a plain loop of ``fine_solve`` over
configurations and trials.  ``measured_gain`` measures the per-bin gain the
solve must match, by running G on a band-limited impulse.  G interpolates
with the same kernel taps as the solve's gain reads, so a wrong tap would
pass that check: ``closed_form_gain`` gives the gain from the two kernels'
closed-form transforms instead, written out apart from the tap table.
``cosine_factor`` is the largest error factor that the image solve applies,
from ``closed_form_gain``.  ``lowpass`` is G's last stage on its own, for
tests that filter a signal without sampling it.
"""

from functools import reduce

import numpy as np

from interpcomp import DenseSignal, InterpKind, ReconOperator, ReconReport, snr_db
from interpcomp.samplers import CoarseSamples
from interpcomp.solver import _gain_mask


def measured_gain(grid, kind, modules):
    """G's gain on the rfft bins its lowpass passes, on one axis.

    G is run on the band-limited impulse (the lowpass mask as a spectrum)
    and the spectra are divided.
    """
    mask = _gain_mask(grid)
    band = mask > 0
    impulse = np.fft.irfft(mask, grid.n_fine)
    response = np.fft.rfft(ReconOperator(grid, kind, modules).apply_values(impulse))
    return response[band] / mask[band]


def closed_form_gain(grid, kind, modules):
    """G's gain on the rfft bins its lowpass passes, on one axis, from the kernels' closed forms.

    At bin k, with f = (k + m*n_coarse)/n_fine, the gain before the lowpass
    sums over |m| <= modules the kernel's transform over R: ``sin(pi f R)
    cot(pi f) / R`` for the centred hold with half-weight ends and
    ``(sin(pi f R) / (R sin(pi f)))**2`` for the triangle, each 1 at f = 0.
    The lowpass scales bin k by its mask, except at the coarse Nyquist bin
    2k = n_coarse, whose mirror bin undoes the mask's halving.
    """
    mask = _gain_mask(grid)
    k = np.flatnonzero(mask)
    r = grid.ticks_per_sample
    f = (k[:, np.newaxis] + grid.n_coarse * np.arange(-modules, modules + 1)) / grid.n_fine
    hold = kind is InterpKind.SAMPLE_AND_HOLD
    den = r * (np.tan(np.pi * f) if hold else np.sin(np.pi * f))
    term = np.divide(np.sin(np.pi * f * r), den, out=np.ones_like(f), where=f != 0)
    raw = np.sum(term if hold else term * term, axis=1)
    return np.where(2 * k == grid.n_coarse, raw, mask[k] * raw)


def lowpass(x):
    """The ideal lowpass of a dense signal at each axis's band edge, last axis first.

    The same rfft, mask and irfft per axis as G's last stage, on the mask G
    uses.
    """
    out = x.values
    for axis in reversed(range(out.ndim)):
        n = out.shape[axis]
        mask = _gain_mask(x.grid[axis])
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


def fine_traces(coarse, configs, references):
    """``solver._traces`` on the fine grid: one :func:`fine_solve` per configuration and trial.

    ``coarse`` and ``references`` are stacks, one row per trial, as ``_traces`` takes them.
    """
    out = []
    for cfg in configs:
        rows = zip(coarse, references, strict=True)
        reps = [fine_solve(CoarseSamples(cfg.operator.grid, s), cfg, x) for s, x in rows]
        out.append(([r.snr_initial_db for r in reps], [r.snr_trace_db for r in reps]))
    return out


def on_extension(solve, values, cfg):
    """``solve`` of the even mirror extension of ``values``, cut to their span."""
    ext = np.pad(values, [(0, n) for n in values.shape], mode="symmetric")
    grids = cfg.operator.grid
    estimate = solve(CoarseSamples(grids, ext), cfg).estimate.values
    return estimate[tuple(slice(n * g.ticks_per_sample) for n, g in zip(values.shape, grids))]


def fine_cosine_solve(values, cfg):
    """``solver._cosine_solve`` on the fine grid."""
    return on_extension(fine_solve, values, cfg)


def fine_solve(observed, cfg, reference=None):
    """``iterate`` on the fine grid."""
    op = cfg.operator
    snr_of = None
    if reference is not None:
        snr_of = lambda v: snr_db(reference, v)
    loop = plain_loop if cfg.acceleration is None else chebyshev_loop
    xk, init_snr, trace = loop(op.observation(observed), op.apply_values, cfg, snr_of)
    # the gain is even in the bin, so the rfft bins of each axis cover the band
    gain = reduce(np.multiply.outer, [measured_gain(g, op.kind, op.modules).real for g in op.grid])
    return ReconReport(
        estimate=DenseSignal(op.grid, xk),
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        # a bin contracts in either loop exactly when |1 - step*gain| < 1
        non_contraction=bool(np.max(np.abs(1.0 - _step(cfg) * gain)) >= 1.0),
    )


def _step(cfg):
    """The relaxation a solve of ``cfg`` steps by: ``relax``, or ``2/(A+B)`` under Chebyshev."""
    accel = cfg.acceleration
    return cfg.relax if accel is None else 2.0 / (accel.a + accel.b)


def cosine_factor(cfg):
    """max |1 - s*gain| over the bins 0..n-1 of each of ``cfg``'s 2n-sample extension grids.

    These are the bins the image solve, ``solver._cosine_solve``, applies:
    the extension's DFT is 0 at its coarse-Nyquist bin n, which it leaves
    out.  The gain is ``closed_form_gain``'s.
    """
    op = cfg.operator
    gains = [closed_form_gain(g, op.kind, op.modules)[: g.n_coarse // 2] for g in op.grid]
    return float(np.max(np.abs(1.0 - _step(cfg) * reduce(np.multiply.outer, gains))))
