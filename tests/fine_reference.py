"""The fine-grid reference for :func:`interpcomp.iterate` and its per-bin gain.

``iterate`` runs its loop per DFT bin, with G as a closed-form per-bin gain
and never runs G itself.  ``fine_iterate`` runs the same two loop functions
on the fine grid instead, with ``op.apply_values`` as G and
``op.observation(samples)`` as the observation: one pass of G per
iteration, and every traced SNR taken from the iterate itself.  It has
``iterate``'s signature and report, so a test can swap it in for the solve.
``measured_gain`` measures the per-bin gain the closed form must match, by
running G on a band-limited impulse.
"""

from functools import reduce

import numpy as np

from interpcomp import DenseSignal, ReconOperator, ReconReport, snr_db
from interpcomp.solver import _chebyshev_loop, _non_contraction, _plain_loop
from interpcomp.spectral import _gain_mask


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


def fine_iterate(observed, cfg, reference=None):
    op = cfg.operator
    snr_of = None
    if reference is not None:
        snr_of = lambda v: snr_db(reference, v)
    loop = _plain_loop if cfg.acceleration is None else _chebyshev_loop
    xk, init_snr, trace = loop(op.observation(observed), op.apply_values, cfg, snr_of)
    # the gain is even in the bin, so the rfft bins of each axis cover the band
    gain = reduce(np.multiply.outer, [measured_gain(g, op.kind, op.modules).real for g in op.grid])
    passes = cfg.iterations if cfg.acceleration is None else cfg.iterations - 1
    return ReconReport(
        estimate=DenseSignal(op.grid, xk),
        iterations_run=cfg.iterations,
        operator_applications=1 + passes,  # the observation is one pass
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        non_contraction=_non_contraction(cfg, gain),
    )
