"""The fine-grid reference for :func:`interpcomp.iterate`.

``iterate`` runs its loop per DFT bin, with G as the measured per-bin gain.
This runs the same two loop functions on the fine grid instead, with
``op.apply_values`` as G and ``op.observation(samples)`` as the
observation: one pass of G per iteration, and every traced SNR taken from
the iterate itself.  It has ``iterate``'s signature and report, so a test
can swap it in for the solve.
"""

import numpy as np

from interpcomp import DenseSignal, ReconReport, snr_db
from interpcomp.solver import _chebyshev_loop, _non_contraction, _plain_loop


def fine_iterate(observed, cfg, reference=None):
    op = cfg.operator
    snr_of = None
    if reference is not None:
        snr_of = lambda v: snr_db(reference, v)
    loop = _plain_loop if cfg.acceleration is None else _chebyshev_loop
    xk, init_snr, trace, update_norms = loop(
        op.observation(observed), op.apply_values, cfg, snr_of, np.linalg.norm
    )
    return ReconReport(
        estimate=DenseSignal(op.grid, xk),
        iterations_run=cfg.iterations,
        operator_applications=1 + len(update_norms),  # the observation is one pass
        snr_initial_db=init_snr,
        snr_trace_db=trace,
        non_contraction=_non_contraction(update_norms),
    )
