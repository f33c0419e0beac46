"""Every count of the method (grid sizes, modules, iterations, factors) must be an integer.

One rule checks them all: a float, even an integral one such as 4.0, raises
ConfigurationError naming the parameter, and a numpy integer works as an int.
"""

import argparse

import numpy as np
import pytest

from interpcomp import (
    ConfigurationError,
    EnlargeConfig,
    GrayImage,
    GridSpec,
    InterpKind,
    ReconConfig,
    ReconOperator,
    decimate,
    distortion_gain,
    lambda_opt_minimax,
    op_counts,
)
from interpcomp import cli

SH = InterpKind.SAMPLE_AND_HOLD


def trial_configs(trials=1, seed=0):
    """The CLI's solves on the default 1-D trial grid, for these ``--trials`` and ``--seed``."""
    args = argparse.Namespace(
        trials=trials, seed=seed, dims=1, n_coarse=None, ticks=None, methods="iterative:1"
    )
    return cli._configs(args, SH, [(1.0, 1)])


# (name in the error, a call that takes the count, an integer value it accepts)
SITES = [
    pytest.param("n_coarse", lambda v: GridSpec(v, 8), 32, id="GridSpec.n_coarse"),
    pytest.param("ticks_per_sample", lambda v: GridSpec(32, v), 8, id="GridSpec.ticks"),
    pytest.param("rate_multiple", lambda v: GridSpec(32, 8, v), 2, id="GridSpec.rate_multiple"),
    pytest.param(
        "modules", lambda v: ReconOperator(GridSpec(32, 8), SH, v), 1, id="ReconOperator.modules"
    ),
    pytest.param(
        "iterations", lambda v: ReconConfig(ReconOperator(GridSpec(32, 8), SH), iterations=v), 2,
        id="ReconConfig.iterations",
    ),
    pytest.param(
        "modules", lambda v: distortion_gain(SH, v, 0.25), 1, id="distortion_gain.modules"
    ),
    pytest.param(
        "rate_multiple", lambda v: lambda_opt_minimax(SH, 0, v), 2, id="band_gain.rate_multiple"
    ),
    pytest.param("iterations", lambda v: op_counts(v, 8, False), 2, id="op_counts.iterations"),
    pytest.param("fft_block", lambda v: op_counts(2, v, False), 8, id="op_counts.fft_block"),
    pytest.param(
        "factor", lambda v: decimate(GrayImage(np.zeros((8, 8))), v).pixels.tolist(), 2,
        id="decimate",
    ),
    pytest.param("factor", lambda v: EnlargeConfig(factor=v), 4, id="EnlargeConfig.factor"),
    pytest.param("modules", lambda v: EnlargeConfig(modules=v), 1, id="EnlargeConfig.modules"),
    pytest.param(
        "iterations", lambda v: EnlargeConfig(method="iterative", iterations=v), 2,
        id="EnlargeConfig.iterations",
    ),
    pytest.param("--trials", lambda v: trial_configs(trials=v), 1, id="cli.trials"),
    pytest.param("--seed", lambda v: trial_configs(seed=v), 0, id="cli.seed"),
]


@pytest.mark.parametrize("name,call,good", SITES)
class TestCounts:
    @pytest.mark.parametrize("offset", [0.0, 0.5], ids=["integral", "fraction"])
    def test_float_rejected(self, name, call, good, offset):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            call(good + offset)

    def test_numpy_integer_accepted(self, name, call, good):
        assert call(np.int64(good)) == call(good)

    def test_bool_rejected(self, name, call, good):
        # bool is an int subclass; True must not pass for a count of one
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got True$"):
            call(True)
