"""The public names, the modules and each module's ``__all__`` of ``interpcomp``, pinned.

A change that adds or drops a public name or a module edits these lists,
so the diff shows it.
"""

import importlib
import pkgutil
import types

import interpcomp

PUBLIC_NAMES = [
    "ChebyshevAccel", "CoarseSamples", "ConfigurationError", "DenseSignal",
    "EnlargeConfig", "GrayImage", "GridSpec", "InterpKind", "ReconConfig", "ReconOperator",
    "ReconReport", "add_awgn", "contraction_factor", "decimate", "distortion_gain", "enlarge",
    "enlarge_dense", "gen_bandlimited", "interpolate", "iterate", "lambda_opt_minimax",
    "lambda_opt_paper", "noise_tolerance_coeff", "op_counts", "predicted_gain_db", "psnr_db",
    "read_pgm", "sample", "snr_db", "synthetic_scene", "write_pgm",
]

MODULES = ["analysis", "cli", "imagebench", "samplers", "signal_core", "solver"]

# each module's sorted ``__all__``; a module without one pins []
MODULE_ALL = {
    "analysis": [
        "contraction_factor", "distortion_gain", "lambda_opt_minimax", "lambda_opt_paper",
        "noise_tolerance_coeff", "op_counts", "predicted_gain_db",
    ],
    "cli": [],
    "imagebench": [
        "EnlargeConfig", "GrayImage", "PgmError", "decimate", "enlarge", "enlarge_dense",
        "read_pgm", "synthetic_scene", "write_pgm",
    ],
    "samplers": ["CoarseSamples", "InterpKind", "interpolate", "sample"],
    "signal_core": [
        "ConfigurationError", "DenseSignal", "GridSpec", "add_awgn", "gen_bandlimited",
        "psnr_db", "snr_db",
    ],
    "solver": [
        "ChebyshevAccel", "ReconConfig", "ReconOperator", "ReconReport", "SingularSystemError",
        "fixed_point_oracle", "iterate",
    ],
}


def test_public_names_pinned():
    names = sorted(
        name for name, value in vars(interpcomp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_modules_pinned():
    assert sorted(m.name for m in pkgutil.iter_modules(interpcomp.__path__)) == MODULES


def test_module_all_pinned():
    assert sorted(MODULE_ALL) == MODULES
    for name in MODULES:
        module = importlib.import_module(f"interpcomp.{name}")
        assert sorted(getattr(module, "__all__", [])) == MODULE_ALL[name], name
