"""Signal reconstruction that compensates interpolation distortion.

Subpackages cover the sampling/interpolation operators, ideal lowpass
filtering, the cosine-module compensator, the iterative and hybrid
reconstruction solve with Chebyshev acceleration, closed-form convergence
and noise analysis, and a grayscale image enlargement benchmark.

Signals, samples and operators take one :class:`GridSpec` per axis: a lone
GridSpec for 1-D, or a tuple such as ``(grid_y, grid_x)`` for an image.  The
multi-axis operators are the 1-D ones applied along each axis in turn.  The
lowpass always cuts at each axis's band edge, so the reconstruction operator
is fixed by the grids, the interpolator and the module count.  ``iterate``
is the one reconstruction solve: it runs the loop per DFT bin, from the
operator's per-bin gain and the band of the samples' trigonometric
interpolant, and its only fine-grid work is an inverse FFT for the estimate
and for each traced SNR.
"""

from .signal_core import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    UsageError,
    add_awgn,
    gen_bandlimited,
    psnr_db,
    snr_db,
)
from .samplers import CoarseSamples, InterpKind, interpolate, sample
from .spectral import lowpass
from .modular import cosine_mix
from .solver import (
    ChebyshevAccel,
    ReconConfig,
    ReconOperator,
    ReconReport,
    SingularSystemError,
    chebyshev_lambdas,
    fixed_point_oracle,
    iterate,
)
from .analysis import (
    AnalysisResult,
    contraction_factor,
    distortion_gain,
    lambda_opt_minimax,
    lambda_opt_paper,
    noise_tolerance_coeff,
    op_counts,
    op_counts_2d,
    predicted_gain_db,
)
from .imagebench import (
    EnlargeConfig,
    GrayImage,
    decimate,
    enlarge,
    enlarge_dense,
    psnr_benchmark,
    read_pgm,
    synthetic_scene,
    write_pgm,
)

__version__ = "0.1.0"
