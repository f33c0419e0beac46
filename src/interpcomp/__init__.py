"""Signal reconstruction that compensates interpolation distortion.

Modules cover the sampling/interpolation operators, the reconstruction
operator G (sample, interpolate, mix with the cosine modules, lowpass), the
iterative and hybrid reconstruction solve with Chebyshev acceleration,
closed-form convergence and noise analysis, and grayscale image
enlargement.

Signals, samples and operators take one :class:`GridSpec` per axis: a lone
GridSpec for 1-D, or a tuple such as ``(grid_y, grid_x)`` for an image.  The
multi-axis operators are the 1-D ones applied along each axis in turn.  The
lowpass always cuts at each axis's band edge, so the reconstruction operator
is fixed by the grids, the interpolator and the module count.  ``iterate``
is the reconstruction solve: it computes each iterate per DFT bin in
closed form, from the operator's per-bin gain and the band of the samples'
trigonometric interpolant.  Its fine-grid work is one inverse transform
for the estimate.  When it traces the SNR of every iterate, it scores each
iterate from band coefficients, after three fine transforms of the
reference, whatever the iteration count.
"""

from .signal_core import (
    ConfigurationError,
    DenseSignal,
    GridSpec,
    add_awgn,
    gen_bandlimited,
    psnr_db,
    snr_db,
)
from .samplers import CoarseSamples, InterpKind, interpolate, sample
from .solver import (
    ChebyshevAccel,
    ReconConfig,
    ReconOperator,
    ReconReport,
    SingularSystemError,
    fixed_point_oracle,
    iterate,
)
from .analysis import (
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
    read_pgm,
    synthetic_scene,
    write_pgm,
)

__version__ = "0.1.0"
