"""Laguerre calculus on step-two nilpotent Lie groups.

Spectral normal forms of the parametrized skew forms, the exponential
Laguerre basis and its twisted-convolution algebra, Laguerre tensors,
the sub-Laplacian's fundamental solution, and the Szego kernel on the
7-dimensional quaternionic Heisenberg group.
"""

from .errors import (
    AmbiguousMatchingError,
    DegenerateTauError,
    DimensionError,
    GridError,
    QuadratureError,
    SkewSymmetryError,
    SteptwoError,
)
from .fields import (
    Axis,
    SampledField,
    abel_approx_identity,
    abel_multiplier,
    group_convolve,
    group_convolve_fourier,
    partial_fourier,
    symmetric_axis,
    twisted_convolve,
)
from .groups import (
    GroupPoint,
    StepTwoGroup,
    group_from_dict,
    heisenberg,
    load_group,
    make_group,
    preset,
    quaternionic_heisenberg,
)
from .kernels import (
    QuadResult,
    SzegoData,
    fs_integrand,
    fundamental_solution,
    horizontal_laplacian_residual,
    szego_data,
    szego_kernel,
)
from .laguerre import (
    MultiIndexPair,
    basis_address,
    exp_laguerre,
    exp_laguerre_2d,
    exp_laguerre_l2_norm_sq,
    laguerre_l,
    laguerre_poly,
    raw_index,
    shift_apply,
)
from .spectral import (
    ScanReport,
    TauFrame,
    continue_frame,
    degeneracy_scan,
    normalize,
)
from .tensors import (
    LaguerreTensor,
    apply_diagonal_symbol,
    identity_tensor,
    indicator_tensor,
    laguerre_coefficients,
    sublap_symbol,
    synthesize,
    tensor_multiply,
    twisted_product,
)

__version__ = "0.1.0"
