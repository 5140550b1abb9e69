"""Gaussian-measure Weyl calculus: Hermite bases, Wigner densities, operator
sections, heat/anti-Wick regularizations, positivity experiments, and
stochastic extensions, all on computable finite sections of an
infinite-dimensional phase space."""

__version__ = "0.1.0"

from .basis import (
    CalcContext,
    MultiIndex,
    TruncationSet,
    bargman_eval,
    gamma_transform,
    hermite_batch,
    hermite_eval,
    laguerre_eval,
)
from .gaussian import (
    GaussianMeasure,
    QuadratureConvergenceError,
    QuadratureRule,
    c_ps,
    coordinate_stream,
    ell_norm,
    gh_rule,
    gl_panel_rule,
    integrate_tensor,
    ladder,
    mc_sample_array,
    quad_budget,
)
from .heat import (
    HeatedSymbol,
    antiwick_form,
    decomposition_residual,
    heat_apply,
    heat_convolution_eval,
    hybrid_form,
    ts_operators,
)
from .positivity import (
    FlandrinReport,
    GardingReport,
    RadialPositivity,
    flandrin_matrix,
    flandrin_reduction_check,
    flandrin_search,
    garding_bound,
    garding_verify,
    nonpos_witness,
    radial_lower_bound,
    radial_positivity_check,
)
from .quadform import (
    HermiteExpansion,
    IppResult,
    OperatorMatrix,
    Poly2,
    assemble_matrix,
    eig_hermitian,
    ipp_check,
    matrix_element,
    poly_symbol,
    quadratic_form,
    rotation_reduction,
)
from .stochproj import (
    CovarianceMatrix,
    DirectionVector,
    covariance_and_bound,
    coordinate_frame,
    cylinder_extension_check,
    exact_conv_rate,
    finite_direction,
    geometric_direction,
    mc_conv_rate,
    power_direction,
    random_frame,
    rotated_frame,
)
from .symbols import (
    PhiSpec,
    SymbolDescriptor,
    SymbolDomainError,
    SymbolSyntaxError,
    box_symbol,
    const_symbol,
    custom_symbol,
    cv_class_params,
    eval_ddot,
    gaussian_symbol,
    mixture_symbol,
    parse_symbol,
    radial_symbol,
    tensor_radial_symbol,
)
from .wigner import (
    classical_hermite,
    classical_wigner_bridge,
    classical_wigner_closed,
    classical_wigner_direct,
    overlap,
    wigner_bargman,
    wigner_closed,
    wigner_quadrature,
    wigner_tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
