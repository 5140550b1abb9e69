"""Gaussian-measure Weyl calculus: Hermite bases, Wigner densities, operator
sections, heat/anti-Wick regularizations, positivity experiments, and
stochastic extensions, all on computable finite sections of an
infinite-dimensional phase space."""

__version__ = "0.1.0"

from .basis import (
    CalcContext,
    MultiIndex,
    TruncationSet,
    hermite_batch,
    hermite_eval,
    laguerre_eval,
)
from .gaussian import (
    QuadratureConvergenceError,
    QuadratureRule,
    c_ps,
    coordinate_stream,
    gh_rule,
    gl_panel_rule,
    integrate_tensor,
    ladder,
    quad_budget,
)
from .heat import (
    HeatedSymbol,
    antiwick_form,
    decomposition_residual,
    heat_apply,
    heat_convolution_eval,
    ts_operators,
)
from .positivity import (
    FlandrinReport,
    GardingReport,
    RadialPositivity,
    flandrin_matrix,
    flandrin_search,
    garding_bound,
    garding_verify,
    nonpos_witness,
    radial_positivity_check,
)
from .quadform import (
    HermiteExpansion,
    OperatorMatrix,
    assemble_matrix,
    eig_hermitian,
    matrix_element,
    quadratic_form,
)
from .stochproj import (
    DirectionVector,
    exact_conv_rate,
    geometric_direction,
    mc_conv_rate,
    power_direction,
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
    classical_wigner_bridge,
    wigner_closed,
    wigner_quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
