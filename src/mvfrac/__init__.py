"""Matrix-argument special functions and fractional integral operators.

Exact pieces: multivariate gamma and beta functions, generalized Pochhammer
coefficients, zonal polynomials, hypergeometric series of matrix argument,
and closed forms for left-sided fractional integrals of determinant powers
and zonal polynomials.  Stochastic pieces: seeded matrix samplers and
Monte Carlo cross-checks for every closed form.
"""

from .errors import (
    DegenerateInputError,
    DimensionError,
    MvfracError,
    NonConvergenceError,
    ParameterDomainError,
    ResourceLimitError,
)
from .fracops import (
    DetPowerOperand,
    FracOrder,
    FracValue,
    SaigoParams,
    frac_integral_numeric,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    saigo_power_closed,
)
from .gammacalc import (
    gen_pochhammer,
    log_gamma,
    log_matrix_beta,
    log_matrix_gamma,
    log_matrix_gamma_partition,
    partitions_of,
    pathway_factor,
    signed_log_gen_pochhammer,
)
from .hyperseries import (
    HyperParams,
    SeriesResult,
    Truncation,
    gauss_2f1_rect,
    hyper_pfq,
    hyper_pfq_at_identity,
    pathway_det_limit,
)
from .matsample import (
    McEstimate,
    mc_integrate_unit_cone,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_type1_beta,
    sample_uniform_spd_unit,
)
from .rng import derive_key, gamma_variates, normals, uniforms
from .spdcore import (
    RectConfig,
    SpdMatrix,
    rect_transform,
    stiefel_constant,
)
from .verify import SUITES, run_suite, verify_sum_density
from .zonal import (
    ZonalTable,
    build_zonal_table,
    fetch_table,
    zonal_at_identity,
    zonal_eval,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "DetPowerOperand",
    "DimensionError",
    "FracOrder",
    "FracValue",
    "HyperParams",
    "McEstimate",
    "MvfracError",
    "NonConvergenceError",
    "ParameterDomainError",
    "RectConfig",
    "ResourceLimitError",
    "SUITES",
    "SaigoParams",
    "SeriesResult",
    "SpdMatrix",
    "Truncation",
    "ZonalTable",
    "build_zonal_table",
    "derive_key",
    "fetch_table",
    "frac_integral_numeric",
    "frac_integral_power_closed",
    "frac_integral_zonal_closed",
    "gamma_variates",
    "gauss_2f1_rect",
    "gen_pochhammer",
    "hyper_pfq",
    "hyper_pfq_at_identity",
    "log_gamma",
    "log_matrix_beta",
    "log_matrix_gamma",
    "log_matrix_gamma_partition",
    "mc_integrate_unit_cone",
    "normals",
    "partitions_of",
    "pathway_det_limit",
    "pathway_factor",
    "rect_transform",
    "run_suite",
    "saigo_power_closed",
    "sample_matrix_gamma",
    "sample_rect_exponential",
    "sample_type1_beta",
    "sample_uniform_spd_unit",
    "stiefel_constant",
    "uniforms",
    "verify_sum_density",
    "zonal_at_identity",
    "zonal_eval",
]
