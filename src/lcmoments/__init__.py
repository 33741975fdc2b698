"""Sharp moment-comparison constants for centred log-concave random
variables, and central hyperplane sections of the regular simplex."""

from .constants import (
    ScanResult,
    branch_gap,
    find_l2_transition,
    find_p0,
    lp_l1_lower,
    lp_l2_lower,
    lp_lq_ratio,
    scan_family_extrema,
    scan_l2_ratio,
    sharp_constant,
)
from .crossings import (
    SignChangeReport,
    ThreeCrossingsResult,
    matching_order,
    nonneg_decomposition_check,
    vandermonde_coeffs,
    verify_3crossings,
)
from .errors import (
    BracketError,
    CrossingPatternError,
    DegenerateSectionError,
    DomainError,
    NumericalError,
    QuadratureError,
)
from .expfamily import (
    ComparisonCheck,
    LogConcaveTestDensity,
    TwoSidedExpParams,
    abs_moment,
    catalogue,
    centred_gaussian,
    centred_uniform,
    density_abs_ebar,
    density_xab,
    family_scale,
    fradelizi_check,
    lp_norm,
    match_two_sided,
    moment_et,
    norm_ebar,
    prob_positive,
    reduction_check,
    truncated_exponential,
    two_sided_exponential_density,
)
from .mc import McConfig, McEstimate, estimate_abs_moment, estimate_density_at_zero, sample_xab
from .simplex import (
    MaxSectionResult,
    WeightVector,
    density_at_zero,
    geometry_oracle_volume,
    maximize_section,
    section_volume,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    exp_power_integral,
    gamma,
    integrate_adaptive,
    shifted_exp_moment,
)

__version__ = "0.1.0"
