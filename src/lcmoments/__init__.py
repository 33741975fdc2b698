"""Sharp moment-comparison constants for centred log-concave random
variables, and central hyperplane sections of the regular simplex."""

from importlib import import_module as _import_module

from .errors import (
    BracketError,
    CrossingPatternError,
    DegenerateSectionError,
    DomainError,
    NumericalError,
)
from .expfamily import (
    ComparisonCheck,
    LogConcaveTestDensity,
    TwoSidedExpParams,
    abs_moment,
    catalogue,
    centred_gaussian,
    centred_uniform,
    family_scale,
    fradelizi_check,
    match_two_sided,
    moment_et,
    norm_ebar,
    prob_positive,
    reduction_check,
    truncated_exponential,
    two_sided_exponential_density,
)
from .specfun import (
    exp_power_integral,
    gamma,
    shifted_exp_moment,
)

# the modules a moment does not need, each imported when one of its names is first used
_LAZY = {
    "constants": (
        "ScanResult",
        "branch_gap",
        "find_l2_transition",
        "find_p0",
        "lp_lq_ratio",
        "scan_family_extrema",
        "scan_l2_ratio",
        "sharp_constant",
    ),
    "crossings": (
        "SignChangeReport",
        "ThreeCrossingsResult",
        "nonneg_decomposition_check",
        "verify_3crossings",
    ),
    "mc": ("McConfig", "McEstimate", "estimate_density_at_zero", "estimate_xab_moments"),
    "search": (),
    "simplex": (
        "MaxSectionResult",
        "WeightVector",
        "density_at_zero",
        "geometry_oracle_volume",
        "maximize_section",
        "section_volume",
    ),
}
# the public names bound here, the package's modules among them, and the lazy ones
__all__ = sorted({*(name for name in globals() if name[0] != "_"), *_LAZY, *sum(_LAZY.values(), ())})
__version__ = "0.1.0"


def __getattr__(name):
    """A lazy name, read from its module on each use: a copy cached here while
    a tracer had rebound the name would keep the wrapper after the restore."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = _import_module(f".{module}", __name__)
            return value if name == module else getattr(value, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
