"""Street-distance distributions on Poisson line Cox networks.

Points live on a random street system (a Poisson line process) and travel
along streets with a budget on how many corners they may turn. This package
evaluates the resulting shortest-distance distributions in closed or
quadrature form, estimates them exactly by simulation, and applies them to
link-budget and reachability questions.
"""

from .analytic import (
    DEFAULT_VARIANT,
    angle_thresholds,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
    one_turn_intersection_terms,
    two_turn_T,
    z_length,
)
from .applications import (
    RisLinkParams,
    db_to_linear,
    farfield_success_lower_bound,
    farfield_threshold_distance,
    nearfield_success,
    nearfield_threshold_distance,
    reach_quantile,
)
from .errors import (
    DegenerateAngles,
    DomainError,
    GridMismatch,
    InputError,
    LineCoxError,
    NegativeIntensity,
    NegativeT,
    NoBracket,
    NonFinite,
    NonPositiveParameter,
    NonPositiveRadius,
    NonPositiveScale,
    NotAnInteger,
    PolicyBudgetNegative,
    QuadratureFailure,
    TBeyondClip,
    TooManyLines,
    TooManyPoints,
    ZeroMu,
)
from .experiments import (
    ComparisonReport,
    SweepSpec,
    compare,
    default_grid,
    dkw_halfwidth,
    figure_sweep,
    run_mc,
)
from .model import (
    AngleLaw,
    DistributionCurve,
    Line,
    ModelParams,
    PalmKind,
    PalmScenario,
    PointOnLine,
    PolicyKind,
    TurnPolicy,
    rescale,
    typical_intersection,
    typical_point,
    validate,
)
from .oracle import (
    PathResult,
    chunk_lengths,
    sample_path,
    shortest_path,
)
from .quadrature import gauss_legendre
from .sampler import (
    ChunkSample,
    Realization,
    sample_chunk,
    sample_palm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelParams", "validate", "Line", "PointOnLine", "PalmKind", "AngleLaw",
    "PalmScenario", "typical_point", "typical_intersection", "PolicyKind",
    "TurnPolicy", "DistributionCurve", "rescale",
    # analytic
    "cdf_one_turn_point", "cdf_naive_recursion", "cdf_zero_turn_intersection",
    "cdf_upper_intersection", "cdf_one_turn_intersection",
    "one_turn_intersection_terms", "cdf_two_turn_bound", "two_turn_T",
    "cdf_ppp2d_reference", "equivalent_ppp_density", "DEFAULT_VARIANT", "angle_thresholds", "z_length",
    # sampling and oracle
    "Realization", "sample_palm", "PathResult", "shortest_path",
    "sample_path", "ChunkSample", "sample_chunk", "chunk_lengths",
    # experiments
    "run_mc", "compare", "ComparisonReport", "SweepSpec",
    "figure_sweep", "default_grid", "dkw_halfwidth",
    # applications
    "RisLinkParams", "nearfield_threshold_distance", "nearfield_success",
    "farfield_threshold_distance", "farfield_success_lower_bound",
    "reach_quantile", "db_to_linear",
    # quadrature
    "gauss_legendre",
    # errors
    "LineCoxError", "InputError", "NonFinite", "NegativeIntensity", "ZeroMu",
    "NonPositiveScale", "NegativeT", "NotAnInteger", "NonPositiveParameter",
    "NonPositiveRadius", "TBeyondClip", "TooManyLines",
    "TooManyPoints", "PolicyBudgetNegative", "DegenerateAngles",
    "DomainError", "QuadratureFailure", "GridMismatch", "NoBracket",
]
