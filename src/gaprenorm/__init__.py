"""Renormalization toolkit for half-discrepancy sums of irrational rotations.

The package splits along the objects it manipulates: continued fractions and
the gap map (cf), the substitution system and its return matrices
(substitution), exact direct-orbit simulation (orbit), the transfer operator
and its invariant density (measure), and seeded experiment drivers
(experiments).  Everything decision-bearing runs in exact arithmetic;
floats appear only in reports and in the Ulam/series numerics.
"""

__version__ = "0.1.0"

from .cf import (
    CFExpansion,
    CellBoundaryError,
    ExpansionExhaustedError,
    GapTrajectory,
    PartitionCell,
    TrajectoryStep,
    cf_normalize,
    cf_value,
    classify_cell,
    classify_value,
    format_theta_spec,
    gap_derivative,
    gap_map,
    gap_map_value,
    gap_trajectory,
    gauss_map,
    parse_theta_spec,
    parity_floor,
    rational_to_cf,
    sample_theta,
)
from .exact import ExactReal, Surd, exact_log, exact_str, fraction_bounds, make_surd
from .substitution import (
    GrowthCheck,
    LevelIdentity,
    Levels,
    ReturnMatrix,
    SpreadBoundError,
    SubstitutionRule,
    WordBudgetError,
    WordStats,
    build_rule,
    check_length_growth,
    expand_word,
    levels,
    lyapunov_estimate,
    renorm_identity,
)
from .orbit import (
    DiscrepancyProfile,
    EncodingMatch,
    EncodingSearchError,
    OrbitEncoding,
    SandwichCheck,
    discrepancy_profile,
    encode_orbit,
    sandwich_sweep,
    verify_encoding,
)
from .measure import (
    ConvergenceError,
    DensityEstimate,
    KhinchinResult,
    THRESHOLD_FAMILIES,
    UlamAssemblyError,
    UlamOperator,
    build_ulam,
    correlation_decay,
    integral_log_norm,
    inverse_branch,
    inverse_branches,
    khinchin_experiment,
    series_bound,
    stationary_density,
)
from .experiments import (
    EmitError,
    ExperimentConfig,
    IteratedLogFamily,
    emit,
    read_csv,
    run_bounded_pq_check,
    run_growth_experiment,
    run_limsup_probe,
    run_trimmed_sums,
    tool_version,
)
