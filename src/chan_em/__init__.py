"""Estimation of two-state Markov channel switch probabilities from gappy observations.

A slotted channel alternates between occupied (0) and idle (1) states under
switch probabilities (alpha, beta). This package simulates such channels,
observes them at sparse slot schedules, and recovers the parameters from the
gappy record by expectation-maximization, with brute-force oracles, a
likelihood-gap score, and a reproducible experiment harness on top.
"""

from chan_em.em import (
    EmConfig,
    EmTrajectory,
    EstimateReport,
    TrajectoryStep,
    e_step,
    heuristic_starts,
    m_step,
    multi_start,
    relative_error,
    run_em,
    run_em_each,
    score_against_truth,
)
from chan_em.errors import (
    AllStartsFailedError,
    BoundaryParameterError,
    ChanEmError,
    ConfigError,
    DegenerateObservationsError,
    DegenerateParametersError,
    EnumerationLimitError,
    InsufficientDataError,
    ZeroProbabilityError,
)
from chan_em.expfam import (
    NaturalParams,
    SufficientStats,
    complete_log_likelihood,
    count_statistics,
    from_natural,
    log_partition,
    mle_complete,
    to_natural,
)
from chan_em.likelihood import (
    MAX_ENUMERATION_HIDDEN,
    SE_FLOOR_DB,
    brute_force_expected_stats,
    brute_force_likelihood,
    geometric_mean_likelihood,
    incomplete_log_likelihood,
    n_step_matrix,
    se_db_between,
)
from chan_em.markov import (
    IDLE,
    OCCUPIED,
    ChannelParams,
    rank_channels,
    simulate_chain,
    transition_matrix,
    utilization,
)
from chan_em.observation import (
    GapData,
    ObservationSchedule,
    ObservedDataset,
    observe,
)

__version__ = "0.1.0"

__all__ = [
    "AllStartsFailedError",
    "BoundaryParameterError",
    "ChanEmError",
    "ChannelParams",
    "ConfigError",
    "DegenerateObservationsError",
    "DegenerateParametersError",
    "EmConfig",
    "EmTrajectory",
    "EnumerationLimitError",
    "EstimateReport",
    "GapData",
    "IDLE",
    "InsufficientDataError",
    "MAX_ENUMERATION_HIDDEN",
    "NaturalParams",
    "OCCUPIED",
    "ObservationSchedule",
    "ObservedDataset",
    "SE_FLOOR_DB",
    "SufficientStats",
    "TrajectoryStep",
    "ZeroProbabilityError",
    "brute_force_expected_stats",
    "brute_force_likelihood",
    "complete_log_likelihood",
    "count_statistics",
    "e_step",
    "from_natural",
    "geometric_mean_likelihood",
    "heuristic_starts",
    "incomplete_log_likelihood",
    "log_partition",
    "m_step",
    "mle_complete",
    "multi_start",
    "n_step_matrix",
    "observe",
    "rank_channels",
    "relative_error",
    "run_em",
    "run_em_each",
    "score_against_truth",
    "se_db_between",
    "simulate_chain",
    "to_natural",
    "transition_matrix",
    "utilization",
]
