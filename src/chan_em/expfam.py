"""Sufficient statistics and exponential-family form of the chain likelihood.

For a fully observed sequence the likelihood of the switch probabilities
(alpha, beta) depends on the data only through four transition counts, and
in log-odds coordinates the model is a two-parameter exponential family
whose log-partition gradient recovers (alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chan_em.errors import BoundaryParameterError, InsufficientDataError
from chan_em.markov import IDLE, OCCUPIED, ChannelParams

_COUNT_SLACK = 1e-9  # relative excess of a switch count that rounding may leave

# check_counts' message per check, in the order the checks run
_COUNT_ERRORS = (
    "occ_to_idle must be non-negative", "idle_to_occ must be non-negative",
    "from_occ must be non-negative", "from_idle must be non-negative",
    "occ_to_idle cannot exceed from_occ", "idle_to_occ cannot exceed from_idle",
)


def check_counts(rows: np.ndarray) -> None:
    """SufficientStats' checks on (B, 4) rows of counts, all at once.

    Raises its ValueError for the first failing check of the first failing row.
    """
    left = rows[:, 2:]
    negative = rows < 0
    exceeds = rows[:, :2] > left + _COUNT_SLACK * np.maximum(1.0, left)
    if np.count_nonzero(negative) or np.count_nonzero(exceeds):
        failing = np.hstack([negative, exceeds])
        raise ValueError(_COUNT_ERRORS[failing[failing.any(axis=1).argmax()].argmax()])


@dataclass(frozen=True)
class SufficientStats:
    """Transition counts that fully determine the complete-data likelihood.

    Integer-valued when counted from an observed sequence, real-valued when
    they are conditional expectations over hidden slots. `from_occ` counts
    every transition leaving the occupied state (so `occ_to_idle` of them
    switched and the rest stayed), and `from_idle` the analogue for idle.
    """

    occ_to_idle: float
    idle_to_occ: float
    from_occ: float
    from_idle: float

    def __post_init__(self) -> None:
        check_counts(np.array([self.as_tuple()], dtype=float))

    @property
    def total_transitions(self) -> float:
        return self.from_occ + self.from_idle

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.occ_to_idle, self.idle_to_occ, self.from_occ, self.from_idle)


@dataclass(frozen=True)
class NaturalParams:
    """Log-odds coordinates (log(alpha/(1-alpha)), log(beta/(1-beta)))."""

    log_odds_alpha: float
    log_odds_beta: float


def count_statistics(sequence: np.ndarray) -> SufficientStats:
    """Count the four transition statistics of a fully observed sequence."""
    seq = np.asarray(sequence)
    if seq.ndim != 1 or seq.shape[0] < 2:
        raise InsufficientDataError(
            "need a 1-d sequence of at least 2 slots to count transitions"
        )
    prev = seq[:-1]
    nxt = seq[1:]
    from_occ = int(np.count_nonzero(prev == OCCUPIED))
    occ_to_idle = int(np.count_nonzero((prev == OCCUPIED) & (nxt == IDLE)))
    idle_to_occ = int(np.count_nonzero((prev == IDLE) & (nxt == OCCUPIED)))
    return SufficientStats(
        occ_to_idle=occ_to_idle,
        idle_to_occ=idle_to_occ,
        from_occ=from_occ,
        from_idle=int(seq.shape[0] - 1 - from_occ),
    )


def complete_ratios(counts: Sequence[float]) -> tuple[float, float]:
    """mle_complete's (alpha_hat, beta_hat) of counts in SufficientStats' order."""
    occ_to_idle, idle_to_occ, from_occ, from_idle = counts
    if from_occ <= 0 or from_idle <= 0:
        raise InsufficientDataError(
            "both states must be left at least once to estimate both parameters"
        )
    return min(occ_to_idle / from_occ, 1.0), min(idle_to_occ / from_idle, 1.0)


def mle_complete(stats: SufficientStats) -> ChannelParams:
    """Maximum-likelihood switch probabilities from complete-data counts.

    alpha_hat = occ_to_idle / from_occ and beta_hat = idle_to_occ / from_idle,
    returned exactly (boundary ratios like 0/T stay 0). Raises
    InsufficientDataError when either denominator is zero.
    """
    return ChannelParams(*complete_ratios(stats.as_tuple()))


def to_natural(params: ChannelParams) -> NaturalParams:
    """Map interior (alpha, beta) to log-odds coordinates."""
    if not params.is_interior():
        raise BoundaryParameterError("log-odds undefined at alpha/beta in {0, 1}")
    return NaturalParams(
        math.log(params.alpha) - math.log1p(-params.alpha),
        math.log(params.beta) - math.log1p(-params.beta),
    )


def _sigmoid(x: float) -> float:
    # overflow-safe for |x| up to ~745
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def from_natural(natural: NaturalParams) -> ChannelParams:
    """Inverse of to_natural: sigmoid of each log-odds coordinate."""
    return ChannelParams(
        _sigmoid(natural.log_odds_alpha), _sigmoid(natural.log_odds_beta)
    )


def log_partition(natural: NaturalParams) -> tuple[float, float]:
    """Per-coordinate log-partition (log(1 + e^eta1), log(1 + e^eta2)).

    The gradient of each component in its own coordinate is the sigmoid, so
    differentiating recovers (alpha, beta); equivalently the gradient equals
    the expected per-transition switch indicator.
    """

    def softplus(x: float) -> float:
        if x > 0:
            return x + math.log1p(math.exp(-x))
        return math.log1p(math.exp(x))

    return (softplus(natural.log_odds_alpha), softplus(natural.log_odds_beta))


def complete_log_likelihood(stats: SufficientStats, params: ChannelParams) -> float:
    """Log-likelihood of interior (alpha, beta) given complete-data counts.

    occ_to_idle*log(alpha) + (from_occ - occ_to_idle)*log(1 - alpha)
    + idle_to_occ*log(beta) + (from_idle - idle_to_occ)*log(1 - beta),
    i.e. the log-probability of the transition part of the sequence. In
    natural coordinates this is eta.s - sum(log-partition) up to the same
    value, which the tests cross-check.
    """
    if not params.is_interior():
        raise BoundaryParameterError(
            "complete_log_likelihood requires 0 < alpha, beta < 1"
        )
    a, b = params.alpha, params.beta
    return (
        stats.occ_to_idle * math.log(a)
        + (stats.from_occ - stats.occ_to_idle) * math.log1p(-a)
        + stats.idle_to_occ * math.log(b)
        + (stats.from_idle - stats.idle_to_occ) * math.log1p(-b)
    )
