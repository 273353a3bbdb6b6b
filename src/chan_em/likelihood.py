"""Likelihood of gappy observations, matrix powers, and brute-force oracles.

Conditioned on the first observed state, the probability of an observed
dataset factorizes over gaps: a gap from state a to state b with g hidden
slots contributes [P^(g+1)]_{a,b}, the (g+1)-step transition probability.
gap_posterior computes it together with the E-step's expected counts. The
brute-force functions recompute the same quantities by summing over
every completion of the hidden slots; they exist as independent oracles for
tests and are deliberately naive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from chan_em.errors import (
    BoundaryParameterError,
    EnumerationLimitError,
    ZeroProbabilityError,
)
from chan_em.expfam import SufficientStats
from chan_em.markov import IDLE, OCCUPIED, ChannelParams, transition_matrix
from chan_em.observation import ObservedDataset

SE_FLOOR_DB = -320.0

MAX_ENUMERATION_HIDDEN = 20

_ENUM_CHUNK = 1 << 16


def transition_powers(params: ChannelParams, max_power: int) -> np.ndarray:
    """Stack [P^0, P^1, ..., P^max_power] of n_step_matrix values."""
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    P = transition_matrix(params)
    return np.stack([np.linalg.matrix_power(P, n) for n in range(max_power + 1)])


def n_step_matrix(params: ChannelParams, n: int) -> np.ndarray:
    """n-step transition matrix P^n for n >= 1.

    Repeated squaring: O(log n) 2x2 products, so n in the millions stays
    cheap. Every product sums non-negative terms, so each entry's relative
    rounding error stays within a small multiple of n float epsilons.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.linalg.matrix_power(transition_matrix(params), n)


@dataclass(frozen=True)
class GapPosterior(SufficientStats):
    """Posterior-expected counts plus the log-likelihood that normalized them."""

    log_likelihood: float


# Van Loan's M as (row, column, index into P.ravel()) triples: P on the five
# diagonal blocks, then C_01, C_10, C_from0 and C_from1 in the first block row
_M_ROW, _M_COL, _M_SRC = np.array(
    [
        (2 * k + i, 2 * k + j, 2 * i + j)
        for k in range(5)
        for i in range(2)
        for j in range(2)
    ]
    + [(0, 3, 1), (1, 4, 2), (0, 6, 0), (0, 7, 1), (1, 8, 2), (1, 9, 3)]
).T


class GapPlan(NamedTuple):
    """gap_posterior's arrays that depend only on the dataset.

    One row per gap signature: start and end state, steps = hidden + 1, the
    multiplicity, the one-hot row of M that starts the power, one (S, 1)
    mask per bit of steps (lowest first), and the flat index into the
    (S, 10) result rows of entry (start, end) of each of the five blocks.
    """

    start: np.ndarray
    end: np.ndarray
    steps: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    bits: tuple[np.ndarray, ...]
    gather: np.ndarray


def build_gap_plan(dataset: ObservedDataset) -> GapPlan:
    """The plan of one dataset; ObservedDataset.gap_plan caches it."""
    signatures, counts = dataset.gap_histogram
    start, end, hidden = signatures.T
    steps = hidden + 1
    bits = tuple(
        ((steps >> bit) & 1)[:, None] == 1
        for bit in range(int(steps.max()).bit_length())
    )
    gather = (np.arange(len(steps)) * 10)[:, None] + 2 * np.arange(5) + end[:, None]
    return GapPlan(start, end, steps, counts, np.eye(10)[start], bits, gather)


def gap_posterior(dataset: ObservedDataset, params: ChannelParams) -> GapPosterior:
    """Posterior-expected transition counts and log-likelihood in one pass.

    The kernel behind incomplete_log_likelihood and the E-step. It powers
    the block upper-triangular matrix of Van Loan (1978)

        M = [[P, C_01, C_10, C_from0, C_from1], [0, P, 0, 0, 0], ...]

    (P on the whole diagonal), whose n-th power holds P^n in its first block
    and sum_{j<n} P^j C_k P^(n-1-j) in block k. C_01 keeps only P's (0, 1)
    entry, C_10 only its (1, 0) entry, C_from0 and C_from1 only its row 0
    or 1; so entry (a, b) of block k of M^(g+1), over [P^(g+1)]_{a,b}, is
    the expected count of that kind of transition in a gap a -> b with g
    hidden slots. Row a of M^(g+1) is built for all signatures at once by
    repeated squaring over the bits of g+1. The arrays that depend only on
    the dataset (dataset.gap_plan) are built once per dataset, so one call
    costs the bit loop over S signatures: O(S x log max gap).
    Only non-negative terms are summed, so each value's relative rounding
    error stays within a small multiple of (g+1) float epsilons anywhere in
    the unit square, and counts that are exactly zero come out zero.
    Raises ZeroProbabilityError if an observed gap has probability zero.
    """
    plan = dataset.gap_plan
    M = np.zeros((10, 10))
    M[_M_ROW, _M_COL] = transition_matrix(params).ravel()[_M_SRC]
    rows, power = plan.rows, M
    for bit, mask in enumerate(plan.bits):
        if bit:
            power = power @ power
        rows = np.where(mask, rows @ power, rows)
    # blocks[i, k] = entry (start_i, end_i) of block k of M^(g_i + 1)
    blocks = rows.take(plan.gather)
    prob = blocks[:, 0]
    if not (prob > 0.0).all():
        i = int(np.argmin(prob > 0.0))
        raise ZeroProbabilityError(
            f"gap {int(plan.start[i])}->{int(plan.end[i])} over "
            f"{int(plan.steps[i])} steps has zero probability"
        )
    expected = plan.counts @ (blocks[:, 1:] / prob[:, None])
    return GapPosterior(*map(float, expected), float(plan.counts @ np.log(prob)))


def incomplete_log_likelihood(dataset: ObservedDataset, params: ChannelParams) -> float:
    """Log-probability of the observed states given the first one.

    Sum over gaps of log [P^(g+1)]_{a,b}, grouped by gap signature and
    computed by gap_posterior. Requires interior parameters; raises
    ZeroProbabilityError if any observed gap has probability exactly zero
    (cannot happen at interior parameters, but the guard keeps the contract
    explicit).
    """
    if not params.is_interior():
        raise BoundaryParameterError(
            "incomplete_log_likelihood requires 0 < alpha, beta < 1"
        )
    return gap_posterior(dataset, params).log_likelihood


def geometric_mean_likelihood(dataset: ObservedDataset, params: ChannelParams) -> float:
    """Per-transition likelihood exp(loglik / num_transitions).

    Normalizing by the spanned transition count keeps the value on a
    comparable scale across dataset sizes, which is what the squared-error
    scores difference.
    """
    return math.exp(incomplete_log_likelihood(dataset, params) / dataset.num_transitions)


def _enumerate_paths(dataset: ObservedDataset) -> tuple[np.ndarray, int]:
    """Hidden slot indices (0-based) and their count, bounds-checked."""
    total_slots = int(dataset.times[-1])
    known = np.asarray(dataset.times) - 1
    hidden = np.setdiff1d(np.arange(total_slots), known)
    n_hidden = hidden.shape[0]
    if n_hidden > MAX_ENUMERATION_HIDDEN:
        raise EnumerationLimitError(
            f"{n_hidden} hidden slots exceed the enumeration bound "
            f"of {MAX_ENUMERATION_HIDDEN}"
        )
    return hidden, n_hidden


def _completion_block(
    dataset: ObservedDataset, hidden: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    total_slots = int(dataset.times[-1])
    block = np.empty((masks.shape[0], total_slots), dtype=np.int8)
    block[:, np.asarray(dataset.times) - 1] = dataset.states
    if hidden.shape[0]:
        bits = (masks[:, None] >> np.arange(hidden.shape[0])) & 1
        block[:, hidden] = bits.astype(np.int8)
    return block


def brute_force_likelihood(dataset: ObservedDataset, params: ChannelParams) -> float:
    """Observation likelihood by explicit sum over all hidden completions.

    Exponential in the number of hidden slots (bounded at
    MAX_ENUMERATION_HIDDEN); an oracle for incomplete_log_likelihood, not a
    production path. Returns the plain (linear-scale) probability.
    """
    hidden, n_hidden = _enumerate_paths(dataset)
    P = transition_matrix(params)
    total = 0.0
    for lo in range(0, 1 << n_hidden, _ENUM_CHUNK):
        masks = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << n_hidden))
        block = _completion_block(dataset, hidden, masks)
        total += float(P[block[:, :-1], block[:, 1:]].prod(axis=1).sum())
    return total


def brute_force_expected_stats(
    dataset: ObservedDataset, params: ChannelParams
) -> SufficientStats:
    """Posterior-expected transition counts by explicit enumeration.

    Weights each completion by its probability and averages the four
    complete-data counts; the E-step oracle.
    """
    hidden, n_hidden = _enumerate_paths(dataset)
    P = transition_matrix(params)
    weight_sum = 0.0
    acc = np.zeros(4)
    for lo in range(0, 1 << n_hidden, _ENUM_CHUNK):
        masks = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << n_hidden))
        block = _completion_block(dataset, hidden, masks)
        prev = block[:, :-1]
        nxt = block[:, 1:]
        weights = P[prev, nxt].prod(axis=1)
        weight_sum += float(weights.sum())
        counts = np.stack(
            [
                ((prev == OCCUPIED) & (nxt == IDLE)).sum(axis=1),
                ((prev == IDLE) & (nxt == OCCUPIED)).sum(axis=1),
                (prev == OCCUPIED).sum(axis=1),
                (prev == IDLE).sum(axis=1),
            ]
        )
        acc += counts @ weights
    if weight_sum <= 0.0:
        raise ZeroProbabilityError("observations have zero probability, no posterior")
    expected = acc / weight_sum
    return SufficientStats(
        occ_to_idle=float(expected[0]),
        idle_to_occ=float(expected[1]),
        from_occ=float(expected[2]),
        from_idle=float(expected[3]),
    )


def se_db_between(value: float, reference: float) -> float:
    """Squared gap between two likelihood values on a decibel scale.

    10*log10((value - reference)^2), floored at SE_FLOOR_DB (exact
    coincidence would be -inf).
    """
    gap_sq = (value - reference) ** 2
    if gap_sq == 0.0:
        return SE_FLOOR_DB
    return max(10.0 * math.log10(gap_sq), SE_FLOOR_DB)


def squared_error_db(
    dataset: ObservedDataset, estimate: ChannelParams, reference: ChannelParams
) -> float:
    """Likelihood-gap score of an estimate against reference parameters.

    Compares per-transition likelihoods, which stays finite at any dataset size.
    """
    return se_db_between(
        geometric_mean_likelihood(dataset, estimate),
        geometric_mean_likelihood(dataset, reference),
    )
