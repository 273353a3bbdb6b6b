"""Likelihood of gappy observations, matrix powers, and brute-force oracles.

Conditioned on the first observed state, the probability of an observed
dataset factorizes over gaps: a gap from state a to state b with g hidden
slots contributes [P^(g+1)]_{a,b}, the (g+1)-step transition probability.
gap_posteriors computes it together with the E-step's expected counts, at
many parameter points in one call, each point reduced with its own
dataset's counts when the datasets share one signature table: the lockstep
E-M evaluates every live (dataset, start) pair of a table at once, so an
iterate costs one call per table whatever the number of starts and
datasets. It returns arrays, a row per point, and alone checks kernel
input and output; a call fails as a whole, never one point. The
brute-force functions recompute the same quantities by summing over every
completion of the hidden slots; they exist as independent oracles for tests
and are deliberately naive.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from chan_em.errors import (
    BoundaryParameterError,
    EnumerationLimitError,
    ZeroProbabilityError,
)
from chan_em.expfam import SufficientStats, check_counts
from chan_em.markov import IDLE, OCCUPIED, ChannelParams, transition_matrix
from chan_em.observation import GapData, ObservedDataset

SE_FLOOR_DB = -320.0

MAX_ENUMERATION_HIDDEN = 20

_ENUM_CHUNK = 1 << 16

# gap_posteriors splits a batch so one call holds at most this many point x
# signature rows of 10 floats (5 MB for the rows, as much for their product)
MAX_BATCH_ROWS = 1 << 16


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
# M, then the 10x10 identity, as indices into one point's entries
# (P.ravel(), 0.0, 1.0)
_M_INDEX = np.full((20, 10), 4)
_M_INDEX[_M_ROW, _M_COL] = _M_SRC
_M_INDEX[10 + np.arange(10), np.arange(10)] = 5


class GapPlan(NamedTuple):
    """gap_posteriors' arrays that depend only on the dataset.

    One row per gap signature (start, end, hidden), with steps = hidden + 1:
    the multiplicity (as a float), the row of M^(steps & 1) that starts the
    power (row start of M for odd steps, the one-hot row start for even),
    as indices into a point's entries (P.ravel(), 0.0, 1.0), one (S, 1)
    mask per bit of steps (lowest first), and the flat index into the
    (S, 10) result rows of entry (start, end) of each of the five blocks.
    """

    counts: np.ndarray
    first: np.ndarray
    bits: tuple[np.ndarray, ...]
    gather: np.ndarray


def build_gap_plan(dataset: GapData) -> GapPlan:
    """The plan of one dataset; GapData.gap_plan caches it."""
    signatures, counts = dataset.gap_histogram
    start, end, hidden = signatures.T
    steps = hidden + 1
    bits = tuple(
        ((steps >> bit) & 1)[:, None] == 1
        for bit in range(int(steps.max()).bit_length())
    )
    gather = (np.arange(len(steps)) * 10)[:, None] + 2 * np.arange(5) + end[:, None]
    first = _M_INDEX[np.where(steps & 1, start, 10 + start)]
    return GapPlan(counts.astype(float), first, bits, gather)


def gap_posteriors(
    dataset: GapData,
    points: Sequence[tuple[float, float]],
    datasets: Sequence[GapData] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-expected transition counts and log-likelihood at each point.

    The kernel behind incomplete_log_likelihood and the E-step, at (alpha,
    beta) pairs. It powers the block upper-triangular matrix of Van Loan (1978)

        M = [[P, C_01, C_10, C_from0, C_from1], [0, P, 0, 0, 0], ...]

    (P on the whole diagonal), whose n-th power holds P^n in its first block
    and sum_{j<n} P^j C_k P^(n-1-j) in block k. C_01 keeps only P's (0, 1)
    entry, C_10 only its (1, 0) entry, C_from0 and C_from1 only its row 0
    or 1; so entry (a, b) of block k of M^(g+1), over [P^(g+1)]_{a,b}, is
    the expected count of that kind of transition in a gap a -> b with g
    hidden slots. Row a of M^(g+1) is built for all signatures and all
    points at once by repeated squaring over the bits of g+1, on a stack of
    one M per point. The arrays that depend only on the dataset
    (dataset.gap_plan) are built once per dataset, so one call costs one bit
    loop over B points x S signatures, O(B x S x log max gap), in
    O(log max gap) numpy calls whatever B is. Each point is then reduced on
    its own with the same operations as a one-point call, so its result does
    not depend on the other points in the batch. Batches over
    MAX_BATCH_ROWS point-signature rows are split to bound memory.
    Only non-negative terms are summed, so each value's relative rounding
    error stays within a small multiple of (g+1) float epsilons anywhere in
    the unit square, and counts that are exactly zero come out zero.

    The bit loop reads only the signatures. With `datasets`, one per point,
    each of which must have the same signatures as `dataset` (row for row),
    each point is reduced with its own dataset's counts, so its result is
    that of a call on its own dataset; without, every point is reduced with
    dataset's.

    Raises BoundaryParameterError unless every point is interior (callers
    clamp). There a gap probability reaches zero only by underflow at
    subnormal parameters, which no clamped point reaches; the call then
    raises one ZeroProbabilityError naming the first such point. Returns
    the (B, 4) expected counts, in SufficientStats' order and checked as it
    checks them, and the (B,) log-likelihoods.
    """
    if not all(0.0 < a < 1.0 and 0.0 < b < 1.0 for a, b in points):
        raise BoundaryParameterError(
            "the gap kernel requires 0 < alpha, beta < 1, clamp the point first"
        )
    plan = dataset.gap_plan
    if datasets is not None and all(data is dataset for data in datasets):
        datasets = None  # then one counts row serves every point
    per_call = max(1, MAX_BATCH_ROWS // len(plan.counts))
    expected, log_likelihood = np.empty((len(points), 4)), np.empty(len(points))
    for lo in range(0, len(points), per_call):
        hi = lo + per_call
        counts = (
            plan.counts
            if datasets is None
            else np.array([data.gap_plan.counts for data in datasets[lo:hi]])
        )
        batch = _posteriors(plan, counts, points[lo:hi])
        expected[lo:hi], log_likelihood[lo:hi] = batch
    return expected, log_likelihood


def _posteriors(
    plan: GapPlan, counts: np.ndarray, points: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of gap_posteriors: the bit loop, then one _reduce call."""
    # entries of transition_matrix(p).ravel(), then 0.0 and 1.0
    entries = np.array([(1.0 - a, a, b, 1.0 - b, 0.0, 1.0) for a, b in points])
    power = entries.take(_M_INDEX[:10], axis=1)  # one M per point
    # bit 0 needs no product: a one-hot row times M is that row of M, exactly
    rows = entries.take(plan.first, axis=1)
    product, spare = np.empty_like(rows), np.empty_like(power)
    for mask in plan.bits[1:]:
        np.matmul(power, power, out=spare)
        power, spare = spare, power
        np.matmul(rows, power, out=product)
        np.copyto(rows, product, where=mask)
    # blocks[p, i, k] = entry (start_i, end_i) of block k of M^(g_i + 1) at point p
    blocks = rows.reshape(len(points), -1).take(plan.gather, axis=1)
    positive = blocks[..., 0].all(axis=1)
    if not positive.all():
        alpha, beta = points[int(positive.argmin())]
        raise ZeroProbabilityError(
            f"an observed gap has probability zero at ({alpha}, {beta})"
        )
    return _reduce(counts, blocks)


def _reduce(counts: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts and log-likelihood of each point's (S, 5) blocks, all prob > 0.

    `counts` holds the signature multiplicities, (S,) for every point or
    (B, S), a row per point. Each point's reductions are one vector-matrix
    and one dot product over the signatures, (1, S) @ (S, 4) and
    (1, S) @ (S, 1), batched over the points, so a point's sums do not
    depend on the batch it came in, nor on whether its counts row is shared
    or its own.
    """
    prob = blocks[..., 0]
    ratios = blocks[..., 1:] / prob[..., None]
    expected = (counts[..., None, :] @ ratios).reshape(-1, 4)
    log_likelihood = np.log(prob)[:, None, :] @ counts[..., None]
    check_counts(expected)
    return expected, log_likelihood.ravel()


def incomplete_log_likelihood(dataset: GapData, params: ChannelParams) -> float:
    """Log-probability of the observed states given the first one.

    Sum over gaps of log [P^(g+1)]_{a,b}, grouped by gap signature and
    computed by gap_posteriors, whose contract it shares: interior
    parameters only, and ZeroProbabilityError if a gap probability underflows.
    """
    _, log_likelihood = gap_posteriors(dataset, [params.as_tuple()])
    return float(log_likelihood[0])


def geometric_mean_likelihood(dataset: GapData, params: ChannelParams) -> float:
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
    dataset: GapData, estimate: ChannelParams, reference: ChannelParams
) -> float:
    """Likelihood-gap score of an estimate against reference parameters.

    Compares per-transition likelihoods, which stays finite at any dataset size.
    """
    return se_db_between(
        geometric_mean_likelihood(dataset, estimate),
        geometric_mean_likelihood(dataset, reference),
    )
