"""Two-state slotted Markov channel: parameters, simulation, utilization, ranking.

State convention: 0 = occupied, 1 = idle. A channel is driven by the pair of
switch probabilities (alpha, beta), where alpha is the per-slot probability of
leaving the occupied state and beta the per-slot probability of leaving idle.
Sojourns in each state are geometric with means 1/alpha and 1/beta, so the
long-run fraction of occupied slots is u = beta / (alpha + beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from chan_em.errors import DegenerateParametersError

OCCUPIED = 0
IDLE = 1

# slots a sampler block holds on average (see run_blocks)
_BLOCK_SLOTS = 2**16


@dataclass(frozen=True)
class ChannelParams:
    """Switch probabilities (alpha, beta) of one channel, each in [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def as_tuple(self) -> tuple[float, float]:
        return (self.alpha, self.beta)

    def clamped(self, epsilon: float) -> ChannelParams:
        """Both probabilities pushed into [epsilon, 1 - epsilon]."""
        lo, hi = epsilon, 1.0 - epsilon
        return ChannelParams(
            min(max(self.alpha, lo), hi),
            min(max(self.beta, lo), hi),
        )

    def is_interior(self) -> bool:
        return 0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0


def transition_matrix(params: ChannelParams) -> np.ndarray:
    """2x2 row-stochastic slot transition matrix (row = current, column = next)."""
    a, b = params.alpha, params.beta
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def utilization(params: ChannelParams) -> float:
    """Stationary probability of the occupied state, beta / (alpha + beta)."""
    s = params.alpha + params.beta
    if s == 0.0:
        raise DegenerateParametersError(
            "alpha = beta = 0 leaves every state absorbing, no unique stationary law"
        )
    return params.beta / s


def simulate_chain(
    params: ChannelParams,
    length: int,
    seed: int,
    initial: int | None = None,
) -> np.ndarray:
    """Sample a state trajectory of the given length, one entry per slot.

    The chain is an alternating renewal process, so instead of stepping slot
    by slot the sampler draws geometric sojourn lengths for alternating
    states and repeats them; this is distributionally identical and fast for
    the multi-million-slot sequences the experiments need. The first state is
    drawn from the stationary law unless `initial` (0 or 1) is given.
    Deterministic for a fixed seed.

    The runs come from run_blocks, whose blocks are written in order into
    one preallocated int8 sequence: a block of many runs through np.repeat
    (about 2**16 slots' worth), a block of one or two runs by slice, so the
    long runs of slowly leaving states are never repeated into a temporary.
    Memory is the sequence plus run_blocks' own, so it is bounded by the
    length asked for, whatever the switch probabilities.
    """
    runs = run_blocks(params, length, seed, initial)
    sequence = np.empty(length, dtype=np.int8)
    head = 0
    for states, lens in runs:
        if len(lens) <= 2:
            for state, run in zip(states.tolist(), lens.tolist()):
                sequence[head : head + run] = state
                head += run
        else:
            block = np.repeat(states, lens)
            sequence[head : head + len(block)] = block
            head += len(block)
    return sequence


def run_blocks(
    params: ChannelParams,
    length: int,
    seed: int,
    initial: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """simulate_chain's trajectory as consecutive blocks of runs.

    Each block is a pair (states, lengths) of int8 run states and int64 run
    lengths; the blocks' runs, repeated in order, are simulate_chain's
    sequence, and their lengths sum to exactly `length`. Every block starts
    in the first state and alternates, so `states` holds the same values in
    every block; `lengths` is a buffer the next block overwrites, so read
    it before asking for the next. Arguments are checked, and the first
    state drawn, on this call, not on the first block.

    Sojourns come in rounds of pairs (first state, then the other), each
    round sized from the slots still to fill. A round first draws all its
    first-state sojourns, 2**16 at a time, and keeps them in the narrowest
    unsigned dtype that holds them (1 B each at fig5's truths). It then
    draws the other state's in blocks of about 2**16 slots' worth of pairs:
    at least one pair, and at most 2**15, since a pair spans at least two
    slots. Every consumer, simulate and the fits alike, reads these same
    blocks. Every run of a block is clipped at the slots still to fill,
    which never changes the output but keeps the sums from overflowing when
    an exit probability near 1e-300 draws runs near 2**63; the block is
    then cut at its first run that reaches the end, and drawing stops.
    Consecutive geometric draws equal one draw of their total size, so the
    output does not depend on the block sizes.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    if initial is None:
        # raises DegenerateParametersError when alpha = beta = 0
        first = OCCUPIED if rng.random() < utilization(params) else IDLE
    else:
        if initial not in (OCCUPIED, IDLE):
            raise ValueError(f"initial state must be 0 or 1, got {initial!r}")
        first = int(initial)
    return _runs(params, length, rng, first)


def _runs(
    params: ChannelParams,
    length: int,
    rng: np.random.Generator,
    first: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of run_blocks, after its checks and first-state draw."""
    other = 1 - first
    exit_prob = (params.alpha, params.beta)
    p_cur, p_oth = exit_prob[first], exit_prob[other]
    if p_cur == 0.0 or p_oth == 0.0:
        # an absorbing state: at most one switch, then it fills the remainder
        first_run = length if p_cur == 0.0 else min(int(rng.geometric(p_cur)), length)
        runs = np.array([first, other], dtype=np.int8)
        yield runs, np.array([first_run, length - first_run])
        return

    mean_pair = 1.0 / p_cur + 1.0 / p_oth
    block = max(1, int(_BLOCK_SLOTS / mean_pair))
    states = np.empty(2 * block, dtype=np.int8)
    states[0::2] = first
    states[1::2] = other
    lens = np.empty(2 * block, dtype=np.int64)
    head = 0
    while True:
        n_pairs = int((length - head) / mean_pair) + 8
        firsts = _kept_geometric(rng, p_cur, n_pairs, length - head)
        for start in range(0, n_pairs, block):
            k = min(block, n_pairs - start)
            n = 2 * k
            lens[0:n:2] = firsts[start : start + k]
            lens[1:n:2] = rng.geometric(p_oth, size=k)
            todo = length - head
            np.minimum(lens[:n], todo, out=lens[:n])
            slots = int(lens[:n].sum())
            if slots >= todo:
                # the last block: cut the first run that reaches the end
                ends = np.cumsum(lens[:n])
                n = int(np.searchsorted(ends, todo)) + 1
                lens[n - 1] -= ends[n - 1] - todo
                yield states[:n], lens[:n]
                return
            yield states[:n], lens[:n]
            head += slots


def _kept_geometric(
    rng: np.random.Generator, p: float, size: int, cap: int
) -> np.ndarray:
    """`size` geometric(p) draws, each clipped at `cap`, in the narrowest
    unsigned dtype that holds them.

    Drawn _BLOCK_SLOTS at a time, so the only int64 array is one block's;
    the kept array is widened, rarely, when a block's largest draw needs it.
    """
    kept = np.empty(size, dtype=np.uint8)
    for lo in range(0, size, _BLOCK_SLOTS):
        draws = rng.geometric(p, size=min(_BLOCK_SLOTS, size - lo))
        np.minimum(draws, cap, out=draws)
        top = int(draws.max())
        if top > np.iinfo(kept.dtype).max:
            kept = kept.astype(np.min_scalar_type(top))
        kept[lo : lo + len(draws)] = draws
    return kept


def rank_channels(params_list: list[ChannelParams]) -> list[int]:
    """Channel indices sorted by ascending utilization (most idle first).

    Ties keep input order. Raises DegenerateParametersError if any channel
    has alpha = beta = 0.
    """
    u = np.array([utilization(p) for p in params_list])
    return [int(i) for i in np.argsort(u, kind="stable")]
