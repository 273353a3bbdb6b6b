"""Two-state slotted Markov channel: parameters, simulation, utilization, ranking.

State convention: 0 = occupied, 1 = idle. A channel is driven by the pair of
switch probabilities (alpha, beta), where alpha is the per-slot probability of
leaving the occupied state and beta the per-slot probability of leaving idle.
Sojourns in each state are geometric with means 1/alpha and 1/beta, so the
long-run fraction of occupied slots is u = beta / (alpha + beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chan_em.errors import DegenerateParametersError

OCCUPIED = 0
IDLE = 1


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
        """Both probabilities pushed into [epsilon, 1 - epsilon].

        Self when both already lie there, so an M-step builds no second object.
        """
        lo, hi = epsilon, 1.0 - epsilon
        if lo <= self.alpha <= hi and lo <= self.beta <= hi:
            return self
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

    Each bulk draw is kept as a chunk of (run states, run lengths) and
    nothing is concatenated: the first chunk's last run is padded so that
    its np.repeat alone is the whole sequence, and the later chunks, a short
    tail, are repeated over that padding one by one.
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

    other = 1 - first
    exit_prob = (params.alpha, params.beta)
    p_cur, p_oth = exit_prob[first], exit_prob[other]
    if p_cur == 0.0 or p_oth == 0.0:
        # an absorbing state: at most one switch, then it fills the remainder
        first_run = length if p_cur == 0.0 else min(int(rng.geometric(p_cur)), length)
        runs = np.array([first, other], dtype=np.int8)
        chunks = [(runs, np.array([first_run, length - first_run]))]
    else:
        # draw pairs of sojourns (first state, then the other) in bulk; full
        # pairs are drawn, so every chunk starts in the first state
        mean_pair = 1.0 / p_cur + 1.0 / p_oth
        chunks = []
        covered = 0
        while covered < length:
            n_pairs = int((length - covered) / mean_pair) + 8
            lens = np.empty(2 * n_pairs, dtype=np.int64)
            lens[0::2] = rng.geometric(p_cur, size=n_pairs)
            lens[1::2] = rng.geometric(p_oth, size=n_pairs)
            states = np.empty(2 * n_pairs, dtype=np.int8)
            states[0::2] = first
            states[1::2] = other
            chunks.append((states, lens))
            covered += int(lens.sum())
    states, lens = chunks[0]
    head = int(lens.sum())
    lens[-1] += max(length - head, 0)
    sequence = np.repeat(states, lens)[:length]
    for states, lens in chunks[1:]:
        piece = np.repeat(states, lens)[: length - head]
        sequence[head : head + len(piece)] = piece
        head += len(piece)
    return sequence


def rank_channels(params_list: list[ChannelParams]) -> list[int]:
    """Channel indices sorted by ascending utilization (most idle first).

    Ties keep input order. Raises DegenerateParametersError if any channel
    has alpha = beta = 0.
    """
    u = np.array([utilization(p) for p in params_list])
    return [int(i) for i in np.argsort(u, kind="stable")]
