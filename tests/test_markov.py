"""Channel parameter, simulation, and ranking behavior."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from chan_em import (
    ChannelParams,
    DegenerateParametersError,
    IDLE,
    OCCUPIED,
    rank_channels,
    simulate_chain,
    transition_matrix,
    utilization,
)
from chan_em.markov import _kept_geometric, run_blocks


def run_lengths(sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(states, lengths) of the maximal constant runs of a sequence."""
    change = np.flatnonzero(np.diff(sequence)) + 1
    bounds = np.concatenate(([0], change, [sequence.shape[0]]))
    return sequence[bounds[:-1]], np.diff(bounds)


def _reference_chain(
    params: ChannelParams,
    length: int,
    seed: int,
    initial: int | None = None,
) -> tuple[np.ndarray, int]:
    """The concatenating sampler simulate_chain replaced, and its chunk count.

    Its body is kept verbatim: an oracle for the same draws in the same
    order, which unlike pinned digests survives a change of numpy's streams.
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

    exit_prob = (params.alpha, params.beta)
    run_states: list[np.ndarray] = []
    run_lengths: list[np.ndarray] = []
    covered = 0
    state = first
    while covered < length:
        p_cur = exit_prob[state]
        other = 1 - state
        p_oth = exit_prob[other]
        if p_cur == 0.0:
            # absorbing: the current state fills the remainder
            run_states.append(np.array([state], dtype=np.int8))
            run_lengths.append(np.array([length - covered], dtype=np.int64))
            break
        if p_oth == 0.0:
            first_run = min(int(rng.geometric(p_cur)), length - covered)
            run_states.append(np.array([state], dtype=np.int8))
            run_lengths.append(np.array([first_run], dtype=np.int64))
            covered += first_run
            if covered < length:
                run_states.append(np.array([other], dtype=np.int8))
                run_lengths.append(np.array([length - covered], dtype=np.int64))
            break
        # draw pairs of sojourns (current state, then the other) in bulk
        mean_pair = 1.0 / p_cur + 1.0 / p_oth
        n_pairs = int((length - covered) / mean_pair) + 8
        lens = np.empty(2 * n_pairs, dtype=np.int64)
        lens[0::2] = rng.geometric(p_cur, size=n_pairs)
        lens[1::2] = rng.geometric(p_oth, size=n_pairs)
        states = np.empty(2 * n_pairs, dtype=np.int8)
        states[0::2] = state
        states[1::2] = other
        run_states.append(states)
        run_lengths.append(lens)
        covered += int(lens.sum())
        # full pairs were appended, so the pending state is unchanged
    sequence = np.repeat(np.concatenate(run_states), np.concatenate(run_lengths))
    return sequence[:length], len(run_lengths)


class TestChannelParams:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            ChannelParams(0.5, 1.2)
        with pytest.raises(ValueError):
            ChannelParams(float("nan"), 0.5)

    def test_clamped(self):
        p = ChannelParams(0.0, 1.0).clamped(1e-6)
        assert p.alpha == 1e-6
        assert p.beta == 1.0 - 1e-6
        assert ChannelParams(0.3, 0.4).clamped(1e-6) == ChannelParams(0.3, 0.4)
        inside = ChannelParams(1e-6, 1.0 - 1e-6)
        assert inside.clamped(1e-6) == inside

    def test_interior(self):
        assert ChannelParams(0.5, 0.5).is_interior()
        assert not ChannelParams(0.0, 0.5).is_interior()
        assert not ChannelParams(0.5, 1.0).is_interior()


class TestTransitionMatrix:
    def test_values(self):
        P = transition_matrix(ChannelParams(0.8, 0.3))
        np.testing.assert_allclose(P, [[0.2, 0.8], [0.3, 0.7]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = transition_matrix(ChannelParams(rng.uniform(), rng.uniform()))
            np.testing.assert_allclose(P.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_stationarity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            params = ChannelParams(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
            u = utilization(params)
            v = np.array([u, 1.0 - u])
            np.testing.assert_allclose(v @ transition_matrix(params), v, atol=1e-12)


class TestUtilization:
    def test_values(self):
        assert utilization(ChannelParams(0.8, 0.3)) == pytest.approx(0.2727, abs=1e-4)
        assert utilization(ChannelParams(0.2, 0.9)) == pytest.approx(0.8181, abs=1e-4)
        assert utilization(ChannelParams(0.5, 0.5)) == 0.5

    def test_degenerate(self):
        with pytest.raises(DegenerateParametersError):
            utilization(ChannelParams(0.0, 0.0))


class TestSimulateChain:
    def test_deterministic_replay(self):
        p = ChannelParams(0.4, 0.7)
        a = simulate_chain(p, 5000, seed=42)
        b = simulate_chain(p, 5000, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int8

    def test_different_seeds_differ(self):
        p = ChannelParams(0.4, 0.7)
        a = simulate_chain(p, 5000, seed=1)
        b = simulate_chain(p, 5000, seed=2)
        assert not np.array_equal(a, b)

    def test_alternation_when_both_one(self):
        seq = simulate_chain(ChannelParams(1.0, 1.0), 10, seed=3, initial=OCCUPIED)
        np.testing.assert_array_equal(seq, [0, 1] * 5)

    def test_absorbing_when_no_exit(self):
        seq = simulate_chain(ChannelParams(0.0, 0.0), 20, seed=3, initial=IDLE)
        np.testing.assert_array_equal(seq, np.ones(20, dtype=np.int8))

    def test_one_way_absorption(self):
        # alpha > 0, beta = 0: once idle, stays idle
        seq = simulate_chain(ChannelParams(0.5, 0.0), 2000, seed=9, initial=OCCUPIED)
        first_idle = int(np.argmax(seq == IDLE))
        assert (seq[first_idle:] == IDLE).all()

    def test_degenerate_needs_initial(self):
        with pytest.raises(DegenerateParametersError):
            simulate_chain(ChannelParams(0.0, 0.0), 10, seed=0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            simulate_chain(ChannelParams(0.5, 0.5), 0, seed=0)
        with pytest.raises(ValueError):
            simulate_chain(ChannelParams(0.5, 0.5), 10, seed=0, initial=2)

    def test_empirical_utilization(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 100_000, seed=123)
        occupied = float(np.mean(seq == OCCUPIED))
        assert occupied == pytest.approx(0.2727, abs=0.01)

    def test_geometric_run_lengths(self):
        # mean occupied run 1/alpha, mean idle run 1/beta, within 5%
        for alpha, beta, seed in [(0.1, 0.9, 0), (0.5, 0.5, 1), (0.9, 0.1, 2),
                                  (0.3, 0.2, 3), (0.7, 0.6, 4)]:
            seq = simulate_chain(ChannelParams(alpha, beta), 200_000, seed=seed)
            states, lengths = run_lengths(seq)
            # drop the final run, truncation censors it
            states, lengths = states[:-1], lengths[:-1]
            mean_occ = lengths[states == OCCUPIED].mean()
            mean_idle = lengths[states == IDLE].mean()
            assert mean_occ == pytest.approx(1.0 / alpha, rel=0.05)
            assert mean_idle == pytest.approx(1.0 / beta, rel=0.05)

    def test_initial_state_honored(self):
        for initial in (OCCUPIED, IDLE):
            seq = simulate_chain(ChannelParams(0.2, 0.2), 10, seed=11, initial=initial)
            assert seq[0] == initial

    def test_transition_frequencies(self):
        # one-step empirical transition probabilities match the matrix
        params = ChannelParams(0.35, 0.65)
        seq = simulate_chain(params, 300_000, seed=21)
        prev, nxt = seq[:-1], seq[1:]
        for a in (0, 1):
            mask = prev == a
            frac = float(np.mean(nxt[mask] == 1 - a))
            expected = params.alpha if a == OCCUPIED else params.beta
            assert frac == pytest.approx(expected, abs=0.01)


_ORACLE_CASES = [
    *(((0.9, 0.6), 100_000, seed, None) for seed in range(4)),  # fast
    *(((0.01, 0.02), 200_000, seed, None) for seed in range(4)),  # slow
    # sojourns far past the length: one run, one single-pair block, fills it
    *(((1e-5, 0.5), 3_000, seed, None) for seed in range(3)),
    *(((0.5, 1e-5), 3_000, seed, None) for seed in range(3)),
    # slowly mixing: several blocks of 78 pairs
    *(((0.002, 0.003), 200_000, seed, None) for seed in range(2)),
    ((0.3, 0.2), 50_000, 3, OCCUPIED),
    ((0.3, 0.2), 50_000, 3, IDLE),
    ((0.0, 0.4), 1_000, 5, None),  # alpha = 0: occupied absorbs at once
    ((0.0, 0.4), 1_000, 5, IDLE),  # one switch, then occupied absorbs
    ((0.5, 0.0), 1_000, 6, OCCUPIED),  # beta = 0
    ((0.5, 0.0), 1_000, 6, IDLE),
    ((0.0, 0.0), 50, 7, OCCUPIED),
    ((1.0, 1.0), 11, 8, None),
    ((1.0, 1.0), 200_000, 8, OCCUPIED),  # every run ends on a slot
    *(((0.9, 0.6), n, 9, None) for n in (1, 2)),
    *(((0.0, 0.4), n, 9, IDLE) for n in (1, 2)),
    *(((0.5, 0.0), n, 9, OCCUPIED) for n in (1, 2)),
]


def _first_round_ends(params: ChannelParams, length: int, seed: int) -> np.ndarray:
    """Cumulative run ends of the first round of pairs both samplers draw
    for `length` slots from `initial=OCCUPIED`."""
    rng = np.random.default_rng(seed)
    n_pairs = int(length / (1.0 / params.alpha + 1.0 / params.beta)) + 8
    lens = np.empty(2 * n_pairs, dtype=np.int64)
    lens[0::2] = rng.geometric(params.alpha, size=n_pairs)
    lens[1::2] = rng.geometric(params.beta, size=n_pairs)
    return np.cumsum(lens)


def _traced_peak(*args) -> int:
    np.random.default_rng(0)  # numpy imports np.random on first use: not traced
    tracemalloc.start()
    try:
        simulate_chain(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSimulateChainOracle:
    @pytest.mark.parametrize("pair, length, seed, initial", _ORACLE_CASES)
    def test_matches_reference(self, pair, length, seed, initial):
        params = ChannelParams(*pair)
        expected, _ = _reference_chain(params, length, seed, initial)
        sequence = simulate_chain(params, length, seed, initial)
        assert sequence.dtype == np.int8 and sequence.shape == (length,)
        assert np.array_equal(sequence, expected)

    @pytest.mark.parametrize("short", [0, 1])
    def test_length_at_a_run_end(self, short):
        # the last block is cut exactly at a run end, or one slot before it,
        # after several full blocks
        params = ChannelParams(0.9, 0.6)
        length = next(
            n
            for n in range(150_000, 150_100)
            if n + short in _first_round_ends(params, n, seed=2)
        )
        expected, _ = _reference_chain(params, length, 2, OCCUPIED)
        assert np.array_equal(simulate_chain(params, length, 2, OCCUPIED), expected)

    @pytest.mark.parametrize(
        "pair, length, seed, draws",
        [
            ((0.9, 0.6), 300_000, 0, 2),
            ((0.5, 0.5), 300_000, 10, 3),
            # pairs of 15 000 slots on average: blocks of four pairs, so both
            # the first round and the (at least 8-pair) second take several
            ((1e-4, 2e-4), 3_000_000, 2, 2),
        ],
    )
    def test_several_bulk_draws(self, pair, length, seed, draws):
        # the first round falls short, so later rounds fill the tail
        params = ChannelParams(*pair)
        expected, chunks = _reference_chain(params, length, seed)
        assert chunks == draws
        assert np.array_equal(simulate_chain(params, length, seed), expected)

    @pytest.mark.parametrize(
        "pair, length, bound",
        [
            # fast: the int8 sequence and 1 B per first-state sojourn, near
            # 7.3 MiB; kept as int64 they held near 17.5 MiB, and
            # interleaving every run's length before repeating them all at
            # once near 37 MiB
            ((0.9, 0.6), 4_500_000, 10 * 2**20),
            # slowly mixing: little more than the sequence itself, which a
            # block spanning the whole sequence would double
            ((0.002, 0.003), 2_700_800, 2_700_800 + 512 * 2**10),
        ],
    )
    def test_peak_allocation(self, pair, length, bound):
        assert _traced_peak(ChannelParams(*pair), length, 3) < bound

    @pytest.mark.parametrize(
        "pair, initial", [((1e-7, 0.5), None), ((0.5, 1e-7), IDLE)]
    )
    def test_slow_exit_memory_bounded(self, pair, initial):
        # a sojourn of ~1e7 slots is never expanded past the 1000 slots asked
        # for; drawing every run before cutting grew with 1 / alpha (58 MiB)
        assert _traced_peak(ChannelParams(*pair), 1000, 3, initial) < 2**20


    def test_long_pairs_written_by_slice(self):
        # pairs of 2e6 slots on average: one-pair blocks, whose runs were
        # repeated into a temporary before their copy, 1.8 B a slot
        params, length = ChannelParams(1e-6, 1e-6), 4_500_000
        assert _traced_peak(params, length, 3) <= 1.1 * length
        expected, _ = _reference_chain(params, length, 3)
        assert np.array_equal(simulate_chain(params, length, 3), expected)

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    @pytest.mark.parametrize("initial", [None, OCCUPIED, IDLE])
    def test_tiny_exit_probability(self, alpha, initial):
        # geometric draws near 2**63 are clipped at the slots still to fill,
        # so their sums never overflow; the occupied state then never ends
        sequence = simulate_chain(ChannelParams(alpha, 0.909), 10_000, 5, initial)
        assert sequence.shape == (10_000,)
        occupied = np.flatnonzero(sequence == OCCUPIED)
        assert len(occupied) > 0 and occupied[0] < 100
        assert (sequence[occupied[0] :] == OCCUPIED).all()


class TestRunBlocks:
    # every oracle case: simulate and the fits both read these blocks
    @pytest.mark.parametrize("pair, length, seed, initial", _ORACLE_CASES)
    def test_blocks_repeat_to_the_sequence(self, pair, length, seed, initial):
        params = ChannelParams(*pair)
        expected = simulate_chain(params, length, seed, initial)
        pieces = []
        for states, lens in run_blocks(params, length, seed, initial):
            assert len(states) == len(lens) <= 2**16
            assert states[0] == expected[0]
            assert (states[1:] != states[:-1]).all()
            pieces.append(np.repeat(states, lens))
        assert np.array_equal(np.concatenate(pieces), expected)

    def test_arguments_checked_on_the_call(self):
        with pytest.raises(DegenerateParametersError):
            run_blocks(ChannelParams(0.0, 0.0), 10, seed=0)
        with pytest.raises(ValueError):
            run_blocks(ChannelParams(0.5, 0.5), 0, seed=0)

    @pytest.mark.parametrize(
        "p, size, dtype",
        [(0.9, 100_000, np.uint8), (0.001, 70_000, np.uint16), (1e-300, 3, np.uint16)],
    )
    def test_first_sojourns_kept_narrow(self, p, size, dtype):
        # drawn in blocks, clipped at the cap and widened only when a block
        # needs it: the values of one clipped draw in the narrowest dtype
        kept = _kept_geometric(np.random.default_rng(4), p, size, cap=50_000)
        once = np.minimum(np.random.default_rng(4).geometric(p, size=size), 50_000)
        assert kept.dtype == dtype == np.min_scalar_type(once.max())
        assert np.array_equal(kept, once)


class TestRankChannels:
    def test_field_scenario(self):
        channels = [ChannelParams(*t) for t in
                    [(0.8, 0.3), (0.2, 0.9), (0.4, 0.1), (0.7, 0.5), (0.9, 0.6)]]
        assert rank_channels(channels) == [2, 0, 4, 3, 1]

    def test_singleton(self):
        assert rank_channels([ChannelParams(0.5, 0.2)]) == [0]

    def test_tie_breaks_by_index(self):
        assert rank_channels(
            [ChannelParams(0.4, 0.2), ChannelParams(0.8, 0.4)]
        ) == [0, 1]

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateParametersError):
            rank_channels([ChannelParams(0.5, 0.5), ChannelParams(0.0, 0.0)])
