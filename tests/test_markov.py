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
        assert inside.clamped(1e-6) is inside

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
    ((0.3, 0.2), 50_000, 3, OCCUPIED),
    ((0.3, 0.2), 50_000, 3, IDLE),
    ((0.0, 0.4), 1_000, 5, None),  # alpha = 0: occupied absorbs at once
    ((0.0, 0.4), 1_000, 5, IDLE),  # one switch, then occupied absorbs
    ((0.5, 0.0), 1_000, 6, OCCUPIED),  # beta = 0
    ((0.5, 0.0), 1_000, 6, IDLE),
    ((0.0, 0.0), 50, 7, OCCUPIED),
    ((1.0, 1.0), 11, 8, None),
    *(((0.9, 0.6), n, 9, None) for n in (1, 2)),
    *(((0.0, 0.4), n, 9, IDLE) for n in (1, 2)),
    *(((0.5, 0.0), n, 9, OCCUPIED) for n in (1, 2)),
]


class TestSimulateChainOracle:
    @pytest.mark.parametrize("pair, length, seed, initial", _ORACLE_CASES)
    def test_matches_reference(self, pair, length, seed, initial):
        params = ChannelParams(*pair)
        expected, _ = _reference_chain(params, length, seed, initial)
        sequence = simulate_chain(params, length, seed, initial)
        assert sequence.dtype == np.int8 and sequence.shape == (length,)
        assert np.array_equal(sequence, expected)

    @pytest.mark.parametrize(
        "pair, seed, draws", [((0.9, 0.6), 0, 2), ((0.5, 0.5), 10, 3)]
    )
    def test_several_bulk_draws(self, pair, seed, draws):
        # the first draw falls short, so later chunks overwrite its padding
        params = ChannelParams(*pair)
        expected, chunks = _reference_chain(params, 300_000, seed)
        assert chunks == draws
        assert np.array_equal(simulate_chain(params, 300_000, seed), expected)

    def test_peak_allocation(self):
        # the concatenating sampler peaks near 60 MB here: it copies the run
        # lengths once more before repeating them
        params = ChannelParams(0.9, 0.6)
        tracemalloc.start()
        try:
            simulate_chain(params, 4_500_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20


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
