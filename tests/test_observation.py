"""Observation schedules, datasets, gaps, and CSV round trips."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from chan_em import (
    ChannelParams,
    Gap,
    InsufficientDataError,
    ObservationSchedule,
    ObservedDataset,
    count_statistics,
    gaps,
    observe,
    simulate_chain,
)
from chan_em.observation import write_slot_states


class TestSchedule:
    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            ObservationSchedule.fixed(-1)
        with pytest.raises(ValueError):
            ObservationSchedule(kind="fixed", skip=2, support=(1, 2))
        with pytest.raises(ValueError):
            ObservationSchedule(kind="nope", skip=1)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            ObservationSchedule(kind="random-uniform", support=())
        with pytest.raises(ValueError):
            ObservationSchedule(kind="random-uniform", support=(0, 1), seed=1)
        with pytest.raises(ValueError):
            ObservationSchedule(kind="random-uniform", support=(2,), skip=1, seed=1)

    def test_negative_seed_rejected(self):
        # np.random.default_rng would raise only later, when the schedule draws
        with pytest.raises(ValueError, match="seed"):
            ObservationSchedule.random_uniform((1, 2), seed=-1)

    def test_fixed_times(self):
        times = ObservationSchedule.fixed(4).times_for_count(5)
        np.testing.assert_array_equal(times, [1, 6, 11, 16, 21])
        # coverage relation: last index = (L+1)(K-1)+1
        assert times[-1] == 5 * 4 + 1

    def test_fixed_zero_skip(self):
        times = ObservationSchedule.fixed(0).times_for_count(4)
        np.testing.assert_array_equal(times, [1, 2, 3, 4])

    def test_times_within_matches_times_for_count(self):
        sched = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6), seed=99)
        by_count = sched.times_for_count(3000)
        by_span = sched.times_within(int(by_count[-1]))
        np.testing.assert_array_equal(by_count, by_span)
        # every count is a prefix of one stream, across 1024-draw boundaries
        for count in (1023, 1024, 1025):
            prefix = sched.times_for_count(count)
            np.testing.assert_array_equal(prefix, by_count[:count])
        # the stream itself is pinned: outputs depend on it byte for byte
        assert by_count[:12].tolist() == [1, 8, 13, 19, 24, 27, 32, 39, 46, 53, 58, 61]
        assert (by_count[1023], by_count[1024], by_count[2999]) == (4669, 4674, 13604)

    def test_times_within_shorter_than_first_step(self):
        sched = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6), seed=99)
        np.testing.assert_array_equal(sched.times_within(7), [1])
        np.testing.assert_array_equal(ObservationSchedule.fixed(4).times_within(5), [1])

    def test_random_needs_seed_to_draw(self):
        sched = ObservationSchedule(kind="random-uniform", support=(1, 2))
        with pytest.raises(ValueError):
            sched.times_for_count(3)


class TestObserve:
    def test_worked_example(self):
        dataset = observe(np.array([0, 0, 1, 1, 1]), ObservationSchedule.fixed(3))
        np.testing.assert_array_equal(dataset.times, [1, 5])
        np.testing.assert_array_equal(dataset.states, [0, 1])

    def test_zero_skip_is_identity(self):
        seq = simulate_chain(ChannelParams(0.5, 0.5), 200, seed=8)
        dataset = observe(seq, ObservationSchedule.fixed(0))
        assert dataset.num_observations == 200
        np.testing.assert_array_equal(dataset.states, seq)
        # complete dataset carries the same statistics as the sequence
        assert count_statistics(dataset.states) == count_statistics(seq)

    def test_schedule_exhausts_sequence(self):
        with pytest.raises(InsufficientDataError):
            observe(np.array([0, 1, 0]), ObservationSchedule.fixed(5))

    def test_random_gaps_within_support(self):
        sched = ObservationSchedule.random_uniform((1, 2, 3), seed=5)
        seq = simulate_chain(ChannelParams(0.3, 0.6), 5000, seed=5)
        dataset = observe(seq, sched)
        hidden = np.diff(dataset.times) - 1
        assert set(hidden.tolist()) <= {1, 2, 3}

    def test_random_gaps_uniform(self):
        # chi-squared uniformity over the support at the 1% level
        sched = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6), seed=17)
        times = sched.times_for_count(100_000)
        hidden = np.diff(times) - 1
        observed = np.bincount(hidden, minlength=7)[1:7]
        expected = hidden.shape[0] / 6.0
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # 1% critical value of chi-squared with 5 degrees of freedom
        assert chi2 < 15.086

    def test_states_match_sequence(self):
        seq = simulate_chain(ChannelParams(0.4, 0.3), 3000, seed=2)
        dataset = observe(seq, ObservationSchedule.random_uniform((2, 4), seed=3))
        np.testing.assert_array_equal(dataset.states, seq[dataset.times - 1])


class TestObservedDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedDataset(times=[2, 5], states=[0, 1])  # must start at 1
        with pytest.raises(ValueError):
            ObservedDataset(times=[1, 5, 5], states=[0, 1, 0])
        with pytest.raises(ValueError):
            ObservedDataset(times=[1, 5], states=[0, 2])
        with pytest.raises(InsufficientDataError):
            ObservedDataset(times=[1], states=[0])

    def test_immutable_arrays(self):
        dataset = ObservedDataset(times=[1, 3], states=[0, 1])
        with pytest.raises(ValueError):
            dataset.times[0] = 2

    def test_num_transitions(self):
        dataset = ObservedDataset(times=[1, 5, 9], states=[0, 1, 1])
        assert dataset.num_transitions == 8

    def test_gap_histogram_counts(self):
        dataset = ObservedDataset(times=[1, 3, 5, 7, 8], states=[0, 1, 0, 1, 1])
        signatures, counts = dataset.gap_histogram
        assert counts.sum() == dataset.num_observations - 1
        as_dict = {tuple(sig): int(c) for sig, c in zip(signatures.tolist(), counts)}
        assert as_dict == {(0, 1, 1): 2, (1, 0, 1): 1, (1, 1, 0): 1}

    def test_gap_histogram_mass(self):
        # sum over signatures of count*(hidden+1) equals spanned transitions
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(2, 50))
            times = np.concatenate(([1], 1 + np.cumsum(rng.integers(1, 6, size=k - 1))))
            dataset = ObservedDataset(times=times, states=rng.integers(0, 2, size=k))
            signatures, counts = dataset.gap_histogram
            spanned = int((counts * (signatures[:, 2] + 1)).sum())
            assert spanned == dataset.num_transitions


class TestGaps:
    def test_worked_example(self):
        dataset = ObservedDataset(times=[1, 5], states=[0, 1])
        assert gaps(dataset) == [Gap(0, 1, 3)]

    def test_consecutive(self):
        dataset = ObservedDataset(times=[1, 2, 3], states=[0, 0, 1])
        assert gaps(dataset) == [Gap(0, 0, 0), Gap(0, 1, 0)]

    def test_fixed_schedule_gaps_constant(self):
        seq = simulate_chain(ChannelParams(0.5, 0.4), 1000, seed=4)
        dataset = observe(seq, ObservationSchedule.fixed(4))
        assert all(g.hidden_len == 4 for g in gaps(dataset))

    def test_total_coverage(self):
        dataset = ObservedDataset(times=[1, 4, 6, 11], states=[0, 1, 1, 0])
        assert sum(g.hidden_len + 1 for g in gaps(dataset)) == dataset.num_transitions


class TestCsvRoundTrip:
    # 65 537 rows cross the writer's 65 536-row block boundary; both counts
    # cross the 9/10 and 99/100 digit boundaries of the slot index
    @pytest.mark.parametrize("k", [200, 65_537])
    def test_exact_round_trip(self, tmp_path, k):
        rng = np.random.default_rng(9)
        times = np.concatenate(([1], 1 + np.cumsum(rng.integers(1, 8, size=k - 1))))
        dataset = ObservedDataset(times=times, states=rng.integers(0, 2, size=k))
        assert times[-1] > 100  # slot indices of one, two and three digits
        path = tmp_path / "observed.csv"
        dataset.save(path)
        expected = "slot_index,state\n" + "".join(
            f"{t},{s}\n" for t, s in zip(times.tolist(), dataset.states.tolist())
        )
        assert path.read_bytes() == expected.encode()
        loaded = ObservedDataset.load(path)
        np.testing.assert_array_equal(loaded.times, dataset.times)
        np.testing.assert_array_equal(loaded.states, dataset.states)

    def test_round_trip_with_metadata(self, tmp_path):
        dataset = ObservedDataset(times=[1, 3, 8], states=[1, 0, 1])
        path = tmp_path / "observed.csv"
        dataset.save(path, meta={"tool": "chan-em", "master_seed": 7})
        text = path.read_text()
        assert text.startswith("# tool: chan-em\n# master_seed: 7\n")
        assert b"\r" not in path.read_bytes()  # read_text() would hide \r\n
        assert "slot_index,state" in text
        loaded = ObservedDataset.load(path)
        np.testing.assert_array_equal(loaded.times, dataset.times)
        np.testing.assert_array_equal(loaded.states, dataset.states)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,0\n")
        with pytest.raises(ValueError):
            ObservedDataset.load(path)
        path.write_text("# tool: chan-em\n")  # no header at all
        with pytest.raises(ValueError):
            ObservedDataset.load(path)

    @pytest.mark.parametrize(
        "body",
        ["1,0\n2\n", "1,0\n2,1,7\n", "1\n0\n3\n1\n", "1,0\n2.5,1\n"],
        ids=["one-field", "three-fields", "one-column-not-pairs", "non-integer"],
    )
    def test_rejects_malformed_rows(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("slot_index,state\n" + body)
        with pytest.raises(ValueError):
            ObservedDataset.load(path)

    def test_header_only_is_insufficient(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# tool: chan-em\nslot_index,state\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError):
                ObservedDataset.load(path)

    def test_blank_lines_and_spaces_accepted(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text("slot_index, state\n1, 0\n\n 4 ,1\n\n")
        loaded = ObservedDataset.load(path)
        np.testing.assert_array_equal(loaded.times, [1, 4])
        np.testing.assert_array_equal(loaded.states, [0, 1])


def _rendered(times, states, meta) -> bytes:
    """The reference rendering of a slot-state CSV, one f-string per row."""
    lines = [f"# {key}: {value}\n" for key, value in meta.items()]
    lines.append("slot_index,state\n")
    lines.extend(f"{t},{s}\n" for t, s in zip(times.tolist(), states.tolist()))
    return "".join(lines).encode()


_EVERY_WIDTH = np.array(
    [0, *(10**k - 1 for k in range(1, 19)), *(10**k for k in range(19))]
    + [np.iinfo(np.int64).max],
    dtype=np.int64,
)  # 1 to 19 digits, each width's smallest and largest value up to 10**18
# the width changes mid-block (9 999 -> 10 000 at row 10) and exactly at the
# 65 536-row block boundary (99 999 -> 100 000)
_ACROSS_BLOCKS = np.concatenate(
    (np.arange(9_990, 10_010), np.arange(100_000 - (1 << 16) + 20, 100_010))
)


class TestWriteSlotStates:
    @pytest.mark.parametrize("meta", [{}, {"tool": "chan-em", "master_seed": 7}])
    @pytest.mark.parametrize("state_dtype", [np.int8, np.int64])
    @pytest.mark.parametrize(
        "times",
        [
            _EVERY_WIDTH,
            np.random.default_rng(3).permutation(_EVERY_WIDTH),
            _ACROSS_BLOCKS,
            _ACROSS_BLOCKS[::-1],
            np.array([], dtype=np.int64),
        ],
        ids=["every-width", "shuffled", "across-blocks", "decreasing", "no-rows"],
    )
    def test_bytes_equal_f_string_rendering(self, tmp_path, times, state_dtype, meta):
        assert _ACROSS_BLOCKS[1 << 16] == 100_000 and _ACROSS_BLOCKS[10] == 10_000
        states = np.random.default_rng(4).integers(0, 2, size=len(times))
        states = states.astype(state_dtype)
        path = tmp_path / "rows.csv"
        write_slot_states(path, times, states, meta)
        assert path.read_bytes() == _rendered(times, states, meta)

    @pytest.mark.parametrize(
        "times, states",
        [([1, -2], [0, 1]), ([1, 2], [0, 10]), ([1, 2], [-1, 0]), ([1, 2], [0])],
        ids=["negative-slot", "two-digit-state", "negative-state", "lengths"],
    )
    def test_rejects_rows_it_cannot_render(self, tmp_path, times, states):
        with pytest.raises(ValueError):
            write_slot_states(tmp_path / "rows.csv", np.array(times), np.array(states))

    def test_peak_allocation_is_per_block(self, tmp_path):
        # a temporary over the whole array (8 MB of int64 here) would show
        times = np.arange(1, 1_000_001, dtype=np.int64)
        states = np.zeros(1_000_000, dtype=np.int8)
        tracemalloc.start()
        try:
            write_slot_states(tmp_path / "rows.csv", times, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
