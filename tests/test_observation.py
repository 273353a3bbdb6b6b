"""Observation schedules, datasets, gaps, and CSV round trips."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chan_em import (
    ChannelParams,
    InsufficientDataError,
    ObservationSchedule,
    ObservedDataset,
    count_statistics,
    observe,
    simulate_chain,
)
from chan_em.markov import run_blocks
from chan_em.observation import (
    _BLOCK,
    GapHistogram,
    _RunCursor,
    _SlotRows,
    _count_keys,
    _write_rows,
    open_slot_states,
)


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

    @pytest.mark.parametrize("value", [2.5, np.float64(2.5), math.nan, math.inf, None])
    def test_skip_and_support_must_be_integers(self, value):
        # a skip of 2.5 would draw steps [3] but a last slot of 15.0, and
        # fixed() must not truncate it to 2
        for make in (
            lambda: ObservationSchedule(kind="fixed", skip=value),
            lambda: ObservationSchedule.fixed(value),
            lambda: ObservationSchedule.random_uniform((1, value), seed=1),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                make()

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integer_skips_are_stored_as_int(self, value):
        schedule = ObservationSchedule(kind="fixed", skip=value)
        assert type(schedule.skip) is int and schedule.skip == 3
        assert schedule.draw(4).last_slot == 17
        support = ObservationSchedule.random_uniform((1, value), seed=1).support
        assert support == (1, 3) and all(type(s) is int for s in support)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_seed_must_be_an_integer(self, value):
        # SeedSequence raised a raw TypeError at the first draw, and
        # random_uniform() truncated 2.5 to 2
        for make in (
            lambda: ObservationSchedule(
                kind="random-uniform", support=(1, 2), seed=value
            ),
            lambda: ObservationSchedule.random_uniform((1, 2), seed=value),
        ):
            with pytest.raises(ValueError, match="seed must be an integer"):
                make()

    @pytest.mark.parametrize("value", [np.float64(3.0), np.int64(3)])
    def test_whole_seeds_are_stored_as_int(self, value):
        reference = ObservationSchedule.random_uniform((1, 2, 5), seed=3)
        for schedule in (
            ObservationSchedule(kind="random-uniform", support=(1, 2, 5), seed=value),
            ObservationSchedule.random_uniform((1, 2, 5), seed=value),
        ):
            assert type(schedule.seed) is int and schedule.seed == 3
            np.testing.assert_array_equal(
                schedule.times_for_count(50), reference.times_for_count(50)
            )

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


class TestScheduleDraw:
    @pytest.mark.parametrize(
        "gaps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 4 * _BLOCK]
    )
    @pytest.mark.parametrize(
        "support", [(1, 2, 3, 4, 5, 6), tuple(range(1, 301))], ids=["six", "300"]
    )
    def test_every_pass_redraws_one_draw(self, gaps, support):
        draw = ObservationSchedule.random_uniform(support, seed=8).draw(gaps)
        picks = np.random.default_rng(8).integers(0, len(support), size=gaps)
        steps = np.concatenate(([1], np.add(support, 1)[picks]))
        assert draw.last_slot == steps.sum()
        for _ in range(2):  # each pass draws the picks again, the same
            blocks = list(draw.step_blocks())
            assert [len(b) for b in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
            assert all(b.dtype == np.int64 and len(b) <= _BLOCK for b in blocks)
            assert np.array_equal(np.concatenate(blocks), steps[1:])
        times = draw.times()
        assert times.dtype == np.int64 and np.array_equal(times, np.cumsum(steps))
        assert draw.last_slot == times[-1]

    def test_fixed_draw_holds_no_picks(self):
        draw = ObservationSchedule.fixed(10**7).draw(3)
        assert draw.seed is None and draw.last_slot == 1 + 3 * (10**7 + 1)
        assert draw.times().tolist() == [1 + k * (10**7 + 1) for k in range(4)]

    def test_random_draw_holds_no_per_gap_array(self):
        # picks kept at 1 B a gap would hold about 1 MB here
        schedule = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6), seed=3)
        np.random.default_rng(0)  # numpy imports np.random on first use: not traced
        tracemalloc.start()
        try:
            draw = schedule.draw(10**6)
            assert draw.last_slot > 10**6
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**10

    @pytest.mark.parametrize("draw", ["integers", "geometric"])
    def test_consecutive_draws_equal_one_draw(self, draw):
        # what drawing the schedule and the chain in blocks relies on, on the
        # numpy installed: the stream does not depend on how it is split
        args = {"integers": (0, 6), "geometric": (0.3,)}[draw]
        sizes = [1, 7, 1000, 3, 65536, 2]
        once = getattr(np.random.default_rng(6), draw)(*args, size=sum(sizes))
        rng = np.random.default_rng(6)
        split = np.concatenate([getattr(rng, draw)(*args, size=n) for n in sizes])
        assert np.array_equal(split, once)


class TestCountKeys:
    @pytest.mark.parametrize(
        "blocks",
        [
            [[0, 1, 1, 3], [2, 2, 0]],  # dense blocks only
            [[0, 1], [5, 4, 3, 2, 1, 0]],  # the table grows
            [[0, 1, 2, 3, 3], [40, 7], [1, 3]],  # dense, sparse, dense in the table
            [[10**12, 5], [0, 1, 2, 2]],  # sparse first
            [[0, 1, 2, 3], [3, 100], [100, 3, 2**61]],  # keys in both kinds
            [[7], [2**40], [9]],  # sparse blocks only
        ],
    )
    def test_equals_one_count_of_all_keys(self, blocks):
        blocks = [np.array(block, dtype=np.int64) for block in blocks]
        keys, want = np.unique(np.concatenate(blocks), return_counts=True)
        signatures, counts = _count_keys(iter(blocks))
        assert signatures.dtype == keys.dtype and counts.dtype == want.dtype
        assert np.array_equal(
            signatures, np.column_stack(((keys >> 1) & 1, keys & 1, keys >> 2))
        )
        assert np.array_equal(counts, want)


class TestGapHistogram:
    @staticmethod
    def observe_both(params, schedule, count, seed):
        draw = schedule.draw(count - 1)
        sequence = simulate_chain(params, draw.last_slot, seed)
        dataset = ObservedDataset.sample(sequence, draw.times())
        return dataset, GapHistogram.observe(
            run_blocks(params, draw.last_slot, seed), draw
        )

    def assert_same(self, dataset, histogram):
        for got, want in zip(histogram.gap_histogram, dataset.gap_histogram):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for data in (histogram, dataset):
            assert data.first_state == dataset.states[0]
            assert data.num_observations == len(dataset.times)
            assert data.num_transitions == dataset.times[-1] - 1
            assert data.occupied_fraction == float(np.mean(dataset.states == 0))

    @pytest.mark.parametrize(
        "schedule",
        [
            ObservationSchedule.fixed(0),
            ObservationSchedule.fixed(9),
            ObservationSchedule.random_uniform((1, 2, 3), seed=1),
            ObservationSchedule.random_uniform((40, 3, 900), seed=2),
        ],
    )
    @pytest.mark.parametrize("pair", [(0.9, 0.6), (0.02, 0.01), (1e-5, 0.5)])
    def test_equals_the_materialized_histogram(self, schedule, pair):
        self.assert_same(*self.observe_both(ChannelParams(*pair), schedule, 3000, 4))

    def test_needs_two_observations(self):
        draw = ObservationSchedule.fixed(1).draw(0)
        with pytest.raises(InsufficientDataError):
            GapHistogram.observe(run_blocks(ChannelParams(0.5, 0.5), 1, 0), draw)

    def test_runs_shorter_than_the_draw(self):
        params = ChannelParams(0.5, 0.5)
        draw = ObservationSchedule.fixed(2).draw(50)
        runs = run_blocks(params, draw.last_slot - 1, 0)
        with pytest.raises(ValueError, match="runs end at slot"):
            GapHistogram.observe(runs, draw)

    def test_frozen(self):
        _, histogram = self.observe_both(
            ChannelParams(0.5, 0.5), ObservationSchedule.fixed(1), 10, 0
        )
        with pytest.raises(AttributeError):
            histogram.first_state = 0


class TestRunCursor:
    BLOCKS = [
        (np.array([0, 1, 0], dtype=np.int8), np.array([2, 3, 1])),  # slots 0-5
        (np.array([1], dtype=np.int8), np.array([4])),  # 6-9
        (np.array([0, 1], dtype=np.int8), np.array([100, 1])),  # 10-110
    ]

    def test_reads_block_edges_by_both_paths(self):
        sequence = np.concatenate([np.repeat(s, n) for s, n in self.BLOCKS])
        # every slot, a dense call, then slots on and next to block edges,
        # sparse calls that read run ends; the last slot ends the chain
        for calls in (
            [np.arange(111)],
            [np.array([0, 5, 6]), np.array([9, 10]), np.array([109, 110])],
            [np.array([0]), np.array([6, 110])],
        ):
            cursor = _RunCursor(iter(self.BLOCKS))
            got = np.concatenate([cursor.states_at(slots) for slots in calls])
            assert np.array_equal(got, sequence[np.concatenate(calls)])

    def test_expands_only_densely_observed_blocks(self):
        cursor = _RunCursor(iter(self.BLOCKS))
        cursor.states_at(np.array([0, 2, 4]))  # 6 slots, 3 observed
        assert cursor._expanded is not None and cursor._ends is None
        cursor.states_at(np.array([7, 8]))  # 4 slots, 2 observed
        assert cursor._expanded is not None
        cursor.states_at(np.array([50, 110]))  # 101 slots, 2 observed
        assert cursor._expanded is None and cursor._ends is not None

    def test_sink_expands_each_block_once(self, tmp_path):
        # the sink gets every block, in order, even one no slot falls in, and
        # the cursor reads the sink's expansion, never one of its own; a block
        # of one or two runs is not expanded
        sequence = np.concatenate([np.repeat(s, n) for s, n in self.BLOCKS])
        taken = []

        class Sink(_SlotRows):
            def runs(self, states, lens):
                expanded = super().runs(states, lens)
                taken.append((len(lens), expanded))
                return expanded

        with open_slot_states(tmp_path / "rows.csv") as fh:
            cursor = _RunCursor(iter(self.BLOCKS), Sink(fh))
            got = [cursor.states_at(np.arange(6))]
            assert cursor._expanded is taken[0][1]
            got.append(cursor.states_at(np.array([10, 11, 12, 110])))
            assert cursor._expanded is None and cursor._ends is not None
        assert [(n, e is None) for n, e in taken] == [(3, False), (1, True), (2, True)]
        read = [*range(6), 10, 11, 12, 110]
        assert np.array_equal(np.concatenate(got), sequence[read])
        whole = _rendered(np.arange(1, len(sequence) + 1), sequence, {})
        assert (tmp_path / "rows.csv").read_bytes() == whole

    def test_past_the_last_block(self):
        cursor = _RunCursor(iter(self.BLOCKS))
        assert cursor.states_at(np.array([110]))[0] == 1
        with pytest.raises(ValueError, match="runs end at slot 111"):
            cursor.states_at(np.array([111]))


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
            ObservedDataset(times=[1, -2], states=[0, 1])
        with pytest.raises(ValueError):
            ObservedDataset(times=[1, 5], states=[0, 2])
        with pytest.raises(ValueError):
            ObservedDataset(times=[1, 5], states=[-1, 0])
        with pytest.raises(ValueError):
            ObservedDataset(times=[1, 5], states=[0])
        with pytest.raises(InsufficientDataError):
            ObservedDataset(times=[1], states=[0])

    @pytest.mark.parametrize(
        "times, states",
        [
            ([1, 2, 3], np.array([0, 256, 1])),  # int8 would wrap it to 0
            ([1, 2, 3], [0, 1.5, 1]),
            ([1.0, 2.9, 3.5], [0, 1, 0]),  # int64 would truncate to 1, 2, 3
            # an array's cast would warn, and RuntimeWarning is an error here
            (np.array([1.0, np.nan, 3.0]), [0, 1, 0]),
            (np.array([1.0, np.inf, 3.0]), [0, 1, 0]),
            (np.array([1, 2, 2**63], dtype=np.uint64), [0, 1, 0]),
        ],
        ids=["state-256", "fractional-state", "fractional-times", "nan", "inf", "uint64"],
    )
    def test_rejects_values_the_cast_would_change(self, times, states):
        with pytest.raises(ValueError):
            ObservedDataset(times=times, states=states)

    def test_exact_casts_accepted(self):
        dataset = ObservedDataset(times=np.array([1.0, 2.0, 5.0]), states=[True, 0, 1])
        assert dataset.times.dtype == np.int64 and dataset.states.dtype == np.int8
        np.testing.assert_array_equal(dataset.times, [1, 2, 5])
        np.testing.assert_array_equal(dataset.states, [1, 0, 1])

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
        assert counts.sum() == len(dataset.times) - 1
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
            assert spanned == dataset.num_transitions == times[-1] - 1


def naive_histogram(dataset: ObservedDataset) -> tuple[np.ndarray, np.ndarray]:
    """np.unique over (hidden, start, end) rows, reordered to (start, end, hidden)."""
    rows = np.column_stack(
        (np.diff(dataset.times) - 1, dataset.states[:-1], dataset.states[1:])
    ).astype(np.int64)
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    return uniq[:, [1, 2, 0]], counts


def random_dataset(rng: np.random.Generator, k: int, max_hidden: int):
    """k observations with hidden lengths drawn uniformly from 0..max_hidden."""
    hidden = rng.integers(0, max_hidden + 1, size=k - 1)
    times = np.concatenate(([1], 1 + np.cumsum(hidden + 1)))
    return ObservedDataset(times=times, states=rng.integers(0, 2, size=k))


class TestGapHistogramPaths:
    """Both counting paths against a naive count: values, row order, dtypes."""

    @staticmethod
    def assert_matches_naive(dataset: ObservedDataset) -> None:
        signatures, counts = dataset.gap_histogram
        want_signatures, want_counts = naive_histogram(dataset)
        np.testing.assert_array_equal(signatures, want_signatures)
        np.testing.assert_array_equal(counts, want_counts)
        assert signatures.dtype == np.int64 and signatures.shape[1] == 3
        assert counts.dtype == want_counts.dtype == np.intp

    @staticmethod
    def largest_key(dataset: ObservedDataset) -> int:
        signatures, _ = naive_histogram(dataset)
        return int((4 * signatures[:, 2] + 2 * signatures[:, 0] + signatures[:, 1]).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_keys(self, seed):
        # keys below the number of gaps: counted by np.bincount
        dataset = random_dataset(np.random.default_rng(seed), 5000, 40)
        assert self.largest_key(dataset) < dataset.num_observations - 1
        self.assert_matches_naive(dataset)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_gap_of_1e12_slots(self, seed):
        # one key far past the number of gaps: counted by np.unique
        dense = random_dataset(np.random.default_rng(seed), 5000, 40)
        times = np.concatenate((dense.times, [dense.times[-1] + 10**12]))
        dataset = ObservedDataset(times=times, states=np.append(dense.states, 1))
        assert self.largest_key(dataset) >= dataset.num_observations - 1
        self.assert_matches_naive(dataset)
        last = [dense.states[-1], 1, 10**12 - 1]
        assert dataset.gap_histogram[0][-1].tolist() == last

    def test_small_datasets_either_side_of_the_switch(self):
        rng = np.random.default_rng(13)
        paths = set()
        for _ in range(200):
            k, max_hidden = int(rng.integers(2, 40)), int(rng.integers(0, 8))
            dataset = random_dataset(rng, k, max_hidden)
            paths.add(self.largest_key(dataset) < dataset.num_observations - 1)
            self.assert_matches_naive(dataset)
        assert paths == {True, False}

    def test_keys_fit_int64_up_to_the_largest_slot(self):
        dataset = ObservedDataset(times=[1, 2, 2**61], states=[1, 1, 0])
        self.assert_matches_naive(dataset)
        assert dataset.gap_histogram[0].tolist() == [[1, 1, 0], [1, 0, 2**61 - 3]]
        # summed in int64: a float sum would round 2**61 - 1 to 2**61
        assert dataset.num_transitions == 2**61 - 1
        assert dataset.num_observations == 3
        with pytest.raises(ValueError, match="2\\*\\*61"):
            ObservedDataset(times=[1, 2**61 + 1], states=[0, 1])

    def test_peak_allocation_is_one_key_buffer(self):
        # one int64 key per gap; a key, start, end and np.unique's sorted copy
        # as separate int64 arrays would peak near five times times.nbytes
        dataset = random_dataset(np.random.default_rng(14), 1_000_000, 9)
        tracemalloc.start()
        try:
            dataset.gap_histogram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dataset.times.nbytes


class TestCsvRoundTrip:
    # 65 537 rows cross a block boundary of the writer's, row 65 536; both counts
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
        ["1,0\n2\n", "1,0\n2,1,7\n", "1\n0\n3\n1\n", "1,0\n2.5,1\n", "1,0\n2,257\n"],
        ids=[
            "one-field",
            "three-fields",
            "one-column-not-pairs",
            "non-integer",
            "state-257",  # int8 would wrap it to state 1
        ],
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


def _write_explicit(path, times, states, meta=None) -> None:
    with open_slot_states(path, meta) as fh:
        _write_rows(fh, times, states)


def _write_implicit(path, states, meta=None) -> None:
    """The rows of slots 1..len(states)."""
    with open_slot_states(path, meta) as fh:
        _SlotRows(fh).write(states)


def _rendered(times, states, meta) -> bytes:
    """The reference rendering of a slot-state CSV, one f-string per row."""
    lines = [f"# {key}: {value}\n" for key, value in meta.items()]
    lines.append("slot_index,state\n")
    lines.extend(f"{t},{s}\n" for t, s in zip(times.tolist(), states.tolist()))
    return "".join(lines).encode()


_EVERY_WIDTH = np.array(
    [0, *(10**k - 1 for k in range(1, 19)), *(10**k for k in range(19))] + [2**61],
    dtype=np.int64,
)  # 1 to 19 digits, each width's smallest and largest value up to the 2**61 cap
# the width changes mid-block (9 999 -> 10 000 at row 10) and exactly at a
# block boundary, row 65 536 (99 999 -> 100 000)
_ACROSS_BLOCKS = np.concatenate(
    (np.arange(9_990, 10_010), np.arange(100_000 - (1 << 16) + 20, 100_010))
)
# either side of the nine-digit uint32 / ten-digit int64 switch and of the
# uint32 maximum, up to nineteen digits
_UINT32_SPLIT = np.array(
    [
        999_999_999,
        10**9,
        10**9 + 1,
        4_294_967_295,
        4_294_967_296,
        10**12 + 7,
        10**18 + 10**9 - 1,
    ],
    dtype=np.int64,
)
# min and max share ten digits, so the block is one run, yet its values lie
# on both sides of the uint32 maximum
_ONE_WIDTH = np.array(
    [4_294_967_296, 10**9, 9_999_999_999, 4_294_967_295, 10**9 + 1], dtype=np.int64
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
            _UINT32_SPLIT,
            np.random.default_rng(5).permutation(_UINT32_SPLIT),
            _ONE_WIDTH,
        ],
        ids=[
            "every-width",
            "shuffled",
            "across-blocks",
            "decreasing",
            "no-rows",
            "uint32-split",
            "uint32-split-shuffled",
            "one-width-block",
        ],
    )
    def test_bytes_equal_f_string_rendering(self, tmp_path, times, state_dtype, meta):
        assert _ACROSS_BLOCKS[1 << 16] == 100_000 and _ACROSS_BLOCKS[10] == 10_000
        states = np.random.default_rng(4).integers(0, 2, size=len(times))
        states = states.astype(state_dtype)
        path = tmp_path / "rows.csv"
        _write_explicit(path, times, states, meta)
        assert path.read_bytes() == _rendered(times, states, meta)

    def test_peak_allocation_is_per_block(self, tmp_path):
        # a temporary over the whole array (8 MB of int64 here) would show
        times = np.arange(1, 1_000_001, dtype=np.int64)
        states = np.zeros(1_000_000, dtype=np.int8)
        dataset = ObservedDataset(times=times, states=states)
        tracemalloc.start()
        try:
            dataset.save(tmp_path / "rows.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    # 70 000 implicit indices run from 1 to 5 digits and cross a block boundary;
    # from 10**4 on, rows go out in spans aligned at multiples of 10**5: the
    # first starts at 10**4, 99 999 ends one exactly, 100 000 starts six digits,
    # and 200 001 rewrites the prefix digit of a reused six-digit span buffer
    @pytest.mark.parametrize(
        "n",
        [0, 1, 9_999, 10_000, 10_001, 70_000, 99_999, 100_000, 100_001, 200_001],
    )
    def test_implicit_times_equal_explicit(self, tmp_path, n):
        states = np.random.default_rng(6).integers(0, 2, size=n).astype(np.int8)
        meta = {"tool": "chan-em"}
        _write_implicit(tmp_path / "implicit.csv", states, meta)
        _write_explicit(tmp_path / "explicit.csv", np.arange(1, n + 1), states, meta)
        implicit = (tmp_path / "implicit.csv").read_bytes()
        assert implicit == (tmp_path / "explicit.csv").read_bytes()
        assert implicit == _rendered(np.arange(1, n + 1), states, meta)

    # pieces that end on the head's last slot (9 999), on a span's last slot
    # (99 999, 199 999), just past a span's first (100 001), inside spans,
    # and one piece across a span and a width change (999 990 -> 1 000 010)
    @pytest.mark.parametrize(
        "cuts",
        [
            [9_999, 99_999, 100_001, 150_000, 199_999],
            [1, 2, 70_000, 999_990],
            [5_000, 12_345, 1_000_001],
        ],
    )
    def test_slot_rows_in_pieces_equal_one_write(self, tmp_path, cuts):
        n = 1_000_010
        states = np.random.default_rng(7).integers(0, 2, size=n).astype(np.int8)
        bounds = [0, *cuts, n]
        with open_slot_states(tmp_path / "pieces.csv", {"tool": "chan-em"}) as fh:
            rows = _SlotRows(fh)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                rows.write(states[lo:hi])
        _write_implicit(tmp_path / "whole.csv", states, {"tool": "chan-em"})
        pieces = (tmp_path / "pieces.csv").read_bytes()
        assert pieces == (tmp_path / "whole.csv").read_bytes()
        assert pieces == _rendered(np.arange(1, n + 1), states, {"tool": "chan-em"})

    def test_slot_rows_write_long_runs_unexpanded(self, tmp_path):
        # two runs, from the head through three digit counts, written span by
        # span from broadcast views
        lens = np.array([3_200_000, 300_000])
        states = np.array([1, 0], dtype=np.int8)
        np.random.default_rng(0)  # numpy imports np.random on first use: not traced
        with open_slot_states(tmp_path / "runs.csv") as fh:
            tracemalloc.start()
            try:
                assert _SlotRows(fh).runs(states, lens) is None
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2.5 * 2**20  # a span's rows and digits; the run is 3.05 MiB
        _write_implicit(tmp_path / "whole.csv", np.repeat(states, lens))
        whole = (tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "runs.csv").read_bytes() == whole

    def test_implicit_times_peak_allocation_is_per_block(self, tmp_path):
        states = np.zeros(1_000_000, dtype=np.int8)
        tracemalloc.start()
        try:
            _write_implicit(tmp_path / "rows.csv", states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
