"""Gap likelihoods, matrix powers, oracles, and the error score."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chan_em import (
    BoundaryParameterError,
    ChannelParams,
    EmConfig,
    EnumerationLimitError,
    ObservedDataset,
    SE_FLOOR_DB,
    ZeroProbabilityError,
    brute_force_expected_stats,
    brute_force_likelihood,
    complete_log_likelihood,
    count_statistics,
    e_step,
    geometric_mean_likelihood,
    incomplete_log_likelihood,
    multi_start,
    n_step_matrix,
    run_em,
    se_db_between,
    transition_matrix,
)
from chan_em import SufficientStats, likelihood
from chan_em.likelihood import (
    gap_posteriors,
    squared_error_db,
    transition_powers,
)
from conftest import random_small_instance


class TestNStepMatrix:
    def test_one_step_is_transition_matrix(self):
        params = ChannelParams(0.25, 0.65)
        np.testing.assert_allclose(n_step_matrix(params, 1), transition_matrix(params))

    def test_symmetric_chain(self):
        # alpha = beta = 0.5 mixes in one step: every power equals [[.5,.5],[.5,.5]]
        params = ChannelParams(0.5, 0.5)
        for n in (1, 2, 5, 100):
            np.testing.assert_allclose(n_step_matrix(params, n), np.full((2, 2), 0.5),
                                       atol=1e-12)

    def test_four_step_value(self):
        # hand-expanded P^2 = [[0.28,0.72],[0.27,0.73]], squared again
        value = n_step_matrix(ChannelParams(0.8, 0.3), 4)
        np.testing.assert_allclose(
            value, [[0.2728, 0.7272], [0.2727, 0.7273]], atol=1e-12
        )

    def test_chapman_kolmogorov(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = ChannelParams(
                float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            )
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            np.testing.assert_allclose(
                n_step_matrix(params, m) @ n_step_matrix(params, n),
                n_step_matrix(params, m + n),
                atol=1e-10,
            )

    def test_large_power_converges_to_stationary(self):
        params = ChannelParams(0.8, 0.3)
        P = n_step_matrix(params, 10_000_000)
        u = 0.3 / 1.1
        np.testing.assert_allclose(P, [[u, 1 - u], [u, 1 - u]], atol=1e-12)
        # rows remain stochastic after the long product
        np.testing.assert_allclose(P.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_power_stack_consistent(self):
        params = ChannelParams(0.35, 0.6)
        stack = transition_powers(params, 12)
        np.testing.assert_allclose(stack[0], np.eye(2))
        for n in range(1, 13):
            np.testing.assert_allclose(stack[n], n_step_matrix(params, n), atol=1e-13)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            n_step_matrix(ChannelParams(0.5, 0.5), 0)


class TestIncompleteLogLikelihood:
    def test_single_gap_example(self):
        dataset = ObservedDataset(times=[1, 5], states=[0, 1])
        value = incomplete_log_likelihood(dataset, ChannelParams(0.8, 0.3))
        assert value == pytest.approx(math.log(0.7272), abs=1e-12)

    def test_symmetric_chain_value(self):
        # every gap contributes log 0.5 regardless of its shape
        dataset = ObservedDataset(times=[1, 3, 4, 9], states=[0, 1, 1, 0])
        value = incomplete_log_likelihood(dataset, ChannelParams(0.5, 0.5))
        assert value == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_no_hidden_slots_matches_complete(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            states = rng.integers(0, 2, size=30)
            dataset = ObservedDataset(times=np.arange(1, 31), states=states)
            params = ChannelParams(
                float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            )
            assert incomplete_log_likelihood(dataset, params) == pytest.approx(
                complete_log_likelihood(count_statistics(states), params), abs=1e-10
            )

    def test_boundary_rejected(self):
        dataset = ObservedDataset(times=[1, 3], states=[0, 1])
        with pytest.raises(BoundaryParameterError):
            incomplete_log_likelihood(dataset, ChannelParams(0.0, 0.3))
        # alpha = beta = 1 alternates deterministically: 0 -> 1 in 2 steps is
        # impossible, but the kernel rejects the point before it gets there
        dataset = ObservedDataset(times=[1, 2, 4], states=[1, 0, 1])
        corner = ChannelParams(1.0, 1.0)
        with pytest.raises(BoundaryParameterError):
            e_step(dataset, corner)
        with pytest.raises(BoundaryParameterError):
            gap_posteriors(dataset, [corner.as_tuple()])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            dataset, params = random_small_instance(rng)
            fast = math.exp(incomplete_log_likelihood(dataset, params))
            slow = brute_force_likelihood(dataset, params)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_insertion_consistency(self):
        # revealing one hidden slot and summing over its two values
        # recovers the coarser dataset's likelihood
        rng = np.random.default_rng(16)
        for _ in range(20):
            dataset, params = random_small_instance(rng)
            hidden_gaps = [i for i in range(dataset.num_observations - 1)
                           if dataset.times[i + 1] - dataset.times[i] > 1]
            if not hidden_gaps:
                continue
            gap_index = hidden_gaps[0]
            insert_at = int(dataset.times[gap_index]) + 1
            total = 0.0
            for inserted_state in (0, 1):
                times = np.insert(dataset.times, gap_index + 1, insert_at)
                states = np.insert(dataset.states, gap_index + 1, inserted_state)
                refined = ObservedDataset(times=times, states=states)
                total += math.exp(incomplete_log_likelihood(refined, params))
            assert total == pytest.approx(
                math.exp(incomplete_log_likelihood(dataset, params)), rel=1e-10
            )


class TestBruteForce:
    def test_fully_observed_is_plain_product(self):
        states = np.array([0, 1, 1, 0])
        dataset = ObservedDataset(times=[1, 2, 3, 4], states=states)
        params = ChannelParams(0.7, 0.2)
        P = transition_matrix(params)
        expected = float(P[states[:-1], states[1:]].prod())
        assert brute_force_likelihood(dataset, params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_end_state_total_probability(self):
        # likelihoods over both possible final states sum to the likelihood
        # of the dataset without its final observation
        params = ChannelParams(0.45, 0.3)
        prefix = ObservedDataset(times=[1, 4, 7], states=[0, 1, 0])
        total = sum(
            brute_force_likelihood(
                ObservedDataset(times=[1, 4, 7, 10], states=[0, 1, 0, end]), params
            )
            for end in (0, 1)
        )
        assert total == pytest.approx(
            brute_force_likelihood(prefix, params), rel=1e-12
        )

    def test_boundary_params_allowed(self):
        dataset = ObservedDataset(times=[1, 3], states=[0, 0])
        # alpha = 1 forbids staying occupied two steps without visiting idle
        value = brute_force_likelihood(dataset, ChannelParams(1.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_enumeration_bound(self):
        dataset = ObservedDataset(times=[1, 23], states=[0, 1])
        with pytest.raises(EnumerationLimitError):
            brute_force_likelihood(dataset, ChannelParams(0.5, 0.5))


def fields(
    result: tuple[np.ndarray, np.ndarray],
) -> list[tuple[float, float, float, float, float]]:
    """The kernel's arrays as one row per point: four counts, log-likelihood."""
    expected, log_likelihood = result
    assert expected.shape == (len(log_likelihood), 4)
    assert log_likelihood.shape == (len(expected),)
    rows = zip(expected.tolist(), log_likelihood.tolist())
    return [(*row, value) for row, value in rows]


def pairs(points: list[ChannelParams]) -> list[tuple[float, float]]:
    return [point.as_tuple() for point in points]


def posterior_fields(dataset: ObservedDataset, params: ChannelParams) -> tuple:
    """The kernel's row 0 at one point."""
    (row,) = fields(gap_posteriors(dataset, [params.as_tuple()]))
    return row


def assert_matches_oracles(dataset: ObservedDataset, params: ChannelParams) -> None:
    """Kernel against n_step_matrix (single gap) and both enumeration oracles."""
    *counts, log_likelihood = posterior_fields(dataset, params)
    if dataset.num_observations == 2:
        (a, b), steps = dataset.states, int(dataset.times[1]) - 1
        assert math.exp(log_likelihood) == pytest.approx(
            n_step_matrix(params, steps)[a, b], rel=1e-12
        )
    assert math.exp(log_likelihood) == pytest.approx(
        brute_force_likelihood(dataset, params), rel=1e-10
    )
    oracle = brute_force_expected_stats(dataset, params)
    for got, want in zip(counts, oracle.as_tuple()):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestGapPlan:
    """The per-dataset plan: built once, never shared, exact at bit edges."""

    PARAMS = [
        ChannelParams(0.3, 0.7),
        ChannelParams(1e-9, 1e-9),
        ChannelParams(0.999, 0.5),
        ChannelParams(1 - 1e-9, 1 - 1e-9),
    ]

    @staticmethod
    def fresh(dataset: ObservedDataset) -> ObservedDataset:
        return ObservedDataset(times=dataset.times, states=dataset.states)

    def test_interleaved_datasets_match_fresh_copies(self):
        rng = np.random.default_rng(40)
        times_a = np.concatenate(([1], 1 + np.cumsum(rng.integers(1, 7, 299))))
        times_b = np.concatenate(([1], 1 + np.cumsum(rng.integers(100, 900, 99))))
        a = ObservedDataset(times=times_a, states=rng.integers(0, 2, size=300))
        b = ObservedDataset(times=times_b, states=rng.integers(0, 2, size=100))
        assert len(a.gap_plan.bits) != len(b.gap_plan.bits)
        for params in self.PARAMS:
            for dataset in (a, b, a):
                assert posterior_fields(dataset, params) == posterior_fields(
                    self.fresh(dataset), params
                )

    def test_built_once_per_dataset(self, monkeypatch):
        builds = []
        original = likelihood.build_gap_plan

        def counted(dataset):
            builds.append(dataset)
            return original(dataset)

        monkeypatch.setattr(likelihood, "build_gap_plan", counted)
        rng = np.random.default_rng(41)
        dataset, _ = random_small_instance(rng)
        config = EmConfig(max_iterations=7, record_trajectory=True)
        report = run_em(dataset, ChannelParams(0.4, 0.6), config)
        assert report.iterations_run == 7
        plan = dataset.gap_plan
        multi_start(dataset, [ChannelParams(0.2, 0.3), ChannelParams(0.7, 0.1)], config)
        assert builds == [dataset]
        assert dataset.gap_plan is plan

    def test_no_hidden_slots_single_bit(self):
        rng = np.random.default_rng(42)
        dataset = ObservedDataset(
            times=np.arange(1, 13), states=rng.integers(0, 2, size=12)
        )
        assert (dataset.gap_histogram[0][:, 2] == 0).all()
        assert len(dataset.gap_plan.bits) == 1
        for params in self.PARAMS:
            assert_matches_oracles(dataset, params)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("below", [1, 2])
    def test_single_signature_at_bit_length_edges(self, bits, below):
        # hidden 2**k - 2 makes steps all ones in k bits; 2**k - 1 carries to k + 1
        hidden = 2**bits - below
        for a in (0, 1):
            for b in (0, 1):
                dataset = ObservedDataset(times=[1, hidden + 2], states=[a, b])
                plan = dataset.gap_plan
                assert len(plan.counts) == 1
                assert len(plan.bits) == (hidden + 1).bit_length()
                for params in self.PARAMS:
                    assert_matches_oracles(dataset, params)

    @pytest.mark.parametrize("hidden", [2**10 - 2, 2**10 - 1])
    def test_long_single_signature_matches_n_step_matrix(self, hidden):
        for a in (0, 1):
            for b in (0, 1):
                dataset = ObservedDataset(times=[1, hidden + 2], states=[a, b])
                for params in self.PARAMS:
                    value = math.exp(posterior_fields(dataset, params)[4])
                    assert value == pytest.approx(
                        n_step_matrix(params, hidden + 1)[a, b], rel=1e-12
                    )


def random_points(rng: np.random.Generator, count: int) -> list[ChannelParams]:
    """Interior points, a third of them within 1e-6 of a corner of the square."""
    points = []
    for _ in range(count):
        a, b = rng.uniform(0.0, 1.0, size=2)
        if rng.random() < 1 / 3:
            a, b = rng.choice([1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9], size=2)
        points.append(ChannelParams(float(a), float(b)))
    return points


def unbatched_posterior(dataset: ObservedDataset, params: ChannelParams) -> tuple:
    """The kernel's arithmetic on one 2-D M, with no stacking or shortcut."""
    plan = dataset.gap_plan
    M = np.zeros((10, 10))
    M[likelihood._M_ROW, likelihood._M_COL] = transition_matrix(params).ravel()[
        likelihood._M_SRC
    ]
    rows, power = np.eye(10)[dataset.gap_histogram[0][:, 0]], M
    for bit, mask in enumerate(plan.bits):
        if bit:
            power = power @ power
        rows = np.where(mask, rows @ power, rows)
    blocks = rows.take(plan.gather)
    prob = blocks[:, 0]
    expected = plan.counts @ (blocks[:, 1:] / prob[:, None])
    return (*map(float, expected), float(plan.counts @ np.log(prob)))


class TestBatchedKernel:
    """gap_posteriors: every point as a one-point call, whatever the batch."""

    def test_equals_one_point_calls_bit_for_bit(self):
        rng = np.random.default_rng(50)
        for max_hidden in (0, 5, 900, 100_000):
            gaps = rng.integers(0, max_hidden + 1, size=199)
            times = np.concatenate(([1], 1 + np.cumsum(gaps + 1)))
            dataset = ObservedDataset(times=times, states=rng.integers(0, 2, size=200))
            for count in (1, 2, 3, 8):
                points = random_points(rng, count)
                batch = fields(gap_posteriors(dataset, pairs(points)))
                assert batch == [posterior_fields(dataset, p) for p in points]
                assert batch == [unbatched_posterior(dataset, p) for p in points]
                # and no point depends on its neighbours in the batch
                reverse = fields(gap_posteriors(dataset, pairs(points[::-1])))
                assert reverse == batch[::-1]

    def test_matches_oracles(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            dataset, _ = random_small_instance(rng)
            points = random_points(rng, int(rng.integers(2, 6)))
            batch = fields(gap_posteriors(dataset, pairs(points)))
            for point, (*counts, log_likelihood) in zip(points, batch):
                assert math.exp(log_likelihood) == pytest.approx(
                    brute_force_likelihood(dataset, point), rel=1e-10
                )
                oracle = brute_force_expected_stats(dataset, point)
                for got, want in zip(counts, oracle.as_tuple()):
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_batched_reduction_keeps_one_dataset_bits(self, monkeypatch):
        # long-gap's data; each point's (1, S) @ (S, 4) and (1, S) @ (S, 1)
        # reductions, batched with one shared counts row or with a row per
        # point (twin: the same data, another object), give the bits of the
        # unbatched (S,) @ (B, S, 4) and (B, 1, S) @ (S,)
        from chan_em.harness import realize_histogram
        from chan_em.observation import GapHistogram, ObservationSchedule

        schedule = ObservationSchedule.random_uniform(list(range(100, 801, 100)))
        dataset = realize_histogram(ChannelParams(0.002, 0.003), schedule, 6000, 0)
        twin = GapHistogram(*dataset.gap_histogram, dataset.first_state)
        counts = dataset.gap_plan.counts
        reduced = []
        original = likelihood._reduce

        def recorded(batch_counts, blocks):
            reduced.append(blocks)
            return original(batch_counts, blocks)

        monkeypatch.setattr(likelihood, "_reduce", recorded)
        rng = np.random.default_rng(53)
        for _ in range(300):
            count = int(rng.integers(1, 9))
            points = [
                tuple(map(float, rng.uniform(1e-4, 0.3, size=2)))
                for _ in range(count)
            ]
            batch = fields(gap_posteriors(dataset, points))
            assert fields(gap_posteriors(dataset, points, [twin] * count)) == batch
            blocks = reduced[-2]
            prob = blocks[..., 0]
            expected = counts @ (blocks[..., 1:] / prob[..., None])
            log_likelihood = np.log(prob)[:, None] @ counts
            assert batch == fields((expected, log_likelihood.ravel()))

    def test_points_reduced_with_their_own_datasets_counts(self, monkeypatch):
        # datasets with one signature table and different counts: each
        # point of a shared call gets the result of a call on its own
        # dataset, also when the batch is split
        rng = np.random.default_rng(54)
        times = np.concatenate(([1], 1 + np.cumsum(rng.integers(1, 5, size=300))))
        datasets = [
            ObservedDataset(times=times, states=rng.integers(0, 2, size=len(times)))
            for _ in range(40)
        ]
        table = datasets[0].gap_histogram[0]
        shared = [d for d in datasets if np.array_equal(d.gap_histogram[0], table)]
        assert len(shared) >= 3
        assert len({d.gap_histogram[1].tobytes() for d in shared}) == len(shared)
        points = random_points(rng, len(shared))
        batch = fields(gap_posteriors(shared[0], pairs(points), shared))
        assert batch == [posterior_fields(d, p) for d, p in zip(shared, points)]
        monkeypatch.setattr(likelihood, "MAX_BATCH_ROWS", 2 * len(table))
        assert fields(gap_posteriors(shared[0], pairs(points), shared)) == batch

    @pytest.mark.parametrize("per_call", [1, 2, 3])
    def test_batch_split_over_the_row_limit(self, monkeypatch, per_call):
        rng = np.random.default_rng(52)
        dataset, _ = random_small_instance(rng)
        points = pairs(random_points(rng, 7))
        whole = fields(gap_posteriors(dataset, points))
        signatures = len(dataset.gap_histogram[0])
        sizes = []
        original = likelihood._posteriors

        def recorded(plan, counts, chunk):
            sizes.append(len(chunk))
            return original(plan, counts, chunk)

        monkeypatch.setattr(likelihood, "_posteriors", recorded)
        monkeypatch.setattr(likelihood, "MAX_BATCH_ROWS", per_call * signatures)
        split = fields(gap_posteriors(dataset, points))
        assert split == whole
        assert sizes == {1: [1] * 7, 2: [2, 2, 2, 1], 3: [3, 3, 1]}[per_call]
        for point, row in zip(points, split):
            assert math.exp(row[4]) == pytest.approx(
                brute_force_likelihood(dataset, ChannelParams(*point)), rel=1e-10
            )

    def test_underflow_fails_the_call(self):
        # at a subnormal beta, staying occupied over 2**40 + 1 steps underflows
        dataset = ObservedDataset(times=[1, 2 + 2**40], states=[0, 0])
        points = [(0.5, 0.5), (0.5, 5e-324)]
        with pytest.raises(ZeroProbabilityError, match=r"at \(0\.5, 5e-324\)$"):
            gap_posteriors(dataset, points)

    def test_results_satisfy_sufficient_stats_checks(self):
        # SufficientStats' checks must hold on every kernel result, up to the
        # unit square's corners
        corners = [(1e-9, 1e-9), (1 - 1e-9, 1 - 1e-9)]
        rng = np.random.default_rng(53)
        for _ in range(100):
            dataset, params = random_small_instance(rng)
            expected, _ = gap_posteriors(dataset, [params.as_tuple(), *corners])
            assert expected.dtype == np.float64
            for row in expected.tolist():
                # the constructor runs the checks, and raises if one fails
                assert SufficientStats(*row).as_tuple() == tuple(row)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((-1e-3, 0.0, 2.0, 2.0), "occ_to_idle must be non-negative"),
            ((0.0, 0.0, 2.0, -1e-3), "from_idle must be non-negative"),
            ((2.0 + 3e-9, 0.0, 2.0, 2.0), "occ_to_idle cannot exceed from_occ"),
            ((0.0, 1e-6, 0.0, 0.0), "idle_to_occ cannot exceed from_idle"),
        ],
    )
    def test_bad_counts_row_raises_sufficient_stats_message(self, row, message):
        # blocks of one signature, count 1, whose reduced row is `row`:
        # (prob, then prob times each count)
        good = [0.5, 0.25, 0.25, 0.5, 0.5]
        bad = [0.5, *(0.5 * count for count in row)]
        counts = np.ones(1)
        with pytest.raises(ValueError) as direct:
            SufficientStats(*row)
        assert str(direct.value) == message
        # the first failing point decides, whatever follows it
        for blocks in ([[good], [bad]], [[bad], [bad], [good]]):
            with pytest.raises(ValueError) as reduced:
                likelihood._reduce(counts, np.array(blocks))
            assert str(reduced.value) == message
        # within the slack, the same row of a point passes
        slack = np.array([[[1.0, 1.0 + 5e-10, 0.0, 1.0, 1.0]]])
        expected, _ = likelihood._reduce(counts, slack)
        assert expected.tolist() == [[1.0 + 5e-10, 0.0, 1.0, 1.0]]

    def test_e_step_batches_interior_points_only(self):
        dataset = ObservedDataset(times=[1, 3, 4], states=[0, 1, 1])
        points = [ChannelParams(0.4, 0.6), ChannelParams(0.7, 0.2)]
        one_point = [e_step(dataset, p) for p in points]
        assert fields(e_step(dataset, pairs(points))) == [
            (*stats.as_tuple(), log_likelihood) for stats, log_likelihood in one_point
        ]
        for boundary in (ChannelParams(0.0, 0.5), ChannelParams(1.0, 1.0)):
            with pytest.raises(BoundaryParameterError):
                e_step(dataset, pairs([ChannelParams(0.4, 0.6), boundary]))
            with pytest.raises(BoundaryParameterError):
                gap_posteriors(dataset, pairs([ChannelParams(0.4, 0.6), boundary]))


def exact_gap_values(alpha: float, beta: float, hidden_lengths: list[int]) -> dict:
    """Exact [P^(g+1)]_{a,b} and expected counts for every gap signature.

    alpha and beta enter at their exact rational values. Floats are dyadic,
    so over a common denominator `scale` every P^n is an integer matrix over
    scale^n and the bridge sums of the E-step identity are exact integer
    sums; only the final divisions round, and Python rounds int / int
    correctly. Returns {(a, b, g): (probability, (occ_to_idle, idle_to_occ,
    from_occ, from_idle))} with an exactly zero count as 0.0.
    """
    exact_alpha, exact_beta = Fraction(alpha), Fraction(beta)
    scale = max(exact_alpha.denominator, exact_beta.denominator)
    A, B = int(exact_alpha * scale), int(exact_beta * scale)
    P = [[scale - A, A], [B, scale - B]]
    powers = [[[1, 0], [0, 1]]]
    for _ in range(max(hidden_lengths) + 1):
        last = powers[-1]
        powers.append(
            [[last[i][0] * P[0][j] + last[i][1] * P[1][j] for j in (0, 1)]
             for i in (0, 1)]
        )
    out = {}
    for g in hidden_lengths:
        for a in (0, 1):
            for b in (0, 1):
                total = powers[g + 1][a][b]
                # bridge[u][v] = sum_j [P^j]_{a,u} P_{u,v} [P^(g-j)]_{v,b}
                bridge = [
                    [P[u][v] * sum(powers[j][a][u] * powers[g - j][v][b]
                                   for j in range(g + 1)) for v in (0, 1)]
                    for u in (0, 1)
                ]
                counts = (
                    bridge[0][1],
                    bridge[1][0],
                    bridge[0][0] + bridge[0][1],
                    bridge[1][0] + bridge[1][1],
                )
                out[a, b, g] = (
                    total / scale ** (g + 1),
                    tuple(c / total for c in counts),
                )
    return out


class TestExactNearBoundary:
    """Gap kernel against exact rational arithmetic, up to the unit square's corners.

    Gaps reach far past the enumeration oracle's MAX_ENUMERATION_HIDDEN, and
    near alpha + beta -> 0 or 2 a kernel built on 1 - alpha - beta loses
    digits; one built from sums of non-negative terms must not.
    """

    @pytest.mark.parametrize(
        "alpha, beta",
        [(1e-9, 1e-9), (1e-9, 1 - 1e-9), (1 - 1e-9, 1 - 1e-9), (0.002, 0.003),
         (0.8, 0.3)],
    )
    def test_matches_exact_rational_oracle(self, alpha, beta):
        params = ChannelParams(alpha, beta)
        exact = exact_gap_values(alpha, beta, [*range(61), 150])
        for (a, b, g), (prob, counts) in exact.items():
            dataset = ObservedDataset(times=[1, g + 2], states=[a, b])
            where = f"gap {a}->{b}, {g} hidden"
            assert math.exp(incomplete_log_likelihood(dataset, params)) == (
                pytest.approx(prob, rel=1e-12)
            ), where
            assert n_step_matrix(params, g + 1)[a, b] == pytest.approx(
                prob, rel=1e-12
            ), where
            fast = e_step(dataset, params)[0].as_tuple()
            for got, want in zip(fast, counts):
                if want == 0.0:
                    assert got == 0.0, where
                else:
                    assert got == pytest.approx(want, rel=1e-12), where

    def test_clamp_floor_keeps_every_gap_probability_normal(self):
        # an underflowing gap fails the whole kernel call, and the E-M loop
        # relies on this test that no clamped point reaches one: it has no
        # fallback and lets the kernel's error stop every run of the call. At
        # every corner that a clamp can reach (eps just above 2**-54 makes
        # 1 - eps round to 1 - 2**-53) and at every gap length a dataset
        # admits, each gap probability must stay a normal double
        edges = [math.ldexp(1 + 2**-52, -54), 2**-53, 1e-9, 0.5, 1 - 1e-9, 1 - 2**-53]
        points = [ChannelParams(a, b) for a in edges for b in edges]
        lengths = [0, 1, 2, *(2**k - d for k in (3, 10, 32, 53) for d in (2, 1)),
                   2**61 - 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for g in lengths:
                for a in (0, 1):
                    for b in (0, 1):
                        dataset = ObservedDataset(times=[1, g + 2], states=[a, b])
                        results = fields(gap_posteriors(dataset, pairs(points)))
                        for point, values in zip(points, results):
                            where = f"gap {a}->{b}, {g} hidden, at {point}"
                            assert all(map(math.isfinite, values)), where
                            assert math.exp(values[4]) > 2.2e-308, where


class TestSquaredErrorDb:
    def test_floor_at_coincidence(self):
        dataset = ObservedDataset(times=[1, 5, 8], states=[0, 1, 0])
        params = ChannelParams(0.6, 0.4)
        assert squared_error_db(dataset, params, params) == SE_FLOOR_DB

    def test_equals_se_db_between_geometric_means(self):
        dataset = ObservedDataset(times=[1, 5], states=[0, 1])
        est, ref = ChannelParams(0.5, 0.5), ChannelParams(0.8, 0.3)
        expected = se_db_between(
            geometric_mean_likelihood(dataset, est),
            geometric_mean_likelihood(dataset, ref),
        )
        assert squared_error_db(dataset, est, ref) == expected

    def test_floor_applied_to_tiny_gaps(self):
        assert se_db_between(0.5, 0.5 + 1e-17) == SE_FLOOR_DB
        assert se_db_between(0.5, 0.5) == SE_FLOOR_DB

    def test_closer_reference_scores_lower(self):
        dataset = ObservedDataset(times=[1, 5], states=[0, 1])
        truth = ChannelParams(0.8, 0.3)
        near = squared_error_db(dataset, ChannelParams(0.79, 0.31), truth)
        far = squared_error_db(dataset, ChannelParams(0.4, 0.9), truth)
        assert near < far
