"""Gap likelihoods, matrix powers, oracles, and the error score."""

from __future__ import annotations

import math
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
    squared_error_db,
    transition_matrix,
    transition_powers,
)
from chan_em import likelihood
from chan_em.likelihood import gap_posterior
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

    def test_zero_probability_gap_named(self):
        # alpha = beta = 1 alternates deterministically: 0 -> 1 in 2 steps is impossible
        dataset = ObservedDataset(times=[1, 2, 4], states=[1, 0, 1])
        with pytest.raises(ZeroProbabilityError, match="gap 0->1 over 2 steps"):
            gap_posterior(dataset, ChannelParams(1.0, 1.0))

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


def posterior_fields(dataset: ObservedDataset, params: ChannelParams) -> tuple:
    result = gap_posterior(dataset, params)
    return (*result.as_tuple(), result.log_likelihood)


def assert_matches_oracles(dataset: ObservedDataset, params: ChannelParams) -> None:
    """Kernel against n_step_matrix (single gap) and both enumeration oracles."""
    result = gap_posterior(dataset, params)
    if dataset.num_observations == 2:
        (a, b), steps = dataset.states, int(dataset.times[1]) - 1
        assert math.exp(result.log_likelihood) == pytest.approx(
            n_step_matrix(params, steps)[a, b], rel=1e-12
        )
    assert math.exp(result.log_likelihood) == pytest.approx(
        brute_force_likelihood(dataset, params), rel=1e-10
    )
    oracle = brute_force_expected_stats(dataset, params)
    for got, want in zip(result.as_tuple(), oracle.as_tuple()):
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
        assert (dataset.gap_plan.steps == 1).all()
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
                assert len(plan.steps) == 1
                assert len(plan.bits) == (hidden + 1).bit_length()
                for params in self.PARAMS:
                    assert_matches_oracles(dataset, params)

    @pytest.mark.parametrize("hidden", [2**10 - 2, 2**10 - 1])
    def test_long_single_signature_matches_n_step_matrix(self, hidden):
        for a in (0, 1):
            for b in (0, 1):
                dataset = ObservedDataset(times=[1, hidden + 2], states=[a, b])
                for params in self.PARAMS:
                    value = math.exp(gap_posterior(dataset, params).log_likelihood)
                    assert value == pytest.approx(
                        n_step_matrix(params, hidden + 1)[a, b], rel=1e-12
                    )


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
            fast = e_step(dataset, params).as_tuple()
            for got, want in zip(fast, counts):
                if want == 0.0:
                    assert got == 0.0, where
                else:
                    assert got == pytest.approx(want, rel=1e-12), where


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
