"""E-M estimator: E-step oracle agreement, M-step, runs, multi-start."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from chan_em import (
    AllStartsFailedError,
    BoundaryParameterError,
    ChannelParams,
    DegenerateObservationsError,
    EmConfig,
    InsufficientDataError,
    ObservationSchedule,
    ObservedDataset,
    ZeroProbabilityError,
    brute_force_expected_stats,
    count_statistics,
    e_step,
    heuristic_starts,
    incomplete_log_likelihood,
    m_step,
    mle_complete,
    multi_start,
    observe,
    relative_error,
    run_em,
    run_em_each,
    score_against_truth,
    simulate_chain,
)
from conftest import random_small_instance


def assert_logliks_exact(dataset, report):
    """Every log-likelihood a report carries equals a fresh evaluation."""
    assert report.log_likelihood == incomplete_log_likelihood(dataset, report.estimate)
    for step in report.trajectory.steps if report.trajectory else []:
        at_step = ChannelParams(step.alpha, step.beta)
        assert step.log_likelihood == incomplete_log_likelihood(dataset, at_step)


class TestEStep:
    def test_no_hidden_slots_reduces_to_counts(self):
        rng = np.random.default_rng(20)
        states = rng.integers(0, 2, size=40)
        dataset = ObservedDataset(times=np.arange(1, 41), states=states)
        expected, _ = e_step(dataset, ChannelParams(0.37, 0.81))
        counted = count_statistics(states)
        assert expected.as_tuple() == pytest.approx(counted.as_tuple(), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            dataset, params = random_small_instance(rng)
            fast, log_likelihood = e_step(dataset, params)
            slow = brute_force_expected_stats(dataset, params)
            assert fast.as_tuple() == pytest.approx(slow.as_tuple(), abs=1e-10)
            assert log_likelihood == incomplete_log_likelihood(dataset, params)

    def test_mass_conservation(self):
        # expected transition counts always add up to the spanned window
        sched = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6), seed=31)
        seq = simulate_chain(ChannelParams(0.8, 0.3), 50_000, seed=31)
        dataset = observe(seq, sched)
        for params in (ChannelParams(0.5, 0.5), ChannelParams(0.9, 0.1)):
            expected, _ = e_step(dataset, params)
            assert expected.total_transitions == pytest.approx(
                dataset.num_transitions, abs=1e-9
            )
        # two gaps of 10^6 hidden slots: the cost grows with log gap length
        long_gaps = ObservedDataset(times=[1, 1_000_002, 2_000_003], states=[0, 1, 1])
        for params in (ChannelParams(0.5, 0.5), ChannelParams(0.9, 0.1)):
            expected, _ = e_step(long_gaps, params)
            assert expected.total_transitions == pytest.approx(
                long_gaps.num_transitions, rel=1e-12
            )

    def test_boundary_rejected(self):
        dataset = ObservedDataset(times=[1, 3], states=[0, 1])
        with pytest.raises(BoundaryParameterError):
            e_step(dataset, ChannelParams(1.0, 0.5))


class TestMStep:
    def test_ratio(self):
        alpha, beta = m_step((30.0, 10.0, 100.0, 50.0))
        assert alpha == pytest.approx(0.3, abs=1e-15)
        assert beta == pytest.approx(0.2, abs=1e-15)

    def test_clamps_boundaries(self):
        assert m_step((0.0, 50.0, 100.0, 50.0), clamp_epsilon=1e-6) == (
            1e-6, 1.0 - 1e-6
        )

    def test_empty_denominator(self):
        with pytest.raises(InsufficientDataError):
            m_step((0.0, 1.0, 0.0, 5.0))

    def test_count_slack_clamps_to_one_minus_eps(self):
        # SufficientStats admits occ_to_idle above from_occ by under _COUNT_SLACK
        row = in_stats(100.00000005, 10.0, 100.0, 50.0).as_tuple()
        assert m_step(row, clamp_epsilon=1e-6) == (1.0 - 1e-6, 0.2)

    def test_equals_clamped_mle_bit_for_bit(self):
        # the loop's float M-step is mle_complete's estimate, clamped, on
        # kernel rows, on a row within the count slack and at a boundary
        rng = np.random.default_rng(23)
        rows = []
        for _ in range(50):
            dataset, params = random_small_instance(rng)
            expected, _ = e_step(dataset, [params.as_tuple(), (1e-9, 1 - 1e-9)])
            rows += expected.tolist()
        rows += [(100.00000005, 10.0, 100.0, 50.0), (0.0, 50.0, 100.0, 50.0)]
        for eps in (1e-9, 1e-6, 2**-53):
            for row in rows:
                clamped = mle_complete(in_stats(*row)).clamped(eps)
                assert m_step(row, eps) == clamped.as_tuple()
        assert m_step(rows[-2], 1e-6)[0] == 1.0 - 1e-6

    def test_zero_denominator_stops_the_run_with_its_iteration(self, monkeypatch):
        from chan_em import em

        # the second update's counts leave the occupied state zero times
        rows = []

        def emptied(expected, clamp_epsilon=1e-9):
            rows.append(list(expected))
            if len(rows) == 2:
                expected = [0.0, expected[1], 0.0, expected[3]]
            return m_step(expected, clamp_epsilon)

        monkeypatch.setattr(em, "m_step", emptied)
        dataset = ObservedDataset(times=[1, 3, 6, 7], states=[0, 1, 0, 0])
        with pytest.raises(InsufficientDataError) as info:
            run_em(dataset, ChannelParams(0.4, 0.4), EmConfig(max_iterations=5))
        with pytest.raises(InsufficientDataError) as direct:
            mle_complete(in_stats(0.0, rows[1][1], 0.0, rows[1][3]))
        assert str(info.value) == f"iteration 2: {direct.value}"
        assert str(info.value.__cause__) == str(direct.value)

    def test_complete_data_fixed_point(self):
        # starting anywhere, one E-M round on complete data lands on the MLE
        rng = np.random.default_rng(22)
        states = simulate_chain(ChannelParams(0.6, 0.2), 500, seed=3)
        dataset = ObservedDataset(times=np.arange(1, 501), states=states)
        truth_mle = mle_complete(count_statistics(states))
        for _ in range(5):
            anywhere = ChannelParams(
                float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            )
            expected, _ = e_step(dataset, anywhere)
            alpha, beta = m_step(expected.as_tuple())
            assert alpha == pytest.approx(truth_mle.alpha, abs=1e-12)
            assert beta == pytest.approx(truth_mle.beta, abs=1e-12)


def in_stats(t01: float, t10: float, n0: float, n1: float):
    from chan_em import SufficientStats

    return SufficientStats(
        occ_to_idle=t01, idle_to_occ=t10, from_occ=n0, from_idle=n1
    )


class TestRunEm:
    def test_complete_data_two_iterations(self, kernel_calls):
        states = simulate_chain(ChannelParams(0.7, 0.4), 300, seed=5)
        dataset = ObservedDataset(times=np.arange(1, 301), states=states)
        report = run_em(
            dataset,
            ChannelParams(0.5, 0.5),
            EmConfig(max_iterations=10, param_tolerance=1e-12),
        )
        assert len(kernel_calls) == report.iterations_run + 1
        assert_logliks_exact(dataset, report)
        mle = mle_complete(count_statistics(states))
        assert report.iterations_run <= 2
        assert report.estimate.alpha == pytest.approx(mle.alpha, abs=1e-9)
        assert report.estimate.beta == pytest.approx(mle.beta, abs=1e-9)

    def test_monotone_log_likelihood(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 30_000, seed=6)
        dataset = observe(seq, ObservationSchedule.fixed(4))
        report = run_em(
            dataset,
            ChannelParams(0.2, 0.8),
            EmConfig(max_iterations=60, record_trajectory=True),
        )
        logliks = [s.log_likelihood for s in report.trajectory.steps]
        diffs = np.diff(logliks)
        assert (diffs >= -1e-9).all()

    @pytest.mark.parametrize("record", [True, False])
    def test_one_kernel_call_per_iterate(self, kernel_calls, record):
        dataset = ObservedDataset(times=[1, 3, 6, 7], states=[0, 1, 0, 0])
        report = run_em(
            dataset, ChannelParams(0.4, 0.4),
            EmConfig(max_iterations=7, record_trajectory=record),
        )
        assert len(kernel_calls) == 8
        assert kernel_calls[-1] == report.estimate
        assert_logliks_exact(dataset, report)

    def test_trajectory_indexing(self):
        dataset = ObservedDataset(times=[1, 3, 6, 7], states=[0, 1, 0, 0])
        report = run_em(
            dataset, ChannelParams(0.4, 0.4),
            EmConfig(max_iterations=7, record_trajectory=True),
        )
        steps = report.trajectory.steps
        assert [s.iteration for s in steps] == list(range(8))
        assert steps[0].alpha == 0.4
        assert report.iterations_run == 7
        assert report.se_db is None
        assert report.gamma_percent is None

    def test_convergence_tolerance_stops_early(self, kernel_calls):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 20_000, seed=7)
        dataset = observe(seq, ObservationSchedule.fixed(1))
        report = run_em(
            dataset,
            ChannelParams(0.6, 0.5),
            EmConfig(max_iterations=5000, param_tolerance=1e-10,
                     record_trajectory=True),
        )
        assert report.iterations_run < 5000
        assert report.trajectory.converged_at == report.iterations_run
        assert len(report.trajectory.steps) == report.iterations_run + 1
        assert len(kernel_calls) == report.iterations_run + 1
        assert_logliks_exact(dataset, report)

    def test_converged_point_solves_ratio_equations(self):
        # at the E-M fixed point the M-step ratios reproduce the parameters
        seq = simulate_chain(ChannelParams(0.8, 0.3), 20_000, seed=8)
        dataset = observe(seq, ObservationSchedule.fixed(1))
        report = run_em(
            dataset, ChannelParams(0.6, 0.5),
            EmConfig(max_iterations=5000, param_tolerance=1e-12),
        )
        theta = report.estimate
        expected, _ = e_step(dataset, theta)
        alpha, beta = m_step(expected.as_tuple())
        assert alpha == pytest.approx(theta.alpha, abs=1e-8)
        assert beta == pytest.approx(theta.beta, abs=1e-8)

    def test_fixed_point_matches_direct_maximization(self):
        # independent oracle: derivative-free maximization of the incomplete
        # log-likelihood lands where E-M converged
        seq = simulate_chain(ChannelParams(0.7, 0.4), 4_000, seed=9)
        dataset = observe(seq, ObservationSchedule.fixed(1))
        report = run_em(
            dataset, ChannelParams(0.5, 0.5),
            EmConfig(max_iterations=20_000, param_tolerance=1e-13),
        )

        def negative_loglik(x) -> float:
            a = min(max(float(x[0]), 1e-9), 1 - 1e-9)
            b = min(max(float(x[1]), 1e-9), 1 - 1e-9)
            return -incomplete_log_likelihood(dataset, ChannelParams(a, b))

        best = optimize.minimize(
            negative_loglik,
            x0=[report.estimate.alpha, report.estimate.beta],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 10_000},
        )
        assert best.x[0] == pytest.approx(report.estimate.alpha, abs=1e-6)
        assert best.x[1] == pytest.approx(report.estimate.beta, abs=1e-6)

    def test_iterates_stay_clamped(self):
        # complete-data ratios hit 0 and 1 here; both get pulled inside
        dataset = ObservedDataset(times=[1, 2, 3, 4], states=[1, 0, 0, 0])
        report = run_em(
            dataset, ChannelParams(0.9, 0.9),
            EmConfig(max_iterations=50, clamp_epsilon=1e-6,
                     record_trajectory=True),
        )
        for step in report.trajectory.steps:
            assert 1e-6 <= step.alpha <= 1 - 1e-6
            assert 1e-6 <= step.beta <= 1 - 1e-6
        assert report.estimate.alpha == pytest.approx(1e-6, abs=1e-12)
        assert report.estimate.beta == pytest.approx(1 - 1e-6, abs=1e-12)

    def test_truth_scoring(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 50_000, seed=10)
        dataset = observe(seq, ObservationSchedule.fixed(4))
        truth = ChannelParams(0.8, 0.3)
        report = run_em(dataset, ChannelParams(0.6, 0.5), EmConfig(max_iterations=100))
        assert report.se_db is None and report.gamma_percent is None
        assert score_against_truth(dataset, [report], truth) is report
        assert report.se_db is not None and report.se_db < -40
        assert report.gamma_percent is not None and report.gamma_percent < 5.0

    def test_error_carries_iteration_index(self):
        dataset = ObservedDataset(times=np.arange(1, 11),
                                  states=np.ones(10, dtype=int))
        with pytest.raises(InsufficientDataError, match="iteration 1"):
            run_em(dataset, ChannelParams(0.5, 0.5), EmConfig(max_iterations=5))


class TestRelativeError:
    def test_exact(self):
        assert relative_error(ChannelParams(0.8, 0.3), ChannelParams(0.8, 0.3)) == 0.0

    def test_study_value(self):
        value = relative_error(ChannelParams(0.791, 0.297), ChannelParams(0.8, 0.3))
        assert value == pytest.approx(1.0625, abs=1e-10)

    def test_asymmetric_example(self):
        value = relative_error(ChannelParams(0.9, 0.15), ChannelParams(0.8, 0.3))
        assert value == pytest.approx(31.25, abs=1e-10)

    def test_degenerate_truth(self):
        from chan_em import DegenerateParametersError

        with pytest.raises(DegenerateParametersError):
            relative_error(ChannelParams(0.5, 0.5), ChannelParams(0.0, 0.3))


class TestMultiStart:
    def test_winner_identity_and_scoring(self, kernel_calls):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 40_000, seed=11)
        dataset = observe(seq, ObservationSchedule.fixed(4))
        starts = [ChannelParams(0.6, 0.5), ChannelParams(0.2, 0.9)]
        _, reports = multi_start(dataset, starts, EmConfig(max_iterations=100))
        winner = score_against_truth(dataset, reports, ChannelParams(0.8, 0.3))
        # one E-step per iterate of each run, plus the truth's score
        assert len(kernel_calls) == 2 * 101 + 1
        for report in reports:
            assert_logliks_exact(dataset, report)
        assert len(reports) == 2
        assert winner is reports[0]
        assert winner.se_db == min(r.se_db for r in reports)
        # pinned bit for bit: table1.csv writes these with repr
        assert [r.se_db for r in reports] == [-175.29422807540573, -145.19093579527276]
        assert [r.gamma_percent for r in reports] == [
            1.050126258424403, 11.107278210602272
        ]

    def test_winner_is_most_likely_run(self, kernel_calls):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 40_000, seed=12)
        dataset = observe(seq, ObservationSchedule.fixed(4))
        winner, reports = multi_start(
            dataset,
            [ChannelParams(0.3, 0.1), ChannelParams(0.6, 0.5)],
            EmConfig(max_iterations=50),
        )
        assert len(kernel_calls) == sum(r.iterations_run + 1 for r in reports)
        for report in reports:
            assert_logliks_exact(dataset, report)
        # the second start fits better, so the winner is not the first run
        assert reports[0].log_likelihood < reports[1].log_likelihood
        assert winner is reports[1]
        # no truth was given, so nothing is scored against one
        assert all(r.se_db is None and r.gamma_percent is None for r in reports)

    def test_identical_starts_tie_break_to_first(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 10_000, seed=13)
        dataset = observe(seq, ObservationSchedule.fixed(3))
        start = ChannelParams(0.6, 0.5)
        winner, reports = multi_start(
            dataset, [start, start, start], EmConfig(max_iterations=20)
        )
        assert winner is reports[0]

    def test_deterministic(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 10_000, seed=14)
        dataset = observe(seq, ObservationSchedule.fixed(3))
        starts = [ChannelParams(0.6, 0.5), ChannelParams(0.9, 0.8)]
        first = multi_start(dataset, starts, EmConfig(max_iterations=30))
        second = multi_start(dataset, starts, EmConfig(max_iterations=30))
        assert first == second

    def test_empty_starts(self):
        dataset = ObservedDataset(times=[1, 2], states=[0, 1])
        with pytest.raises(ValueError):
            multi_start(dataset, [], EmConfig())

    def test_all_starts_failed(self):
        # all-idle complete data never yields an occupied-state denominator
        dataset = ObservedDataset(times=np.arange(1, 11),
                                  states=np.ones(10, dtype=int))
        with pytest.raises(AllStartsFailedError):
            multi_start(dataset, [ChannelParams(0.5, 0.5)], EmConfig())


def run_fields(report) -> tuple:
    """What one E-M run produced, without the multi-start scores."""
    return (
        report.estimate,
        report.start,
        report.iterations_run,
        report.log_likelihood,
        report.trajectory,
    )


class TestLockstep:
    """multi_start runs its starts in lockstep, each exactly as run_em alone."""

    STARTS = [
        ChannelParams(0.6, 0.5),
        ChannelParams(0.2, 0.9),
        ChannelParams(0.95, 0.05),
        ChannelParams(0.3, 0.1),
        ChannelParams(0.6, 0.5),
    ]

    @pytest.fixture(scope="class")
    def dataset(self):
        seq = simulate_chain(ChannelParams(0.8, 0.3), 30_000, seed=15)
        return observe(seq, ObservationSchedule.random_uniform((1, 2), seed=15))

    def test_reports_equal_independent_runs(self, dataset, monkeypatch):
        from chan_em import em

        config = EmConfig(
            max_iterations=1000, param_tolerance=1e-5, record_trajectory=True
        )
        alone = [run_em(dataset, start, config) for start in self.STARTS]
        stops = {report.iterations_run for report in alone}
        assert len(stops) >= 3 and max(stops) < 1000  # starts stop at different iterates
        calls = []

        def counted(data, points, datasets=None):
            calls.append(len(points))
            return e_step(data, points, datasets)

        monkeypatch.setattr(em, "e_step", counted)
        _, reports = multi_start(dataset, self.STARTS, config)
        assert [run_fields(r) for r in reports] == [run_fields(r) for r in alone]
        for report in reports:
            assert report.trajectory.converged_at == report.iterations_run
        # one e_step call per iterate, over the starts still running
        assert len(calls) == max(stops) + 1
        assert calls == [
            sum(r.iterations_run >= k for r in alone) for k in range(max(stops) + 1)
        ]

    def test_failed_start_drops_out_with_run_em_message(self, dataset, monkeypatch):
        from chan_em import em

        def failing(expected, clamp_epsilon=1e-9):
            updated = m_step(expected, clamp_epsilon)
            if updated[0] > 0.85:  # start 1 at iteration 10, start 2 at 1
                raise InsufficientDataError("update left the test region")
            return updated

        monkeypatch.setattr(em, "m_step", failing)
        config = EmConfig(max_iterations=60, record_trajectory=True)
        messages, alone = {}, {}
        for index, start in enumerate(self.STARTS):
            try:
                alone[index] = run_em(dataset, start, config)
            except InsufficientDataError as exc:
                assert str(exc).startswith("iteration ")
                assert isinstance(exc.__cause__, InsufficientDataError)
                messages[index] = f"start {index} ({start.alpha}, {start.beta}): {exc}"
        assert sorted(messages) == [1, 2] and "iteration 10: " in messages[1]
        _, reports = multi_start(dataset, self.STARTS, config)
        assert [run_fields(r) for r in reports] == [
            run_fields(alone[i]) for i in sorted(alone)
        ]
        failing_starts = [self.STARTS[i] for i in sorted(messages)]
        with pytest.raises(AllStartsFailedError) as info:
            multi_start(dataset, failing_starts, config)
        renumbered = [
            message.split(": ", 1)[1] for _, message in sorted(messages.items())
        ]
        assert str(info.value) == "; ".join(
            f"start {k} ({s.alpha}, {s.beta}): {m}"
            for k, (s, m) in enumerate(zip(failing_starts, renumbered))
        )


    def test_datasets_run_together_each_as_alone(self, dataset, monkeypatch):
        from chan_em import em

        # a second draw with the same signature table and other counts, and
        # a dataset with its own table
        seq = simulate_chain(ChannelParams(0.3, 0.6), 30_000, seed=16)
        other = observe(seq, ObservationSchedule.random_uniform((1, 2), seed=16))
        sparse = observe(seq, ObservationSchedule.fixed(3))
        table, other_table, sparse_table = (
            d.gap_histogram[0] for d in (dataset, other, sparse)
        )
        assert np.array_equal(table, other_table)
        assert not np.array_equal(table, sparse_table)
        datasets = [dataset, sparse, other, dataset, sparse]
        starts = self.STARTS
        config = EmConfig(
            max_iterations=1000, param_tolerance=1e-5, record_trajectory=True
        )
        alone = [run_em(d, s, config) for d, s in zip(datasets, starts)]
        calls = []

        def counted(data, points, owners=None):
            calls.append(len(points))
            return e_step(data, points, owners)

        monkeypatch.setattr(em, "e_step", counted)
        outcomes = run_em_each(datasets, starts, config)
        assert [run_fields(r) for r in outcomes] == [run_fields(r) for r in alone]
        # one e_step call per iterate and table, over its pairs still running
        expected = []
        for k in range(max(r.iterations_run for r in alone) + 1):
            for members in ((0, 2, 3), (1, 4)):
                live = sum(alone[i].iterations_run >= k for i in members)
                expected += [live] if live else []
        assert calls == expected

    def test_kernel_error_propagates_from_every_entry_point(
        self, dataset, monkeypatch
    ):
        from chan_em import em

        # only subnormal, so unclamped, points make the kernel raise; force it
        original = em.gap_posteriors
        error = ZeroProbabilityError("forced")
        calls = []

        def kernel(data, points, datasets=None):
            calls.append(len(points))
            if len(calls) == 3:
                raise error
            return original(data, points, datasets)

        monkeypatch.setattr(em, "gap_posteriors", kernel)
        config = EmConfig(max_iterations=20)
        for fit in (
            lambda: run_em(dataset, self.STARTS[0], config),
            lambda: run_em_each([dataset, dataset], self.STARTS[:2], config),
            lambda: multi_start(dataset, self.STARTS, config),
        ):
            calls.clear()
            with pytest.raises(ZeroProbabilityError) as info:
                fit()
            assert info.value is error and len(calls) == 3

    def test_datasets_and_starts_pair_one_to_one(self, dataset):
        # a surplus dataset or start is the caller's mistake, not a pair to skip
        for datasets, starts in (
            ([dataset, dataset], self.STARTS[:1]),
            ([dataset], self.STARTS[:2]),
        ):
            with pytest.raises(ValueError, match="one start per dataset"):
                run_em_each(datasets, starts)


class TestHeuristicStarts:
    def test_on_occupancy_line(self):
        # 3 of 11 observations occupied: slope = 0.375, truth (0.8, 0.3) on it
        states = np.array([0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1])
        dataset = ObservedDataset(times=np.arange(1, 12), states=states)
        starts = heuristic_starts(dataset, 5)
        for s in starts:
            assert s.beta == pytest.approx(0.375 * s.alpha, rel=1e-9)
        alphas = [s.alpha for s in starts]
        assert alphas == sorted(alphas)
        assert 0 < alphas[0] and alphas[-1] < 1

    def test_balanced_occupancy_gives_diagonal(self):
        dataset = ObservedDataset(times=np.arange(1, 5), states=[0, 1, 0, 1])
        starts = heuristic_starts(dataset, 3)
        for s in starts:
            assert s.beta == pytest.approx(s.alpha, rel=1e-12)
        assert starts[1].alpha == pytest.approx(0.5, abs=1e-9)

    def test_single_start_midpoint(self):
        dataset = ObservedDataset(times=np.arange(1, 5), states=[0, 1, 0, 1])
        starts = heuristic_starts(dataset, 1)
        assert len(starts) == 1
        assert starts[0].alpha == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_observations(self):
        dataset = ObservedDataset(times=np.arange(1, 5), states=[1, 1, 1, 1])
        with pytest.raises(DegenerateObservationsError):
            heuristic_starts(dataset, 3)

    def test_count_validation(self):
        dataset = ObservedDataset(times=np.arange(1, 5), states=[0, 1, 0, 1])
        with pytest.raises(ValueError):
            heuristic_starts(dataset, 0)

    def test_majority_occupied_interval_shrinks(self):
        # u_hat = 0.75 gives slope 3, so alpha stays below 1/3
        dataset = ObservedDataset(times=np.arange(1, 5), states=[0, 0, 0, 1])
        starts = heuristic_starts(dataset, 4)
        for s in starts:
            assert s.alpha < 1.0 / 3.0
            assert s.beta == pytest.approx(3.0 * s.alpha, rel=1e-9)


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EmConfig(param_tolerance=-1.0)
        with pytest.raises(ValueError):
            EmConfig(clamp_epsilon=0.0)
        with pytest.raises(ValueError):
            EmConfig(clamp_epsilon=0.05)
        # 1 - 1e-17 rounds to 1.0, so clamping could return a boundary point
        with pytest.raises(ValueError):
            EmConfig(clamp_epsilon=1e-17)
        EmConfig(clamp_epsilon=2**-53)  # the smallest power of two accepted
        assert ChannelParams(0.0, 1.0).clamped(2**-53).is_interior()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 2.5),
            ("max_iterations", np.float64(2.5)),
            ("max_iterations", float("inf")),
            ("max_iterations", float("nan")),
            ("param_tolerance", float("nan")),
        ],
    )
    def test_cap_must_be_an_integer_and_tolerance_a_number(self, field, value):
        # run_em raised a raw TypeError on a fractional or infinite cap, and a
        # NaN tolerance silently ran every iteration: no step is below NaN
        with pytest.raises(ValueError, match=field):
            EmConfig(**{field: value})

    @pytest.mark.parametrize("value", [7, 7.0, np.int64(7), np.float64(7.0)])
    def test_whole_caps_are_stored_as_int(self, value):
        config = EmConfig(max_iterations=value, record_trajectory=True)
        assert type(config.max_iterations) is int and config.max_iterations == 7
        dataset = ObservedDataset(times=[1, 3, 6, 7], states=[0, 1, 0, 0])
        report = run_em(dataset, ChannelParams(0.4, 0.4), config)
        assert report.iterations_run == 7 and len(report.trajectory.steps) == 8
