"""E-M estimation of the switch probabilities from gappy observations.

The E-step computes posterior-expected transition counts gap by gap: within
a gap from state a to state b with g hidden slots, the expected number of
(u, v) transitions is

    sum_{j=0..g} [P^j]_{a,u} P_{u,v} [P^(g-j)]_{v,b} / [P^(g+1)]_{a,b},

a two-sided bridge identity. Gaps with the same (a, b, g) signature share
the same expectation, so the whole E-step runs over the signature histogram.
The bridge sums are blocks of one power of a 10x10 block upper-triangular
matrix (Van Loan 1978), formed for all signatures at once by repeated
squaring in likelihood.gap_posterior. Its dataset-only arrays are built once
per dataset (ObservedDataset.gap_plan), so one E-step costs the bit loop over
the signatures, O(signatures x log max gap), and also yields the
log-likelihood. The M-step is the complete-data ratio estimator on the
expected counts, clamped into the open unit square so log-likelihoods stay
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from chan_em.errors import (
    AllStartsFailedError,
    BoundaryParameterError,
    ChanEmError,
    DegenerateObservationsError,
    DegenerateParametersError,
    InsufficientDataError,
)
from chan_em.expfam import SufficientStats
from chan_em.likelihood import (
    GapPosterior,
    gap_posterior,
    geometric_mean_likelihood,
    # the two noqa names are unused here; bench/tracing.py patches them on em
    incomplete_log_likelihood,  # noqa: F401
    se_db_between,
    transition_powers,  # noqa: F401
)
from chan_em.markov import OCCUPIED, ChannelParams
from chan_em.observation import ObservedDataset


@dataclass(frozen=True)
class EmConfig:
    """Knobs of one E-M run.

    param_tolerance stops early once max(|d alpha|, |d beta|) drops below it
    (0 disables and runs all max_iterations). clamp_epsilon keeps every
    iterate inside [eps, 1-eps].
    """

    max_iterations: int = 100
    param_tolerance: float = 0.0
    clamp_epsilon: float = 1e-9
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.param_tolerance < 0:
            raise ValueError("param_tolerance must be >= 0")
        if not 0.0 < self.clamp_epsilon <= 0.01:
            raise ValueError("clamp_epsilon must lie in (0, 0.01]")


class TrajectoryStep(NamedTuple):
    """State after `iteration` E-M updates (iteration 0 is the start)."""

    iteration: int
    alpha: float
    beta: float
    log_likelihood: float


@dataclass
class EmTrajectory:
    """Recorded per-iteration states of one run."""

    steps: list[TrajectoryStep] = field(default_factory=list)
    converged_at: int | None = None


@dataclass
class EstimateReport:
    """Outcome of one E-M run: the estimate plus where it came from.

    log_likelihood is the estimate's, read off the run's last E-step. se_db
    and gamma_percent stay None until a reference is known (a truth, or the
    best run of a multi-start).
    """

    estimate: ChannelParams
    start: ChannelParams
    iterations_run: int
    log_likelihood: float
    se_db: float | None = None
    gamma_percent: float | None = None
    trajectory: EmTrajectory | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "alpha_hat": self.estimate.alpha,
            "beta_hat": self.estimate.beta,
            "start_alpha": self.start.alpha,
            "start_beta": self.start.beta,
            "iterations": self.iterations_run,
            "se_db": self.se_db,
        }
        if self.gamma_percent is not None:
            out["gamma_percent"] = self.gamma_percent
        return out


def e_step(dataset: ObservedDataset, params: ChannelParams) -> GapPosterior:
    """Posterior-expected transition counts under interior parameters.

    gap_posterior's result: the counts for all gap signatures at once, at a
    cost of O(signatures x log max gap), and the log_likelihood at params.
    The four expectations sum to the spanned transition count up to rounding
    (each gap contributes g+1 transitions of posterior mass one).
    """
    if not params.is_interior():
        raise BoundaryParameterError(
            "e_step requires interior parameters, clamp the start first"
        )
    return gap_posterior(dataset, params)


def m_step(expected: SufficientStats, clamp_epsilon: float = 1e-9) -> ChannelParams:
    """Ratio estimator on expected counts, clamped into the open unit square."""
    if expected.from_occ <= 0 or expected.from_idle <= 0:
        raise InsufficientDataError(
            "expected counts give an empty denominator for one parameter"
        )
    lo, hi = clamp_epsilon, 1.0 - clamp_epsilon
    alpha = min(max(expected.occ_to_idle / expected.from_occ, lo), hi)
    beta = min(max(expected.idle_to_occ / expected.from_idle, lo), hi)
    return ChannelParams(alpha, beta)


def relative_error(estimate: ChannelParams, truth: ChannelParams) -> float:
    """Mean relative parameter error in percent.

    (|alpha_hat - alpha| / alpha + |beta_hat - beta| / beta) / 2 * 100.
    Requires both truth components positive.
    """
    if truth.alpha <= 0 or truth.beta <= 0:
        raise DegenerateParametersError("relative error needs positive truth values")
    return 50.0 * (
        abs(estimate.alpha - truth.alpha) / truth.alpha
        + abs(estimate.beta - truth.beta) / truth.beta
    )


def run_em(
    dataset: ObservedDataset,
    start: ChannelParams,
    config: EmConfig = EmConfig(),
    truth: ChannelParams | None = None,
) -> EstimateReport:
    """Run E-M from one start; optionally score against a known truth.

    The start is clamped into the open unit square before the first E-step.
    Each E-step also yields its iterate's log-likelihood, so N updates cost
    N+1 kernel evaluations. When truth is given, se_db scores the estimate's
    per-transition likelihood against the truth's and gamma_percent the
    parameter error.
    """
    eps = config.clamp_epsilon
    current = start.clamped(eps)
    trajectory = EmTrajectory() if config.record_trajectory else None
    delta = math.inf
    for iteration in range(config.max_iterations + 1):
        try:
            posterior = e_step(dataset, current)
            if trajectory is not None:
                trajectory.steps.append(
                    TrajectoryStep(
                        iteration, *current.as_tuple(), posterior.log_likelihood
                    )
                )
            if delta < config.param_tolerance or iteration == config.max_iterations:
                break
            updated = m_step(posterior, eps)
        except ChanEmError as exc:
            raise type(exc)(f"iteration {iteration + 1}: {exc}") from exc
        delta = max(
            abs(updated.alpha - current.alpha), abs(updated.beta - current.beta)
        )
        current = updated
    if trajectory is not None and delta < config.param_tolerance:
        trajectory.converged_at = iteration
    report = EstimateReport(
        estimate=current,
        start=start,
        iterations_run=iteration,
        log_likelihood=posterior.log_likelihood,
        trajectory=trajectory,
    )
    if truth is not None:
        truth_value = geometric_mean_likelihood(dataset, truth.clamped(eps))
        estimate_value = math.exp(posterior.log_likelihood / dataset.num_transitions)
        report.se_db = se_db_between(estimate_value, truth_value)
        report.gamma_percent = relative_error(current, truth)
    return report


def multi_start(
    dataset: ObservedDataset,
    starts: list[ChannelParams],
    config: EmConfig = EmConfig(),
    truth: ChannelParams | None = None,
) -> tuple[EstimateReport, list[EstimateReport]]:
    """Run E-M from several starts and pick the best run.

    Every report's se_db is scored against one shared target value: the
    truth's per-transition likelihood when a truth is given, otherwise the
    best per-transition likelihood attained by any run. The winner minimizes
    se_db, ties broken by higher final log-likelihood then lower start
    index. With a truth, gamma_percent is each run's parameter error against
    it. Returns (winner, reports in start order); failed starts are
    dropped from the list, and AllStartsFailedError aggregates the causes
    when no start survives.
    """
    if not starts:
        raise ValueError("need at least one start")
    reports: list[EstimateReport] = []
    failures: list[str] = []
    for index, start in enumerate(starts):
        try:
            report = run_em(dataset, start, config)
        except ChanEmError as exc:
            failures.append(f"start {index} ({start.alpha}, {start.beta}): {exc}")
            continue
        reports.append(report)
    if not reports:
        raise AllStartsFailedError("; ".join(failures))
    values = [np.exp(r.log_likelihood / dataset.num_transitions) for r in reports]
    if truth is not None:
        target = geometric_mean_likelihood(
            dataset, truth.clamped(config.clamp_epsilon)
        )
    else:
        target = max(values)
    for report, value in zip(reports, values):
        report.se_db = se_db_between(float(value), float(target))
        if truth is not None:
            report.gamma_percent = relative_error(report.estimate, truth)
    best_index = min(
        range(len(reports)),
        key=lambda i: (reports[i].se_db, -reports[i].log_likelihood, i),
    )
    return reports[best_index], reports


def heuristic_starts(
    dataset: ObservedDataset, count: int, clamp_epsilon: float = 1e-9
) -> list[ChannelParams]:
    """Starting points on the empirical-occupancy line.

    If a fraction u_hat of observed slots is occupied, any parameters
    consistent with that occupancy satisfy beta = m * alpha with
    m = u_hat / (1 - u_hat); the starts are `count` points (a, m*a) with a
    evenly spaced inside (eps, min(1, 1/m) - eps), clamped into the open
    unit square. Raises DegenerateObservationsError when all observations
    agree (u_hat in {0, 1}) or the admissible interval collapses.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    occupied_fraction = float(np.mean(dataset.states == OCCUPIED))
    if occupied_fraction in (0.0, 1.0):
        raise DegenerateObservationsError(
            "all observations agree, occupancy line undefined"
        )
    slope = occupied_fraction / (1.0 - occupied_fraction)
    lo = clamp_epsilon
    hi = min(1.0, 1.0 / slope) - clamp_epsilon
    if hi <= lo:
        raise DegenerateObservationsError(
            "occupancy too extreme for the requested clamp epsilon"
        )
    step = (hi - lo) / (count + 1)
    starts = []
    for i in range(1, count + 1):
        a = lo + i * step
        starts.append(ChannelParams(a, slope * a).clamped(clamp_epsilon))
    return starts
