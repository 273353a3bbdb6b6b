"""E-M estimation of the switch probabilities from gappy observations.

The E-step computes posterior-expected transition counts gap by gap: within
a gap from state a to state b with g hidden slots, the expected number of
(u, v) transitions is

    sum_{j=0..g} [P^j]_{a,u} P_{u,v} [P^(g-j)]_{v,b} / [P^(g+1)]_{a,b},

a two-sided bridge identity. Gaps with the same (a, b, g) signature share
the same expectation, so the whole E-step runs over the signature histogram.
The bridge sums are blocks of one power of a 10x10 block upper-triangular
matrix (Van Loan 1978), formed for all signatures at once by repeated
squaring in likelihood.gap_posteriors. Its dataset-only arrays are built once
per dataset (ObservedDataset.gap_plan), so one E-step costs the bit loop over
the signatures, O(signatures x log max gap), and also yields the
log-likelihood. The M-step is expfam.mle_complete, the complete-data ratio
estimator, on the expected counts, clamped into the open unit square so
log-likelihoods stay finite.

Every start of one dataset runs in lockstep: each E-M iterate makes one
e_step call, and so one kernel call, for all starts still running, with the
Van Loan matrices of the starts stacked. run_em is that loop with one start,
multi_start with all of its starts; each start stops on its own tolerance
and gets exactly the iterates, trajectory and errors it would get alone.

The fit never sees the true parameters. score_against_truth scores finished
runs against a known truth, for simulations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from chan_em.errors import (
    AllStartsFailedError,
    BoundaryParameterError,
    ChanEmError,
    DegenerateObservationsError,
    DegenerateParametersError,
)
from chan_em.expfam import SufficientStats, mle_complete
from chan_em.likelihood import (
    GapPosterior,
    gap_posterior,
    gap_posteriors,
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
    and gamma_percent stay None unless score_against_truth sets them.
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


def e_step(
    dataset: ObservedDataset, params: ChannelParams | Sequence[ChannelParams]
) -> GapPosterior | list[GapPosterior | ChanEmError]:
    """Posterior-expected transition counts under interior parameters.

    At one point, gap_posterior's result: the counts for all gap signatures
    at once, at a cost of O(signatures x log max gap), and the log_likelihood
    at params. At a sequence of points, one gap_posteriors call for all of
    them: per point, its result or the ZeroProbabilityError it raised. The
    four expectations sum to the spanned transition count up to rounding
    (each gap contributes g+1 transitions of posterior mass one).
    """
    single = isinstance(params, ChannelParams)
    if not all(p.is_interior() for p in ((params,) if single else params)):
        raise BoundaryParameterError(
            "e_step requires interior parameters, clamp the start first"
        )
    return gap_posterior(dataset, params) if single else gap_posteriors(dataset, params)


def m_step(expected: SufficientStats, clamp_epsilon: float = 1e-9) -> ChannelParams:
    """mle_complete on the expected counts, clamped into [eps, 1 - eps].

    The complete-data estimator applied to expected counts is the M-step
    (Dempster, Laird & Rubin 1977). Raises mle_complete's
    InsufficientDataError when either expected denominator is zero.
    """
    return mle_complete(expected).clamped(clamp_epsilon)


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


def _lockstep(
    dataset: ObservedDataset, starts: Sequence[ChannelParams], config: EmConfig
) -> list[EstimateReport | ChanEmError]:
    """Run E-M from every start at once; per start, its report or its error.

    Each iterate makes one e_step call for the starts still running. A start
    stops after the E-step at which its last update moved no parameter by
    param_tolerance or more, or after max_iterations updates; one whose E- or
    M-step fails stops with that error, prefixed by the iteration. The others
    carry on, so every start's outcome is what it would be alone.
    """
    eps = config.clamp_epsilon
    current = [start.clamped(eps) for start in starts]
    trajectories = [
        EmTrajectory() if config.record_trajectory else None for _ in starts
    ]
    delta = [math.inf] * len(starts)
    outcomes: list = [None] * len(starts)
    live = range(len(starts))
    for iteration in range(config.max_iterations + 1):
        posteriors = e_step(dataset, [current[i] for i in live])
        running = []
        for i, posterior in zip(live, posteriors):
            try:
                if isinstance(posterior, ChanEmError):
                    raise posterior
                if trajectories[i] is not None:
                    trajectories[i].steps.append(
                        TrajectoryStep(
                            iteration, *current[i].as_tuple(), posterior.log_likelihood
                        )
                    )
                converged = delta[i] < config.param_tolerance
                if converged or iteration == config.max_iterations:
                    if converged and trajectories[i] is not None:
                        trajectories[i].converged_at = iteration
                    outcomes[i] = EstimateReport(
                        estimate=current[i],
                        start=starts[i],
                        iterations_run=iteration,
                        log_likelihood=posterior.log_likelihood,
                        trajectory=trajectories[i],
                    )
                    continue
                updated = m_step(posterior, eps)
            except ChanEmError as exc:
                outcomes[i] = type(exc)(f"iteration {iteration + 1}: {exc}")
                outcomes[i].__cause__ = exc
                continue
            delta[i] = max(
                abs(updated.alpha - current[i].alpha),
                abs(updated.beta - current[i].beta),
            )
            current[i] = updated
            running.append(i)
        live = running
        if not live:
            break
    return outcomes


def run_em(
    dataset: ObservedDataset, start: ChannelParams, config: EmConfig = EmConfig()
) -> EstimateReport:
    """Run E-M from one start.

    The start is clamped into the open unit square before the first E-step.
    Each E-step also yields its iterate's log-likelihood, so N updates cost
    N+1 kernel evaluations.
    """
    (report,) = _lockstep(dataset, [start], config)
    if isinstance(report, ChanEmError):
        raise report
    return report


def multi_start(
    dataset: ObservedDataset, starts: list[ChannelParams], config: EmConfig = EmConfig()
) -> tuple[EstimateReport, list[EstimateReport]]:
    """Run E-M from several starts in lockstep and pick the most likely run.

    Every start's run equals run_em from that start alone, at one kernel call
    per iterate for all starts still running. The winner has the highest
    final log-likelihood, ties going to the lower start index. Returns
    (winner, reports in start order); failed starts are dropped from the
    list, and AllStartsFailedError aggregates the causes when no start
    survives.
    """
    if not starts:
        raise ValueError("need at least one start")
    reports: list[EstimateReport] = []
    failures: list[str] = []
    for index, (start, outcome) in enumerate(
        zip(starts, _lockstep(dataset, starts, config))
    ):
        if isinstance(outcome, ChanEmError):
            failures.append(f"start {index} ({start.alpha}, {start.beta}): {outcome}")
        else:
            reports.append(outcome)
    if not reports:
        raise AllStartsFailedError("; ".join(failures))
    return max(reports, key=lambda r: r.log_likelihood), reports


def score_against_truth(
    dataset: ObservedDataset,
    reports: Sequence[EstimateReport],
    truth: ChannelParams,
    clamp_epsilon: float = 1e-9,
) -> EstimateReport:
    """Score fitted runs against a known truth; return the truth-side winner.

    A simulation diagnostic, never an input to the fit. Sets each report's
    se_db, the squared gap in dB between its per-transition likelihood and
    the clamped truth's, and gamma_percent, its relative parameter error.
    The winner has the lowest se_db, ties broken by higher log-likelihood
    then lower index. One kernel call scores the truth.
    """
    target = geometric_mean_likelihood(dataset, truth.clamped(clamp_epsilon))
    for report in reports:
        value = np.exp(report.log_likelihood / dataset.num_transitions)
        report.se_db = se_db_between(float(value), float(target))
        report.gamma_percent = relative_error(report.estimate, truth)
    return min(reports, key=lambda r: (r.se_db, -r.log_likelihood))


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
