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
per dataset (GapData.gap_plan), so one E-step costs the bit loop over
the signatures, O(signatures x log max gap), and also yields the
log-likelihood. The M-step is expfam.complete_ratios, the complete-data
ratio estimator behind mle_complete, on the expected counts, clamped into
the open unit square so log-likelihoods stay finite.

run_em_each is the one E-M loop. It runs (dataset, start) pairs, given as
two parallel lists, in lockstep: each iterate makes one e_step call, and so
one kernel call, per signature table for the pairs still running, with the
Van Loan matrices of their points stacked and each point reduced with its
own dataset's counts. run_em calls it with one pair, multi_start with every
start of one dataset, and the multichannel commands with one start for each
channel. Each pair stops on its own tolerance and gets exactly the
iterates, trajectory and M-step error it would get alone. Between kernel
calls a pair's point is a pair of floats; its report is built when it stops.

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
    ChanEmError,
    DegenerateObservationsError,
    DegenerateParametersError,
)
from chan_em.expfam import SufficientStats, complete_ratios
from chan_em.likelihood import (
    gap_posteriors,
    geometric_mean_likelihood,
    # the two noqa names are unused here; bench/tracing.py patches them on em
    incomplete_log_likelihood,  # noqa: F401
    se_db_between,
    transition_powers,  # noqa: F401
)
from chan_em.markov import ChannelParams
from chan_em.observation import GapData, _integer


@dataclass(frozen=True)
class EmConfig:
    """Knobs of one E-M run.

    param_tolerance stops early once max(|d alpha|, |d beta|) drops below it
    (0 disables and runs all max_iterations). clamp_epsilon keeps every
    iterate inside [eps, 1-eps]. It lies in (0, 0.01] and must leave
    1 - eps below 1.0 in double precision, which takes eps > 2**-54 (about
    5.6e-17; 2**-53 is accepted). Below that, 1 - eps rounds to 1.0 and a
    clamped point could sit on the boundary; for every accepted eps a
    clamped point is interior.
    """

    max_iterations: int = 100
    param_tolerance: float = 0.0
    clamp_epsilon: float = 1e-9
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_iterations", _integer(self.max_iterations, "max_iterations", 1)
        )
        # NaN too: no step is below it, so it would silently turn the early stop off
        if not self.param_tolerance >= 0:
            raise ValueError("param_tolerance must be >= 0")
        # 1 - eps < 1 also rules out eps <= 0 and NaN
        if not (1.0 - self.clamp_epsilon < 1.0 and self.clamp_epsilon <= 0.01):
            raise ValueError(
                "clamp_epsilon must lie in (0, 0.01] with 1 - clamp_epsilon < 1 "
                "in double precision (greater than 2**-54)"
            )


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
    dataset: GapData,
    params: ChannelParams | Sequence[tuple[float, float]],
    datasets: Sequence[GapData] | None = None,
) -> tuple[SufficientStats, float] | tuple[np.ndarray, np.ndarray]:
    """Posterior-expected transition counts under interior parameters.

    At one ChannelParams, a SufficientStats of the counts over all gap
    signatures, O(signatures x log max gap), and the log-likelihood. At
    (alpha, beta) pairs, with their `datasets` or not, gap_posteriors'
    arrays. Either form raises the kernel's BoundaryParameterError at a
    point that is not interior (clamp it first) and its ZeroProbabilityError
    if a gap probability underflows. The four expectations sum to the
    spanned transition count up to rounding (each gap contributes g+1
    transitions of posterior mass one).
    """
    if not isinstance(params, ChannelParams):
        return gap_posteriors(dataset, params, datasets)
    expected, log_likelihood = gap_posteriors(dataset, [params.as_tuple()])
    return SufficientStats(*expected[0].tolist()), float(log_likelihood[0])


def m_step(expected: Sequence[float], clamp_epsilon: float = 1e-9) -> tuple:
    """(alpha, beta) of the four expected counts, clamped into [eps, 1 - eps].

    The complete-data estimator on expected counts is the M-step (Dempster,
    Laird & Rubin 1977): bit for bit, mle_complete clamped by
    ChannelParams.clamped, and its InsufficientDataError.
    """
    alpha, beta = complete_ratios(expected)
    lo, hi = clamp_epsilon, 1.0 - clamp_epsilon
    return min(max(alpha, lo), hi), min(max(beta, lo), hi)


def relative_error(
    estimate: ChannelParams | TrajectoryStep, truth: ChannelParams
) -> float:
    """Mean relative parameter error in percent.

    (|alpha_hat - alpha| / alpha + |beta_hat - beta| / beta) / 2 * 100.
    The estimate may be a recorded step; only its alpha and beta are read.
    Requires both truth components positive.
    """
    if truth.alpha <= 0 or truth.beta <= 0:
        raise DegenerateParametersError("relative error needs positive truth values")
    return 50.0 * (
        abs(estimate.alpha - truth.alpha) / truth.alpha
        + abs(estimate.beta - truth.beta) / truth.beta
    )


def run_em(
    dataset: GapData, start: ChannelParams, config: EmConfig = EmConfig()
) -> EstimateReport:
    """Run E-M from one start.

    The start is clamped into the open unit square before the first E-step.
    Each E-step also yields its iterate's log-likelihood, so N updates cost
    N+1 kernel evaluations.
    """
    (report,) = run_em_each([dataset], [start], config)
    if isinstance(report, ChanEmError):
        raise report
    return report


def run_em_each(
    datasets: Sequence[GapData],
    starts: Sequence[ChannelParams],
    config: EmConfig = EmConfig(),
) -> list[EstimateReport | ChanEmError]:
    """Run E-M on (dataset, start) pairs of two parallel lists, in lockstep.

    Entry k is the report of pair k or, when its M-step fails, that error
    prefixed by the iteration; the other pairs carry on, so every pair's
    outcome is what it would be alone. A pair stops after the E-step at
    which its last update moved no parameter by param_tolerance or more, or
    after max_iterations updates. Each iterate makes one e_step call per
    signature table, in order of first appearance, for the pairs still
    running, so C pairs on one table cost at most max_iterations + 1 calls,
    not up to C times as many. A kernel error propagates: only an underflow
    raises one, and no clamped point reaches one.
    """
    if len(datasets) != len(starts):
        raise ValueError(
            f"need one start per dataset, got {len(starts)} starts "
            f"for {len(datasets)} datasets"
        )
    eps = config.clamp_epsilon
    current = [start.clamped(eps).as_tuple() for start in starts]
    trajectories = [
        EmTrajectory() if config.record_trajectory else None for _ in starts
    ]
    delta = [math.inf] * len(starts)
    outcomes: list = [None] * len(starts)
    # the pairs still running, by signature table
    live: dict[bytes, list[int]] = {}
    for i, dataset in enumerate(datasets):
        live.setdefault(dataset.gap_histogram[0].tobytes(), []).append(i)
    for iteration in range(config.max_iterations + 1):
        running: dict[bytes, list[int]] = {}
        for table, pairs in live.items():
            expected, log_likelihoods = e_step(
                datasets[pairs[0]],
                [current[i] for i in pairs],
                [datasets[i] for i in pairs],
            )
            for i, counts, log_likelihood in zip(
                pairs, expected.tolist(), log_likelihoods.tolist()
            ):
                alpha, beta = current[i]
                if trajectories[i] is not None:
                    trajectories[i].steps.append(
                        TrajectoryStep(iteration, alpha, beta, log_likelihood)
                    )
                converged = delta[i] < config.param_tolerance
                if converged or iteration == config.max_iterations:
                    if converged and trajectories[i] is not None:
                        trajectories[i].converged_at = iteration
                    outcomes[i] = EstimateReport(
                        estimate=ChannelParams(alpha, beta),
                        start=starts[i],
                        iterations_run=iteration,
                        log_likelihood=log_likelihood,
                        trajectory=trajectories[i],
                    )
                    continue
                try:
                    current[i] = m_step(counts, eps)
                except ChanEmError as exc:
                    outcomes[i] = type(exc)(f"iteration {iteration + 1}: {exc}")
                    outcomes[i].__cause__ = exc
                    continue
                delta[i] = max(abs(current[i][0] - alpha), abs(current[i][1] - beta))
                running.setdefault(table, []).append(i)
        live = running
        if not live:
            break
    return outcomes


def multi_start(
    dataset: GapData, starts: list[ChannelParams], config: EmConfig = EmConfig()
) -> tuple[EstimateReport, list[EstimateReport]]:
    """Run E-M from several starts in lockstep and pick the most likely run.

    Every start's run equals run_em from that start alone, at one kernel call
    per iterate for all starts still running. The winner has the highest
    final log-likelihood, ties going to the lower start index. Returns
    (winner, reports in start order). A start whose M-step fails is dropped
    from the list, and AllStartsFailedError aggregates the causes when no
    start survives; a kernel error, which only underflow raises, fails the
    whole call.
    """
    if not starts:
        raise ValueError("need at least one start")
    outcomes = run_em_each([dataset] * len(starts), starts, config)
    reports = [outcome for outcome in outcomes if not isinstance(outcome, ChanEmError)]
    if not reports:
        raise AllStartsFailedError(
            "; ".join(
                f"start {index} ({start.alpha}, {start.beta}): {outcome}"
                for index, (start, outcome) in enumerate(zip(starts, outcomes))
            )
        )
    return max(reports, key=lambda r: r.log_likelihood), reports


def score_against_truth(
    dataset: GapData,
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
        # np.exp, not geometric_mean_likelihood's math.exp: they differ in the
        # last bit on some inputs, and the preset outputs' bytes depend on it
        value = np.exp(report.log_likelihood / dataset.num_transitions)
        report.se_db = se_db_between(float(value), float(target))
        report.gamma_percent = relative_error(report.estimate, truth)
    return min(reports, key=lambda r: (r.se_db, -r.log_likelihood))


def heuristic_starts(
    dataset: GapData, count: int, clamp_epsilon: float = 1e-9
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
    occupied_fraction = dataset.occupied_fraction
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
    alphas = (lo + i * step for i in range(1, count + 1))
    return [ChannelParams(a, slope * a).clamped(clamp_epsilon) for a in alphas]
