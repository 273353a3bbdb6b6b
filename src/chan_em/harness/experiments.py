"""Experiment pipelines behind the CLI subcommands.

Every experiment realizes its data from the config's master seed through
fixed derivation paths (one stream per purpose and channel), so rerunning
any command with the same resolved config writes byte-identical files.
Every command realizes its channels from the same draws (realize_runs).
The fitting commands read them straight into each channel's gap histogram
(realize_histogram), which is all a fit reads; simulate writes its files
from them as it reads that histogram, block by block, so neither holds an
array as long as the chain or the observation count.
Output files carry a metadata block naming the tool version, the command,
the config hash, and the master seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

import chan_em
from chan_em.em import (
    EstimateReport,
    heuristic_starts,
    multi_start,
    relative_error,
    run_em_each,
    score_against_truth,
)
from chan_em.em import run_em  # noqa: F401  kept for bench/tracing.py
from chan_em.errors import ChanEmError, ConfigError
from chan_em.harness.config import ExperimentConfig, config_hash
from chan_em.likelihood import MAX_BATCH_ROWS, gap_posteriors, geometric_mean_likelihood
from chan_em.likelihood import se_db_between
from chan_em.likelihood import squared_error_db  # noqa: F401  kept for bench/tracing.py
from chan_em.markov import (
    ChannelParams,
    rank_channels,
    run_blocks,
    simulate_chain,
    utilization,
)
from chan_em.observation import (
    GapData,
    GapHistogram,
    ObservationSchedule,
    ObservedDataset,
    ScheduleDraw,
    meta_head,
    open_slot_states,
)

# seed-derivation stream tags (second entry of the SeedSequence path)
_STREAM_CHAIN = 0
_STREAM_SCHEDULE = 1


def derive_seed(master_seed: int, stream: int, index: int = 0) -> int:
    """Stable 64-bit sub-seed for one purpose (stream) and channel (index)."""
    seq = np.random.SeedSequence((master_seed, stream, index))
    return int(seq.generate_state(1, np.uint64)[0])


def _channel_seeds(
    schedule: ObservationSchedule, master_seed: int, channel_index: int
) -> tuple[ObservationSchedule, int]:
    """Channel `channel_index`'s schedule, seeded, and its chain seed.

    Both seeds are derived independently from the master seed and the
    channel index; a random schedule that lacks a seed gets its derived one.
    """
    if schedule.kind != "fixed" and schedule.seed is None:
        seed = derive_seed(master_seed, _STREAM_SCHEDULE, channel_index)
        schedule = ObservationSchedule.random_uniform(schedule.support, seed)
    return schedule, derive_seed(master_seed, _STREAM_CHAIN, channel_index)


def realize_dataset(
    truth: ChannelParams,
    schedule: ObservationSchedule,
    num_observations: int,
    master_seed: int,
    channel_index: int = 0,
) -> tuple[ObservedDataset, np.ndarray]:
    """Simulate one channel and observe it on the schedule, all of it held.

    Returns (dataset, full sequence), from the same draws as realize_runs.
    No command calls it: it is the materialized oracle that tests and the
    benchmark's checks compare the streamed paths with.
    """
    schedule, chain_seed = _channel_seeds(schedule, master_seed, channel_index)
    times = schedule.times_for_count(num_observations)
    sequence = simulate_chain(truth, int(times[-1]), chain_seed)
    return ObservedDataset.sample(sequence, times), sequence


def realize_runs(
    truth: ChannelParams,
    schedule: ObservationSchedule,
    num_observations: int,
    master_seed: int,
    channel_index: int = 0,
) -> tuple[Iterator[tuple[np.ndarray, np.ndarray]], ScheduleDraw]:
    """One channel's run blocks, read by the fits and simulate, and its draw.

    Seeded by _channel_seeds; the chain ends at the draw's last slot.
    Every argument is checked on this call, before any block is drawn.
    """
    schedule, chain_seed = _channel_seeds(schedule, master_seed, channel_index)
    draw = schedule.draw(num_observations - 1)
    return run_blocks(truth, draw.last_slot, chain_seed), draw


def realize_histogram(
    truth: ChannelParams,
    schedule: ObservationSchedule,
    num_observations: int,
    master_seed: int,
    channel_index: int = 0,
) -> GapHistogram:
    """realize_runs' channel, straight into its gap histogram.

    The same histogram and counts as realize_dataset(...)[0], but no slot
    sequence, slot index or observed state is held: memory is the
    schedule's picks (1 B an observation for up to 256 support entries),
    the sampler's kept first-state sojourns (1 B each at fig5's truths) and
    one block of each stage.
    """
    args = (truth, schedule, num_observations, master_seed, channel_index)
    return GapHistogram.observe(*realize_runs(*args))


def _channel_dataset(config: ExperimentConfig, index: int = 0) -> GapHistogram:
    """The gap histogram of channel `index`, realized from its truth."""
    return realize_histogram(
        config.true_params[index],
        config.schedule,
        config.observed_slots,
        config.master_seed,
        channel_index=index,
    )


def _check_truths(truths: Iterable[ChannelParams]) -> None:
    """Raise before any fitting if a truth cannot score the runs against it.

    relative_error raises DegenerateParametersError for a zero alpha or beta.
    """
    for truth in truths:
        relative_error(truth, truth)


def _resolve_starts(config: ExperimentConfig, dataset: GapData) -> list[ChannelParams]:
    if isinstance(config.starts, int):
        return heuristic_starts(dataset, config.starts, config.em.clamp_epsilon)
    return list(config.starts)


def _meta(config: ExperimentConfig, resolved: dict, command: str) -> dict[str, Any]:
    return {
        "tool": "chan-em",
        "version": chan_em.__version__,
        "command": command,
        "config_hash": config_hash(resolved),
        "master_seed": config.master_seed,
    }


def _write_csv(
    path: Path, meta: dict[str, Any], header: list[str], rows: Iterable[Iterable[Any]]
) -> None:
    with path.open("w", newline="\n") as fh:
        fh.write(meta_head(meta))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")  # str(float) is its repr


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, newline="\n")


def _out_dir(config: ExperimentConfig) -> Path:
    path = config.output_dir
    path.mkdir(parents=True, exist_ok=True)
    return path


def _ensure_recording(config: ExperimentConfig) -> ExperimentConfig:
    if config.em.record_trajectory:
        return config
    em = dataclasses.replace(config.em, record_trajectory=True)
    return dataclasses.replace(config, em=em)


def cmd_simulate(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Realize the (single) channel and write the observed dataset CSV.

    The files are written as the chain's run blocks, of about 2**16 slots,
    are read; realize_runs raises before the output directory is made.
    """
    runs, draw = realize_runs(
        config.single_channel(),
        config.schedule,
        config.observed_slots,
        config.master_seed,
    )
    out = _out_dir(config)
    meta = _meta(config, resolved, "simulate")
    written = [out / "observed.csv"]
    with contextlib.ExitStack() as files:
        observed = {**meta, "total_slots": draw.last_slot}
        rows = files.enter_context(open_slot_states(written[0], observed))
        sequence = None
        if config.write_sequence:
            written.append(out / "sequence.csv")  # slots 1..draw.last_slot
            sequence = files.enter_context(open_slot_states(written[1], meta))
        histogram = GapHistogram.observe(runs, draw, rows, sequence)
    # gap_histogram holds at most four (start, end) rows per hidden length
    signatures, counts = histogram.gap_histogram
    hist: dict[int, int] = {}
    for hidden, count in zip(signatures[:, 2].tolist(), counts.tolist()):
        hist[hidden] = hist.get(hidden, 0) + count
    print(
        f"simulate: {histogram.num_observations} observations over "
        f"{draw.last_slot} slots, hidden-length histogram "
        f"{json.dumps(hist, sort_keys=True)}"
    )
    return written


def _run_single_channel(
    config: ExperimentConfig,
) -> tuple[EstimateReport, list[EstimateReport]]:
    """Fit every start, then score the runs against the truth.

    The winner returned is the truth-side one (lowest se_db), a diagnostic
    of the simulation rather than an estimate.
    """
    truth = config.single_channel()
    _check_truths([truth])
    dataset = _channel_dataset(config)
    _, reports = multi_start(dataset, _resolve_starts(config, dataset), config.em)
    winner = score_against_truth(dataset, reports, truth, config.em.clamp_epsilon)
    return winner, reports


def cmd_trajectories(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Per-start iteration traces plus a summary of the final estimates."""
    config = _ensure_recording(config)
    winner, reports = _run_single_channel(config)
    out = _out_dir(config)
    meta = _meta(config, resolved, "trajectories")
    written = []
    for i, report in enumerate(reports):
        assert report.trajectory is not None
        path = out / f"trajectory_{i:02d}.csv"
        _write_csv(
            path,
            {**meta, "start_alpha": report.start.alpha, "start_beta": report.start.beta},
            ["p", "alpha", "beta", "loglik"],
            report.trajectory.steps,
        )
        written.append(path)
    summary_path = out / "summary.json"
    _write_json(
        summary_path,
        {
            "meta": meta,
            "winner_index": reports.index(winner),
            "estimates": [r.to_json_dict() for r in reports],
        },
    )
    written.append(summary_path)
    print(
        f"trajectories: {len(reports)} runs, winner from start "
        f"({winner.start.alpha}, {winner.start.beta}) -> "
        f"({winner.estimate.alpha:.4f}, {winner.estimate.beta:.4f})"
    )
    return written


def cmd_table1(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Final estimates per start as one CSV table, winner flagged."""
    winner, reports = _run_single_channel(config)
    rows = [
        (
            report.start.alpha,
            report.start.beta,
            report.estimate.alpha,
            report.estimate.beta,
            report.se_db,
            1 if report is winner else 0,
        )
        for report in reports
    ]
    path = _out_dir(config) / "table1.csv"
    _write_csv(
        path,
        _meta(config, resolved, "table1"),
        ["start_alpha", "start_beta", "alpha_100", "beta_100", "se_db", "winner"],
        rows,
    )
    print(f"table1: {len(rows)} starts, winner row {reports.index(winner)}")
    return [path]


def cmd_se_grid(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Likelihood-gap surface against the truth over an (alpha, beta) grid."""
    truth = config.single_channel()
    dataset = _channel_dataset(config)
    eps = config.em.clamp_epsilon
    values = config.grid.values()
    # geometric_mean_likelihood's math.exp, not score_against_truth's np.exp:
    # they differ in the last bit on some inputs, and se_grid.csv depends on it
    reference = geometric_mean_likelihood(dataset, truth.clamped(eps))
    clamped = [min(max(value, eps), 1.0 - eps) for value in values]
    # the (alpha, beta) cells, alpha-major as written, each with its clamped point
    grid = zip(
        itertools.product(values, repeat=2), itertools.product(clamped, repeat=2)
    )
    per_call = max(1, MAX_BATCH_ROWS // len(dataset.gap_histogram[0]))
    rows = []
    # one kernel call a batch, each turned into rows before the next one runs
    while batch := list(itertools.islice(grid, per_call)):
        cells, points = zip(*batch)
        _, log_likelihoods = gap_posteriors(dataset, points)
        for (alpha, beta), log_likelihood in zip(cells, log_likelihoods.tolist()):
            value = math.exp(log_likelihood / dataset.num_transitions)
            rows.append((alpha, beta, se_db_between(value, reference)))
    path = _out_dir(config) / "se_grid.csv"
    _write_csv(
        path, _meta(config, resolved, "se-grid"), ["alpha", "beta", "se_db"], rows
    )
    print(f"se-grid: {len(rows)} grid points ({len(values)} per axis)")
    return [path]


def _estimate_channels(config: ExperimentConfig) -> list[EstimateReport]:
    """Simulate, observe, and estimate every configured channel.

    The channels are realized in order, each in its own frame, and only
    their gap histograms are kept; all of them are then fitted in one
    lockstep (run_em_each) and scored in order. The first channel to fail,
    in channel order, raises its error, as when each channel was realized,
    fitted and scored before the next: a realization or start error stops
    the realizing, and is raised only once the channels before it are
    fitted and scored.
    """
    channels = config.true_params
    heuristic = isinstance(config.starts, int)
    if heuristic:
        if config.starts != 1:
            raise ConfigError(
                f"multichannel runs fit one heuristic start per channel, "
                f"got heuristic_count {config.starts}"
            )
    elif len(config.starts) != len(channels):
        raise ConfigError(
            f"multichannel runs pair starts with channels one to one, "
            f"got {len(config.starts)} starts for {len(channels)} channels"
        )
    _check_truths(channels)
    datasets: list[GapHistogram] = []
    starts: list[ChannelParams] = []
    stopped: ChanEmError | None = None
    for index in range(len(channels)):
        try:
            dataset, start = _realize_channel(config, index, 0 if heuristic else index)
        except ChanEmError as exc:
            stopped = exc
            break
        datasets.append(dataset)
        starts.append(start)
    reports = []
    for dataset, truth, outcome in zip(
        datasets, channels, run_em_each(datasets, starts, config.em)
    ):
        if isinstance(outcome, ChanEmError):
            raise outcome
        score_against_truth(dataset, [outcome], truth, config.em.clamp_epsilon)
        reports.append(outcome)
    if stopped is not None:
        raise stopped
    return reports


def _realize_channel(
    config: ExperimentConfig, index: int, start_index: int
) -> tuple[GapHistogram, ChannelParams]:
    """Channel `index`'s gap histogram and its start `start_index`.

    Its own frame, so the channel's realization is freed when it returns
    and the next channel is realized with only earlier histograms alive.
    """
    dataset = _channel_dataset(config, index)
    return dataset, _resolve_starts(config, dataset)[start_index]


def cmd_multichannel(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Estimate every channel, tracing relative parameter error per iteration."""
    config = _ensure_recording(config)
    reports = _estimate_channels(config)
    truths = config.true_params
    out = _out_dir(config)
    meta = _meta(config, resolved, "multichannel")
    written = []
    for index, (truth, report) in enumerate(zip(truths, reports)):
        assert report.trajectory is not None
        rows = [
            (step.iteration, relative_error(step, truth))
            for step in report.trajectory.steps
        ]
        path = out / f"gamma_channel_{index}.csv"
        _write_csv(
            path,
            {**meta, "true_alpha": truth.alpha, "true_beta": truth.beta},
            ["p", "gamma_percent"],
            rows,
        )
        written.append(path)
    summary_path = out / "multichannel_summary.json"
    _write_json(
        summary_path,
        {
            "meta": meta,
            "channels": [
                {
                    "index": index,
                    "true_alpha": truth.alpha,
                    "true_beta": truth.beta,
                    **report.to_json_dict(),
                }
                for index, (truth, report) in enumerate(zip(truths, reports))
            ],
        },
    )
    written.append(summary_path)
    finals = ", ".join(
        f"ch{i}: gamma={report.gamma_percent:.3f}%" for i, report in enumerate(reports)
    )
    print(f"multichannel: {len(reports)} channels ({finals})")
    return written


def cmd_rank(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Rank channels by estimated utilization; flag statistically close pairs."""
    reports = _estimate_channels(config)
    estimates = [report.estimate for report in reports]
    u_hats = [utilization(e) for e in estimates]
    order = rank_channels(estimates)
    gammas = [report.gamma_percent for report in reports]
    # close-call rule: flag adjacent channels whose estimated utilization
    # gap is inside the error band implied by the parameter errors
    deltas = [
        2.0 * (gamma / 100.0) * u_hat * (1.0 - u_hat)
        for u_hat, gamma in zip(u_hats, gammas)
    ]
    close_pairs = []
    for pos in range(len(order) - 1):
        i, j = order[pos], order[pos + 1]
        if abs(u_hats[i] - u_hats[j]) < max(deltas[i], deltas[j]):
            close_pairs.append([i, j])
    truths = config.true_params
    payload: dict[str, Any] = {
        "meta": _meta(config, resolved, "rank"),
        "ranking": order,
        "channels": [
            {
                "index": i,
                "alpha_hat": estimates[i].alpha,
                "beta_hat": estimates[i].beta,
                "u_hat": u_hats[i],
                "gamma_percent": gammas[i],
            }
            for i in range(len(estimates))
        ],
        "close_pairs": close_pairs,
        "truth": {
            "ranking": rank_channels(truths),
            "u": [utilization(t) for t in truths],
        },
    }
    path = _out_dir(config) / "ranking.json"
    _write_json(path, payload)
    print(f"rank: estimated order {order}, true order {payload['truth']['ranking']}")
    return [path]
