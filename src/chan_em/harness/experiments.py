"""Experiment pipelines behind the CLI subcommands.

Every experiment realizes its data from the config's master seed through
fixed derivation paths (one stream per purpose and channel), so rerunning
any command with the same resolved config writes byte-identical files.
Output files carry a metadata block naming the tool version, the command,
the config hash, and the master seed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

import chan_em
from chan_em.em import (
    EstimateReport,
    heuristic_starts,
    multi_start,
    relative_error,
    run_em,
    score_against_truth,
)
from chan_em.errors import ConfigError
from chan_em.harness.config import ExperimentConfig, config_hash
from chan_em.likelihood import geometric_mean_likelihood, se_db_between
from chan_em.likelihood import squared_error_db  # noqa: F401  kept for bench/tracing.py
from chan_em.markov import ChannelParams, rank_channels, simulate_chain, utilization
from chan_em.observation import ObservationSchedule, ObservedDataset, write_slot_states

# seed-derivation stream tags (second entry of the SeedSequence path)
_STREAM_CHAIN = 0
_STREAM_SCHEDULE = 1


def derive_seed(master_seed: int, stream: int, index: int = 0) -> int:
    """Stable 64-bit sub-seed for one purpose (stream) and channel (index)."""
    seq = np.random.SeedSequence((master_seed, stream, index))
    return int(seq.generate_state(1, np.uint64)[0])


def _with_seed(schedule: ObservationSchedule, seed: int) -> ObservationSchedule:
    """Inject a derived seed into a random schedule that lacks one."""
    if schedule.kind == "fixed" or schedule.seed is not None:
        return schedule
    return ObservationSchedule(kind=schedule.kind, support=schedule.support, seed=seed)


def realize_dataset(
    truth: ChannelParams,
    schedule: ObservationSchedule,
    num_observations: int,
    master_seed: int,
    channel_index: int = 0,
) -> tuple[ObservedDataset, np.ndarray]:
    """Simulate one channel and observe it on the schedule.

    Returns (dataset, full sequence). The chain seed and the schedule seed
    are derived independently from the master seed and the channel index.
    """
    schedule = _with_seed(
        schedule, derive_seed(master_seed, _STREAM_SCHEDULE, channel_index)
    )
    times = schedule.times_for_count(num_observations)
    total_slots = int(times[-1])
    sequence = simulate_chain(
        truth, total_slots, derive_seed(master_seed, _STREAM_CHAIN, channel_index)
    )
    dataset = ObservedDataset(times=times, states=sequence[times - 1])
    return dataset, sequence


def _check_truths(truths: Iterable[ChannelParams]) -> None:
    """Raise before any fitting if a truth cannot score the runs against it.

    relative_error raises DegenerateParametersError for a zero alpha or beta.
    """
    for truth in truths:
        relative_error(truth, truth)


def _resolve_starts(
    config: ExperimentConfig, dataset: ObservedDataset
) -> list[ChannelParams]:
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
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
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
    """Realize the (single) channel and write the observed dataset CSV."""
    truth = config.single_channel()
    dataset, sequence = realize_dataset(
        truth, config.schedule, config.observed_slots, config.master_seed
    )
    out = _out_dir(config)
    meta = _meta(config, resolved, "simulate")
    written = [out / "observed.csv"]
    dataset.save(written[0], meta={**meta, "total_slots": int(dataset.times[-1])})
    if config.write_sequence:
        seq_path = out / "sequence.csv"
        write_slot_states(seq_path, None, sequence, meta)  # slots 1..len(sequence)
        written.append(seq_path)
    hidden, counts = np.unique(np.diff(dataset.times) - 1, return_counts=True)
    hist = dict(zip(hidden.tolist(), counts.tolist()))
    print(
        f"simulate: {dataset.num_observations} observations over "
        f"{int(dataset.times[-1])} slots, hidden-length histogram "
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
    dataset, _ = realize_dataset(
        truth, config.schedule, config.observed_slots, config.master_seed
    )
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
            (
                (s.iteration, s.alpha, s.beta, s.log_likelihood)
                for s in report.trajectory.steps
            ),
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
    dataset, _ = realize_dataset(
        truth, config.schedule, config.observed_slots, config.master_seed
    )
    eps = config.em.clamp_epsilon
    values = config.grid.values()
    reference = geometric_mean_likelihood(dataset, truth.clamped(eps))
    rows = []
    for alpha in values:
        for beta in values:
            candidate = ChannelParams(alpha, beta).clamped(eps)
            value = geometric_mean_likelihood(dataset, candidate)
            rows.append((alpha, beta, se_db_between(value, reference)))
    path = _out_dir(config) / "se_grid.csv"
    _write_csv(
        path, _meta(config, resolved, "se-grid"), ["alpha", "beta", "se_db"], rows
    )
    print(f"se-grid: {len(rows)} grid points ({len(values)} per axis)")
    return [path]


def _estimate_channels(
    config: ExperimentConfig,
) -> list[tuple[ChannelParams, EstimateReport]]:
    """Simulate, observe, and estimate every configured channel."""
    channels = list(config.true_params)
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
    results = []
    for index, truth in enumerate(channels):
        dataset, _ = realize_dataset(
            truth,
            config.schedule,
            config.observed_slots,
            config.master_seed,
            channel_index=index,
        )
        start = _resolve_starts(config, dataset)[0 if heuristic else index]
        report = run_em(dataset, start, config.em)
        score_against_truth(dataset, [report], truth, config.em.clamp_epsilon)
        results.append((truth, report))
    return results


def cmd_multichannel(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Estimate every channel, tracing relative parameter error per iteration."""
    config = _ensure_recording(config)
    results = _estimate_channels(config)
    out = _out_dir(config)
    meta = _meta(config, resolved, "multichannel")
    written = []
    for index, (truth, report) in enumerate(results):
        assert report.trajectory is not None
        rows = [
            (step.iteration, relative_error(ChannelParams(step.alpha, step.beta), truth))
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
                for index, (truth, report) in enumerate(results)
            ],
        },
    )
    written.append(summary_path)
    finals = ", ".join(
        f"ch{i}: gamma={report.gamma_percent:.3f}%"
        for i, (_, report) in enumerate(results)
    )
    print(f"multichannel: {len(results)} channels ({finals})")
    return written


def cmd_rank(config: ExperimentConfig, resolved: dict) -> list[Path]:
    """Rank channels by estimated utilization; flag statistically close pairs."""
    results = _estimate_channels(config)
    estimates = [report.estimate for _, report in results]
    u_hats = [utilization(e) for e in estimates]
    order = rank_channels(estimates)
    gammas = [report.gamma_percent for _, report in results]
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
    truths = [truth for truth, _ in results]
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
