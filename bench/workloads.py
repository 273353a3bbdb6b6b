"""The benchmark's workloads: CLI arguments and output checks.

Each workload is one `chan-em` command on inputs made from the workload
seed, which becomes the CLI's `--seed` (the experiment's master seed). Its
check reads the files the command wrote and compares them with the
closed-form reference in `reference.py`, to a tolerance far below the
statistical error: estimates to 1e-9 relative, likelihood scores to 1e-3 dB.
A check returns the problems it found and the run's mean relative parameter
error against the truth, or None when the command fits nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from chan_em.harness.config import ExperimentConfig
from chan_em.harness.experiments import realize_dataset

EST_RTOL = 1e-9
SE_DB_ATOL = 1e-3
# a relative estimate error of EST_RTOL moves a percent error by about this
GAMMA_ATOL = 100 * EST_RTOL

Check = Callable[[Path, ExperimentConfig], tuple[list[str], float | None]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (scratch dir, tiny?) -> CLI arguments without --seed and --out
    argv: Callable[[Path, bool], list[str]]
    check: Check


def _write_config(scratch: Path, name: str, payload: dict) -> str:
    path = scratch / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def read_csv(path: Path, dtype=float) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(metadata, header, rows) of a CSV the harness wrote."""
    meta: dict[str, str] = {}
    with path.open() as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
            key, _, value = line[1:].strip().partition(": ")
            meta[key] = value
        rows = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
    return meta, header, rows


def _dataset_reference(config: ExperimentConfig, index: int):
    """Signatures, counts and transition count of channel `index`'s data."""
    dataset, _ = realize_dataset(
        config.true_params[index],
        config.schedule,
        config.observed_slots,
        config.master_seed,
        channel_index=index,
    )
    signatures, counts = reference.gap_signatures(dataset.times, dataset.states)
    return signatures, counts, dataset.num_transitions


def _rel_close(value: float, expected: float) -> bool:
    return abs(value - expected) <= EST_RTOL * abs(expected)


# fig5-paper: the paper's five-channel run


def _fig5_argv(scratch: Path, tiny: bool) -> list[str]:
    argv = ["multichannel", "--preset", "paper-fig5"]
    if not tiny:
        return argv + ["--paper-scale"]
    small = {
        "observed_slots": 5000,
        "em": {
            "max_iterations": 300,
            "param_tolerance": 0.0,
            "clamp_epsilon": 1e-9,
            "record_trajectory": True,
        },
    }
    return argv + ["--config", _write_config(scratch, "fig5-tiny.json", small)]


def _check_fig5(out: Path, config: ExperimentConfig) -> tuple[list[str], float | None]:
    problems: list[str] = []
    summary = json.loads((out / "multichannel_summary.json").read_text())
    channels = summary["channels"]
    if len(channels) != len(config.true_params):
        return [f"{len(channels)} channels reported"], None
    eps = config.em.clamp_epsilon
    iterations = config.em.max_iterations
    gammas = []
    for i, channel in enumerate(channels):
        truth = config.true_params[i].as_tuple()
        signatures, counts, transitions = _dataset_reference(config, i)
        path = reference.run_em(
            signatures, counts, config.starts[i].as_tuple(), iterations, eps
        )
        estimate = (channel["alpha_hat"], channel["beta_hat"])
        if channel["iterations"] != iterations:
            problems.append(f"ch{i}: {channel['iterations']} iterations run")
        if not all(map(_rel_close, estimate, path[-1])):
            problems.append(f"ch{i}: estimate {estimate} vs reference {path[-1]}")
        gamma = reference.relative_error_pct(estimate, truth)
        if not _rel_close(channel["gamma_percent"], gamma):
            problems.append(f"ch{i}: gamma {channel['gamma_percent']} vs {gamma}")
        truth_point = config.true_params[i].clamped(eps).as_tuple()
        se_db = reference.se_db(signatures, counts, transitions, estimate, truth_point)
        if abs(channel["se_db"] - se_db) > SE_DB_ATOL:
            problems.append(f"ch{i}: se_db {channel['se_db']} vs reference {se_db}")
        _, header, rows = read_csv(out / f"gamma_channel_{i}.csv")
        expected = [reference.relative_error_pct(p, truth) for p in path]
        if header != ["p", "gamma_percent"] or rows.shape != (iterations + 1, 2):
            problems.append(f"ch{i}: gamma table {header} {rows.shape}")
        elif not (
            np.array_equal(rows[:, 0], np.arange(iterations + 1))
            and np.all(np.abs(rows[:, 1] - expected) <= GAMMA_ATOL)
            and rows[-1, 1] == channel["gamma_percent"]
        ):
            problems.append(f"ch{i}: gamma trajectory drifts from the reference")
        gammas.append(channel["gamma_percent"])
    return problems, sum(gammas) / len(gammas)


# long-gap: a slowly mixing channel seen through gaps of 100 to 800 slots

LONG_GAP_TRUTH = {"alpha": 0.002, "beta": 0.003}
TABLE1_HEADER = [
    "start_alpha", "start_beta", "alpha_100", "beta_100", "se_db", "winner"
]


def _long_gap_argv(scratch: Path, tiny: bool) -> list[str]:
    config = {
        "true_params": [LONG_GAP_TRUTH],
        "schedule": {"kind": "random-uniform", "support": list(range(100, 801, 100))},
        "observed_slots": 400 if tiny else 6000,
        # two starts near the truth, two far from it
        "starts": [
            {"alpha": 0.0025, "beta": 0.0035},
            {"alpha": 0.0015, "beta": 0.0025},
            {"alpha": 0.02, "beta": 0.03},
            {"alpha": 0.2, "beta": 0.1},
        ],
        "em": {
            "max_iterations": 20 if tiny else 100,
            "param_tolerance": 0.0,
            "clamp_epsilon": 1e-9,
            "record_trajectory": False,
        },
        "master_seed": 0,
        "output_dir": "out/long-gap",
    }
    return ["table1", "--config", _write_config(scratch, "long-gap.json", config)]


def _check_long_gap(
    out: Path, config: ExperimentConfig
) -> tuple[list[str], float | None]:
    problems: list[str] = []
    _, header, rows = read_csv(out / "table1.csv")
    if header != TABLE1_HEADER or rows.shape != (len(config.starts), 6):
        return [f"table1 {header} {rows.shape}"], None
    eps = config.em.clamp_epsilon
    truth = config.single_channel()
    signatures, counts, transitions = _dataset_reference(config, 0)
    reference_se_db = []
    truth_point = truth.clamped(eps).as_tuple()
    for k, (row, start) in enumerate(zip(rows.tolist(), config.starts)):
        if tuple(row[:2]) != start.as_tuple():
            problems.append(f"row {k}: start {tuple(row[:2])}")
        final = reference.run_em(
            signatures, counts, start.as_tuple(), config.em.max_iterations, eps
        )[-1]
        if not all(map(_rel_close, row[2:4], final)):
            problems.append(f"row {k}: estimate {tuple(row[2:4])} vs reference {final}")
        se_db = reference.se_db(
            signatures, counts, transitions, tuple(row[2:4]), truth_point
        )
        if abs(row[4] - se_db) > SE_DB_ATOL:
            problems.append(f"row {k}: se_db {row[4]} vs reference {se_db}")
        reference_se_db.append(se_db)
    winners = np.flatnonzero(rows[:, 5] == 1)
    if len(winners) != 1 or not np.isin(rows[:, 5], (0, 1)).all():
        return problems + [f"winner column {rows[:, 5]}"], None
    winner = int(winners[0])
    # starts whose scores tie within the tolerance may win either way
    if reference_se_db[winner] > min(reference_se_db) + SE_DB_ATOL:
        problems.append(f"winner row {winner}, reference scores {reference_se_db}")
    return problems, reference.relative_error_pct(
        tuple(rows[winner, 2:4].tolist()), truth.as_tuple()
    )


# simulate-paper: realize and write one channel at paper scale


def _simulate_argv(scratch: Path, tiny: bool) -> list[str]:
    overrides: dict = {"write_sequence": True}
    if tiny:
        overrides["observed_slots"] = 5000
    path = _write_config(scratch, "simulate.json", overrides)
    argv = ["simulate", "--preset", "paper-fig3", "--config", path]
    return argv if tiny else argv + ["--paper-scale"]


def _check_simulate(
    out: Path, config: ExperimentConfig
) -> tuple[list[str], float | None]:
    problems: list[str] = []
    meta, header, observed = read_csv(out / "observed.csv", dtype=np.int64)
    _, seq_header, sequence = read_csv(out / "sequence.csv", dtype=np.int64)
    if header != ["slot_index", "state"] or seq_header != header:
        return [f"headers {header} {seq_header}"], None
    times, states = observed[:, 0], observed[:, 1]
    total = len(sequence)
    step = config.schedule.skip + 1
    if len(times) != config.observed_slots or not np.array_equal(
        times, 1 + step * np.arange(len(times))
    ):
        problems.append("observed slots do not follow the fixed schedule")
    if not np.array_equal(sequence[:, 0], np.arange(1, total + 1)):
        problems.append("sequence slot indices are not 1..n")
    if meta.get("total_slots") != str(total) or times[-1] != total:
        problems.append(f"total_slots {meta.get('total_slots')} vs {total} rows")
    elif not np.array_equal(states, sequence[times - 1, 1]):
        problems.append("observed states differ from the sequence")
    chain = sequence[:, 1]
    if not np.isin(chain, (0, 1)).all():
        return problems + ["sequence states outside {0, 1}"], None
    # the realized switch frequencies must match the truth within 6 sigma
    for state, p in zip((0, 1), config.single_channel().as_tuple()):
        leaving = chain[:-1] == state
        n = int(leaving.sum())
        switched = int((chain[1:][leaving] != state).sum())
        if abs(switched / n - p) > 6 * math.sqrt(p * (1 - p) / n):
            problems.append(f"state {state}: switch frequency {switched / n} vs {p}")
    return problems, None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig5-paper",
            "The paper's headline run: 5 channels, 1e6 observations each, 1000"
            " recorded iterations; time splits between realization and fitting,"
            " so both kinds of change show.",
            _fig5_argv,
            _check_fig5,
        ),
        Workload(
            "long-gap",
            "Slowly mixing channel, gaps of 100-800 slots, 4 starts: the E-step"
            " dominates and grows with gap length; near alpha+beta -> 0, so a"
            " kernel losing accuracy there shows.",
            _long_gap_argv,
            _check_long_gap,
        ),
        Workload(
            "simulate-paper",
            "Realizes 1e6 observations over 5e6 slots and writes 60 MB of CSV;"
            " no fit, so it measures writing and is the workload on which an"
            " E-step or likelihood change must read unchanged.",
            _simulate_argv,
            _check_simulate,
        ),
    )
}
