"""A seeded slice of configs drawn from the schema, run through every command.

Each config is small (at most 5000 observations and 20 E-M iterations) but
draws its values from the edges the checks guard: truths at 0, 1 and next
to them, every slot observed, supports with duplicate entries, heuristic
starts, the smallest clamp. Whatever a config asks, the CLI must answer
with one of its exit codes, never a traceback, and in bounded time.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from chan_em.harness.cli import (
    _COMMANDS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)

EDGES = (0.0, 1e-18, 2**-53, 0.5, 1 - 1e-12, 1.0)
CONFIGS = 30
SECONDS_PER_CALL = 10.0  # each call of this slice takes milliseconds


def _point(rng: random.Random) -> dict[str, float]:
    """Each probability an edge value or, half the time, an interior one."""
    alpha, beta = (
        rng.choice(EDGES) if rng.random() < 0.5 else rng.uniform(0.05, 0.95)
        for _ in range(2)
    )
    return {"alpha": alpha, "beta": beta}


def draw_config(rng: random.Random) -> dict:
    """One config of the schema, its values drawn towards the edges."""
    channels = [_point(rng) for _ in range(rng.choice((1, 1, 2, 3)))]
    if rng.random() < 0.5:
        schedule = {"kind": "fixed", "skip": rng.choice((0, 1, 4))}
    else:
        support = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
        schedule = {"kind": "random-uniform", "support": support}
        if rng.random() < 0.3:
            schedule["support"] = support + support[:1]  # a duplicate entry
    if rng.random() < 0.5:  # multichannel and rank take one start a channel
        count = rng.choice((1, len(channels), 3))
        starts: list | dict = [_point(rng) for _ in range(count)]
    else:
        starts = {"heuristic_count": rng.choice((1, 1, 2, 3))}
    return {
        "true_params": channels,
        "schedule": schedule,
        "observed_slots": rng.choice((2, 3, *[rng.randint(2, 5000)] * 8)),
        "starts": starts,
        "em": {
            "max_iterations": rng.randint(1, 20),
            "param_tolerance": rng.choice((0.0, 1e-8)),
            "clamp_epsilon": rng.choice((2**-53, 1e-9, 0.01)),
            "record_trajectory": rng.random() < 0.5,
        },
        "grid": {"step": rng.choice((0.25, 0.5, 1.0)), "bounds": [0.0, 1.0]},
        "master_seed": rng.randint(0, 2**32),
        "write_sequence": rng.random() < 0.5,
    }


def _drawn() -> list[dict]:
    rng = random.Random(20141)
    return [draw_config(rng) for _ in range(CONFIGS)]


@pytest.mark.parametrize("drawn", _drawn())
def test_every_command_exits_with_a_code(tmp_path, drawn):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**drawn, "output_dir": str(tmp_path / "out")}))
    for command in _COMMANDS:
        began = time.perf_counter()
        code = main([command, "--config", str(path)])
        took = time.perf_counter() - began
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO), (command, code)
        assert took < SECONDS_PER_CALL, (command, took)
