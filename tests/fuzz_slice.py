"""The larger fuzz slice and the budget's memory bounds, as one script.

pytest does not collect this file; tier-1 runs test_fuzz.py's 30 configs.
Run it from the repository root as

    PYTHONPATH=src python tests/fuzz_slice.py

It exits 1, after printing what failed, when

1. any of 400 configs drawn by test_fuzz.draw_config(random.Random(20142)),
   each run through all six commands by cli.main, returns a code other than
   0, 2, 3 or 4, raises, or takes SECONDS_PER_CALL or longer; or
2. realize_histogram at the budget's limit, MAX_SIMULATED_SLOTS observations
   with every slot observed, traces a tracemalloc peak over its bound, or
   the peaks of two (1, 1) channels of half that many, each realized alone
   and summed, exceed the (1, 1) bound: the budget sums the slots of all
   channels, and multichannel realizes at most two channels at once, one in
   this process and one in a forked helper, whose allocations this
   process's tracemalloc does not see, so the sum stands for the two in
   flight; or
3. a run_em trajectory of TRAJECTORY_ITERATIONS recorded steps holds more
   than TRAJECTORY_STEP_BYTES a step under tracemalloc.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import time
import traceback
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from chan_em import ChannelParams, EmConfig, ObservationSchedule, run_em
from chan_em.harness import cli, realize_histogram
from chan_em.harness.config import MAX_SIMULATED_SLOTS
from test_fuzz import SECONDS_PER_CALL, draw_config

CONFIGS = 400
SEED = 20142  # test_fuzz.py's tier-1 slice draws from 20141
EXIT_CODES = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_IO)
# tracemalloc peak bound per truth, in MiB: 12.1 MiB traced at (0.8, 0.3) and
# 26.5 MiB at (1, 1), whose 2.5e7 first-state sojourns the sampler keeps at
# 1 B each; two (1, 1) channels of half the slots each, their peaks summed,
# 28.7 MiB (master seed 0, 2-vCPU x86-64, numpy 2.4)
PEAK_MIB = {(0.8, 0.3): 14, (1.0, 1.0): 32}
# bytes a recorded trajectory step holds: 192.3 B traced at 2e4 iterations
# and 191.9 B at 1e5 (1 start, skip 4, 1000 observations, 2-vCPU x86-64,
# Python 3.11), the same per step as the README's budget paragraph states
TRAJECTORY_ITERATIONS = 20_000
TRAJECTORY_STEP_BYTES = 200


def fuzz(failures: list[str]) -> Counter:
    """Run every drawn config through every command; count the exit codes."""
    rng = random.Random(SEED)
    codes: Counter = Counter()
    for index in range(CONFIGS):
        drawn = draw_config(rng)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({**drawn, "output_dir": str(Path(tmp) / "out")}))
            for command in cli._COMMANDS:
                began = time.perf_counter()
                trace = ""
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main([command, "--config", str(path)])
                except Exception as exc:  # every raise is a finding: keep going
                    code, trace = f"raised {type(exc).__name__}", traceback.format_exc()
                took = time.perf_counter() - began
                codes[code] += 1
                if code not in EXIT_CODES or took >= SECONDS_PER_CALL:
                    failures.append(
                        f"config {index} {command}: {code} in {took:.2f} s: "
                        f"{json.dumps(drawn)}\n{trace}"
                    )
    return codes


def traced_peak(
    alpha: float,
    beta: float,
    observations: int = MAX_SIMULATED_SLOTS,
    channel_index: int = 0,
) -> tuple[int, float]:
    """tracemalloc peak and seconds of realize_histogram, at the slot limit
    unless `observations` says otherwise."""
    schedule = ObservationSchedule.fixed(0)
    tracemalloc.start()
    began = time.perf_counter()
    try:
        realize_histogram(
            ChannelParams(alpha, beta), schedule, observations, 0, channel_index
        )
        took = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, took


def two_channel_peak() -> tuple[int, float]:
    """Summed tracemalloc peaks, and seconds, of two (1, 1) channels.

    Each has half the slot limit and is realized alone, as channels 0 and
    1 of one multichannel run: its two processes hold at most one each.
    """
    peaks, took = zip(*(
        traced_peak(1.0, 1.0, MAX_SIMULATED_SLOTS // 2, index) for index in (0, 1)
    ))
    return sum(peaks), sum(took)


def trajectory_step_bytes() -> tuple[float, float]:
    """Bytes held per recorded step, and seconds, of one run_em trajectory."""
    dataset = realize_histogram(
        ChannelParams(0.8, 0.3), ObservationSchedule.fixed(4), 1000, 0
    )
    config = EmConfig(max_iterations=TRAJECTORY_ITERATIONS, record_trajectory=True)
    run_em(dataset, ChannelParams(0.6, 0.5), EmConfig(max_iterations=1))  # plan
    tracemalloc.start()
    began = time.perf_counter()
    try:
        report = run_em(dataset, ChannelParams(0.6, 0.5), config)
        took = time.perf_counter() - began
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / len(report.trajectory.steps), took


def main() -> int:
    # as tier-1 runs the commands (pyproject.toml's filterwarnings)
    warnings.simplefilter("error", RuntimeWarning)
    failures: list[str] = []
    codes = fuzz(failures)
    print(f"fuzz: {CONFIGS} configs, {sum(codes.values())} calls, exit codes "
          f"{dict(sorted(codes.items(), key=str))}")
    np.random.default_rng(0)  # numpy imports np.random on first use: not traced
    for (alpha, beta), bound in PEAK_MIB.items():
        peak, took = traced_peak(alpha, beta)
        print(f"realize_histogram ({alpha}, {beta}) at {MAX_SIMULATED_SLOTS} "
              f"slots: peak {peak / 2**20:.1f} MiB (bound {bound}) in {took:.1f} s")
        if peak > bound * 2**20:
            failures.append(f"({alpha}, {beta}) peak {peak / 2**20:.1f} MiB > {bound}")
    peak, took = two_channel_peak()
    bound = PEAK_MIB[(1.0, 1.0)]
    print(f"two (1.0, 1.0) channels at {MAX_SIMULATED_SLOTS // 2} slots each: "
          f"peaks sum to {peak / 2**20:.1f} MiB (bound {bound}) in {took:.1f} s")
    if peak > bound * 2**20:
        failures.append(f"two channels' peaks {peak / 2**20:.1f} MiB > {bound}")
    per_step, took = trajectory_step_bytes()
    print(f"trajectory of {TRAJECTORY_ITERATIONS} iterations: {per_step:.1f} B a "
          f"recorded step (bound {TRAJECTORY_STEP_BYTES}) in {took:.1f} s")
    if per_step > TRAJECTORY_STEP_BYTES:
        failures.append(f"trajectory {per_step:.1f} B a step > {TRAJECTORY_STEP_BYTES}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
