"""`python tests/presets_diff.py BASE`: every run's outputs, on BASE and on this tree.

Each run goes through the CLI on BASE/src (BASE a checkout or `git archive`),
then on this checkout's src/, with the same --out path: the config hash and the
`wrote` lines include it. The trees, with each run's stdout, stderr and exit
code, are compared byte for byte and deleted; each run that exits other than
its table entry expects, and each differing, missing or extra file, is printed
and makes the exit code 1.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = {"simulate": "paper-fig3", "trajectories": "paper-fig3",
           "table1": "paper-table1", "se-grid": "paper-fig4",
           "multichannel": "paper-fig5", "rank": "paper-fig5"}
SCALES = {"desk": (), "paper": ("--paper-scale",)}
SEQUENCE = {"write_sequence": True}
EVERY_SLOT = {"schedule": {"kind": "fixed", "skip": 0}}
# long-gap's channel: alpha + beta near 0, gaps of 100-800 slots, as in no preset
SLOW = {"true_params": [{"alpha": 0.002, "beta": 0.003}], "observed_slots": 6000,
        "schedule": {"kind": "random-uniform", "support": list(range(100, 801, 100))},
        "master_seed": 0}
# sequence.csv, fixed and random gaps, and fig5's fastest channel's short runs
SEQUENCES = {
    "sequence": {},
    "random-sequence": {"schedule": {"kind": "random-uniform",
                                     "support": [1, 2, 3, 4, 5, 6]}},
    "fast-sequence": {"true_params": [{"alpha": 0.9, "beta": 0.6}]},
}
# channels whose signature tables differ (24 rows and 6), fitted in one lockstep
MIXED_TABLES = {"true_params": [{"alpha": 0.8, "beta": 0.3},
                                {"alpha": 1e-4, "beta": 1e-4}],
                "starts": [{"alpha": 0.6, "beta": 0.5}, {"alpha": 0.2, "beta": 0.8}],
                "observed_slots": 2000}
EDGES = {  # at desk scale, merged over the command's preset
    "table1": {
        # every slot observed at (1e-5, 1e-5): ten run blocks of one or two runs
        "one-pair-blocks": {**EVERY_SLOT, "observed_slots": 2 * 10**6,
                            "true_params": [{"alpha": 1e-5, "beta": 1e-5}]},
        # heuristic starts, the only reader of the occupied fraction, on 3 schedules
        "heuristic": {"starts": {"heuristic_count": 1}},
        "skip0": {**EVERY_SLOT, "starts": {"heuristic_count": 3}},
        "duplicates": {"starts": {"heuristic_count": 2}, "schedule": {
            "kind": "random-uniform", "support": [5, 2, 2, 9, 1, 5]}},
        # a last block of one gap
        "block-edge": {**SEQUENCE, "observed_slots": 65_538},
    },
    "simulate": {
        "slow-sequence": {**SEQUENCE, **SLOW},  # a few dozen runs to a block
        # the sequence ending on the first slot of a 10**5-slot row span, one past
        "span-start": {**SEQUENCE, **EVERY_SLOT, "observed_slots": 10**5},
        "span-past": {**SEQUENCE, **EVERY_SLOT, "observed_slots": 10**5 + 1},
        # runs longer than a span, one pair to a run block
        "longest-runs": {**SEQUENCE, "observed_slots": 3 * 10**5,
                         "true_params": [{"alpha": 1e-6, "beta": 1e-6}]},
        "block-edge": {**SEQUENCE, "observed_slots": 65_538},
    },
    "multichannel": {"heuristic": {"starts": {"heuristic_count": 1}},
                     "mixed-tables": MIXED_TABLES},
    "rank": {"heuristic": {"starts": {"heuristic_count": 1}},
             "mixed-tables": MIXED_TABLES},
}
# a channel that, once idle, stays idle; every run exits 3 on the second channel
STUCK = {"true_params": [{"alpha": 0.8, "beta": 0.3}, {"alpha": 0.5, "beta": 1e-12}]}
ERRORS = {  # at desk scale, merged over paper-fig5
    # InsufficientDataError: iteration 1: both states must be left at least once
    "update-error": {**STUCK, **EVERY_SLOT, "starts": MIXED_TABLES["starts"]},
    # DegenerateObservationsError: all observations agree
    "start-error": {**STUCK, "starts": {"heuristic_count": 1}},
}
# (path in the output tree, CLI command and flags but --out and --config, config,
# expected exit code)
RUNS = [
    *((f"{scale}/{command}", (command, "--preset", preset, *flags), {}, 0)
      for scale, flags in SCALES.items() for command, preset in PRESETS.items()),
    *((f"{scale}/simulate-{label}", ("simulate", "--preset", "paper-fig3", *flags),
       {**SEQUENCE, **config}, 0)
      for scale, flags in SCALES.items() for label, config in SEQUENCES.items()),
    *((f"desk/{command}-{label}", (command, "--preset", PRESETS[command]), config, 0)
      for command, configs in EDGES.items() for label, config in configs.items()),
    ("desk/table1-slow-mixing", ("table1",), {**SLOW, "em": {"max_iterations": 100},
        "starts": [{"alpha": a, "beta": b} for a, b in
                   ((0.0025, 0.0035), (0.0015, 0.0025), (0.02, 0.03), (0.2, 0.1))]},
     0),
    *((f"desk/{command}-{label}", (command, "--preset", "paper-fig5"), config, 3)
      for command in ("multichannel", "rank") for label, config in ERRORS.items()),
]


def run_all(src: Path, dest: Path, work: Path) -> list[str]:
    """Run RUNS on `src` into work/presets, move that tree to `dest`; name the
    runs that exit other than expected."""
    failures = []
    for name, command, config, expected in RUNS:
        out = work / "presets" / name
        out.parent.mkdir(parents=True, exist_ok=True)
        args = [*command, "--out", str(out)]
        if config:
            (work / "config.json").write_text(json.dumps(config))
            args += ["--config", str(work / "config.json")]
        with (open(f"{out}.stdout", "wb") as stdout,
              open(f"{out}.stderr", "wb") as stderr):
            code = subprocess.run(
                [sys.executable, "-m", "chan_em.harness.cli", *args], stdout=stdout,
                stderr=stderr, cwd=work, env={**os.environ, "PYTHONPATH": str(src)},
            ).returncode
        Path(f"{out}.exit").write_text(f"{code}\n")
        if code != expected:
            failures.append(f"{name} exited {code}, not {expected}, on {src}")
    (work / "presets").rename(dest)
    return failures


def differences(base: Path, head: Path) -> list[str]:
    """Every file that differs, is missing from `head` or is extra in it."""
    old, new = ({str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
                for root in (base, head))
    return [*(f"missing: {name}" for name in sorted(old - new)),
            *(f"extra: {name}" for name in sorted(new - old)),
            *(f"differs: {name}" for name in sorted(old & new)
              if not filecmp.cmp(base / name, head / name, shallow=False))]


def main(base: Path) -> int:
    head = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        found = run_all(base / "src", work / "base", work)
        found += run_all(head / "src", work / "head", work)
        found += differences(work / "base", work / "head")
    for line in found:
        print(line)
    print(f"{len(RUNS)} runs on base and head, {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or not Path(sys.argv[1], "src", "chan_em").is_dir():
        sys.exit(__doc__)  # BASE must hold src/chan_em
    sys.exit(main(Path(sys.argv[1]).resolve()))
