"""Command-line entry point.

    chan-em <command> [--preset NAME] [--config FILE] [--seed N] [--out DIR]
                      [--paper-scale]

Commands: simulate, trajectories, table1, se-grid, multichannel, rank.
A preset, a config file, or both (file keys override preset keys at the top
level) must supply the experiment. Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from chan_em.errors import ChanEmError, ConfigError
from chan_em.harness import experiments
from chan_em.harness.config import ExperimentConfig, load_config_file, parse_config
from chan_em.harness.presets import PRESET_NAMES, preset_config

_COMMANDS: dict[str, Callable[[ExperimentConfig, dict], list]] = {
    "simulate": experiments.cmd_simulate,
    "trajectories": experiments.cmd_trajectories,
    "table1": experiments.cmd_table1,
    "se-grid": experiments.cmd_se_grid,
    "multichannel": experiments.cmd_multichannel,
    "rank": experiments.cmd_rank,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chan-em",
        description=(
            "Simulate two-state Markov channels, observe them at sparse "
            "slot schedules, and estimate the switch probabilities by E-M."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0])
        cmd.add_argument("--config", help="JSON experiment config file")
        cmd.add_argument(
            "--preset",
            choices=PRESET_NAMES,
            help="built-in experiment (config file keys override it)",
        )
        cmd.add_argument("--seed", type=int, help="override master_seed")
        cmd.add_argument("--out", help="override output_dir")
        cmd.add_argument(
            "--paper-scale",
            action="store_true",
            help="run the preset at 1e6 observations instead of 1e5",
        )
    return parser


def resolve_config(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """Merge preset and config file, apply flag overrides, validate.

    Returns the typed config plus the resolved plain dict (the thing whose
    hash goes into output metadata).
    """
    resolved: dict[str, Any] = {}
    if args.preset:
        resolved.update(preset_config(args.preset, paper_scale=args.paper_scale))
    elif args.paper_scale:
        raise ConfigError("--paper-scale only applies to a --preset run")
    if args.config:
        resolved.update(load_config_file(args.config))
    if not resolved:
        raise ConfigError("provide --preset, --config, or both")
    if args.seed is not None:
        resolved["master_seed"] = args.seed
    if args.out is not None:
        resolved["output_dir"] = args.out
    return parse_config(resolved), resolved


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, resolved = resolve_config(args)
        for path in _COMMANDS[args.command](config, resolved):
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChanEmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO  # also stdout closing early, as under `| head -1`
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
