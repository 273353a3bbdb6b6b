"""The run table of presets_diff.py, checked without running a command."""

from __future__ import annotations

import json

import pytest

from chan_em.harness import cli
from presets_diff import RUNS


def test_every_command_runs_on_its_preset_at_both_scales():
    parser = cli.build_parser()
    plain = [parser.parse_args(command) for _, command, config, _ in RUNS if not config]
    runs = {(args.command, args.paper_scale) for args in plain if args.preset}
    assert runs == {(name, scale) for name in cli._COMMANDS for scale in (False, True)}


def test_run_names_are_unique():
    names = [name for name, _, _, _ in RUNS]
    assert len(set(names)) == len(names)


def test_only_the_multichannel_error_runs_expect_a_failure():
    # both multichannel commands, each failing once in a start and once in an
    # M-step, so that the error text and which channel raises it are compared
    failing = [(name, command[0], code) for name, command, _, code in RUNS if code]
    assert failing == [
        (f"desk/{command}-{label}", command, 3)
        for command in ("multichannel", "rank")
        for label in ("update-error", "start-error")
    ]


@pytest.mark.parametrize(
    "name, command, config, code", RUNS, ids=[run[0] for run in RUNS]
)
def test_every_config_parses(tmp_path, name, command, config, code):
    # the CLI merges the config file over the preset at the top level
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [*command, "--out", str(tmp_path / name), "--config", str(path)]
    args = cli.build_parser().parse_args(argv)
    cli.resolve_config(args)  # ConfigError on an unknown key or a bad value
