"""Reproducible experiment harness: configs, presets, pipelines, CLI."""

from chan_em.harness.config import (
    ExperimentConfig,
    GridSpec,
    config_hash,
    load_config_file,
    parse_config,
)
from chan_em.harness.experiments import (
    cmd_multichannel,
    cmd_rank,
    cmd_se_grid,
    cmd_simulate,
    cmd_table1,
    cmd_trajectories,
    derive_seed,
    realize_dataset,
    realize_histogram,
)
from chan_em.harness.presets import PRESET_NAMES, PRESETS, preset_config

__all__ = [
    "ExperimentConfig",
    "GridSpec",
    "PRESETS",
    "PRESET_NAMES",
    "cmd_multichannel",
    "cmd_rank",
    "cmd_se_grid",
    "cmd_simulate",
    "cmd_table1",
    "cmd_trajectories",
    "config_hash",
    "derive_seed",
    "load_config_file",
    "parse_config",
    "preset_config",
    "realize_dataset",
    "realize_histogram",
]
