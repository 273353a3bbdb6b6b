"""Experiment configuration: JSON schema, validation, resolution, hashing.

A config file is a single JSON object whose keys are exactly the fields of
ExperimentConfig (unknown keys are rejected at every nesting level, so a
typo fails loudly instead of silently using a default). Presets provide
complete configs; a file or CLI flags can override parts of one.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from chan_em.em import EmConfig
from chan_em.errors import ConfigError
from chan_em.markov import ChannelParams
from chan_em.observation import ObservationSchedule

_TOP_KEYS = {
    "true_params",
    "schedule",
    "observed_slots",
    "starts",
    "em",
    "master_seed",
    "output_dir",
    "grid",
    "write_sequence",
}
_PARAM_KEYS = {"alpha", "beta"}
_SCHEDULE_KEYS = {"kind", "skip", "support", "seed"}
_EM_KEYS = {"max_iterations", "param_tolerance", "clamp_epsilon", "record_trajectory"}
_GRID_KEYS = {"step", "bounds"}
_STARTS_KEYS = {"heuristic_count"}

# cap on worst-case simulated slots per channel; 5e7 fast-mixing slots peak near 0.9 GB
MAX_SIMULATED_SLOTS = 50_000_000
# caps on per-run work; the presets use at most 1000 iterations and 51 grid values
MAX_EM_ITERATIONS = 100_000
MAX_GRID_VALUES = 1001
MAX_HEURISTIC_STARTS = 100


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over the (alpha, beta) square for the error surface."""

    step: float = 0.02
    bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.bounds
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(f"grid bounds must satisfy 0 <= lo < hi <= 1, got {self.bounds}")
        if not 0.0 < self.step <= hi - lo:
            raise ConfigError(f"grid step must lie in (0, {hi - lo}], got {self.step}")
        # values() returns round((hi - lo) / step) + 1 points; inf for a subnormal step
        if (hi - lo) / self.step >= MAX_GRID_VALUES - 0.5:
            raise ConfigError(
                f"grid step {self.step} gives more than {MAX_GRID_VALUES} values per axis"
            )

    def values(self) -> list[float]:
        """Grid coordinates lo, lo+step, ..., hi (step must tile the range)."""
        lo, hi = self.bounds
        n = round((hi - lo) / self.step)
        if abs(lo + n * self.step - hi) > 1e-9:
            raise ConfigError(
                f"grid step {self.step} does not tile [{lo}, {hi}] evenly"
            )
        return [lo + i * self.step for i in range(n + 1)]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: channels, observation plan, E-M settings, seeding.

    true_params holds one entry per channel (single-channel commands require
    exactly one). starts is either an explicit tuple of points shared by
    every channel pairing (multichannel pairs starts[i] with channel i) or
    the int count of heuristic starts to generate per dataset.
    """

    true_params: tuple[ChannelParams, ...]
    schedule: ObservationSchedule
    observed_slots: int
    starts: tuple[ChannelParams, ...] | int
    em: EmConfig
    master_seed: int
    output_dir: Path
    grid: GridSpec | None = None
    write_sequence: bool = False

    def __post_init__(self) -> None:
        if not self.true_params:
            raise ConfigError("true_params must list at least one channel")
        if self.observed_slots < 2:
            raise ConfigError("observed_slots must be >= 2")
        schedule = self.schedule
        longest = schedule.skip if schedule.kind == "fixed" else max(schedule.support)
        if 1 + (self.observed_slots - 1) * (longest + 1) > MAX_SIMULATED_SLOTS:
            raise ConfigError(
                f"{self.observed_slots} observations with skips up to {longest} "
                f"can span more than {MAX_SIMULATED_SLOTS} simulated slots"
            )
        if self.em.max_iterations > MAX_EM_ITERATIONS:
            raise ConfigError(f"em.max_iterations must be <= {MAX_EM_ITERATIONS}")
        if isinstance(self.starts, int):
            if not 1 <= self.starts <= MAX_HEURISTIC_STARTS:
                raise ConfigError(
                    f"heuristic_count must lie in [1, {MAX_HEURISTIC_STARTS}]"
                )
        elif not self.starts:
            raise ConfigError("starts must list at least one point")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")

    def single_channel(self) -> ChannelParams:
        if len(self.true_params) != 1:
            raise ConfigError(
                f"this command needs exactly one channel, got {len(self.true_params)}"
            )
        return self.true_params[0]


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for inf, nan and huge ints
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _parse_params(value: Any, where: str) -> ChannelParams:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object with alpha and beta")
    _require_keys(value, _PARAM_KEYS, where)
    if "alpha" not in value or "beta" not in value:
        raise ConfigError(f"{where} needs both alpha and beta")
    try:
        return ChannelParams(
            _as_number(value["alpha"], f"{where}.alpha"),
            _as_number(value["beta"], f"{where}.beta"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_schedule(value: Any) -> ObservationSchedule:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError("schedule must be an object with a kind")
    _require_keys(value, _SCHEDULE_KEYS, "schedule")
    kind = value["kind"]
    try:
        if kind == "fixed":
            if "skip" not in value:
                raise ConfigError("fixed schedule needs skip")
            extras = set(value) - {"kind", "skip"}
            if extras:
                raise ConfigError(
                    f"fixed schedule does not take: {', '.join(sorted(extras))}"
                )
            return ObservationSchedule.fixed(_as_int(value["skip"], "schedule.skip"))
        if kind == "random-uniform":
            if "support" not in value:
                raise ConfigError("random-uniform schedule needs support")
            if "skip" in value:
                raise ConfigError("random-uniform schedule does not take: skip")
            support = value["support"]
            if not isinstance(support, list):
                raise ConfigError("schedule.support must be a list of integers")
            support_ints = tuple(
                _as_int(s, "schedule.support entry") for s in support
            )
            seed = value.get("seed")
            if seed is not None:
                seed = _as_int(seed, "schedule.seed")
            return ObservationSchedule(
                kind="random-uniform", support=support_ints, seed=seed
            )
        raise ConfigError(f"schedule.kind must be 'fixed' or 'random-uniform', got {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _parse_em(value: Any) -> EmConfig:
    if value is None:
        return EmConfig()
    if not isinstance(value, dict):
        raise ConfigError("em must be an object")
    _require_keys(value, _EM_KEYS, "em")
    kwargs: dict[str, Any] = {}
    if "max_iterations" in value:
        kwargs["max_iterations"] = _as_int(value["max_iterations"], "em.max_iterations")
    if "param_tolerance" in value:
        kwargs["param_tolerance"] = _as_number(
            value["param_tolerance"], "em.param_tolerance"
        )
    if "clamp_epsilon" in value:
        kwargs["clamp_epsilon"] = _as_number(value["clamp_epsilon"], "em.clamp_epsilon")
    if "record_trajectory" in value:
        if not isinstance(value["record_trajectory"], bool):
            raise ConfigError("em.record_trajectory must be a boolean")
        kwargs["record_trajectory"] = value["record_trajectory"]
    try:
        return EmConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"em: {exc}") from exc


def _parse_starts(value: Any) -> tuple[ChannelParams, ...] | int:
    if isinstance(value, dict):
        _require_keys(value, _STARTS_KEYS, "starts")
        if "heuristic_count" not in value:
            raise ConfigError("starts object needs heuristic_count")
        return _as_int(value["heuristic_count"], "starts.heuristic_count")
    if isinstance(value, list):
        return tuple(
            _parse_params(entry, f"starts[{i}]") for i, entry in enumerate(value)
        )
    raise ConfigError("starts must be a list of points or {\"heuristic_count\": n}")


def _parse_grid(value: Any) -> GridSpec:
    if not isinstance(value, dict):
        raise ConfigError("grid must be an object")
    _require_keys(value, _GRID_KEYS, "grid")
    kwargs: dict[str, Any] = {}
    if "step" in value:
        kwargs["step"] = _as_number(value["step"], "grid.step")
    if "bounds" in value:
        bounds = value["bounds"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError("grid.bounds must be a two-element list")
        kwargs["bounds"] = (
            _as_number(bounds[0], "grid.bounds[0]"),
            _as_number(bounds[1], "grid.bounds[1]"),
        )
    return GridSpec(**kwargs)


def parse_config(data: Any) -> ExperimentConfig:
    """Validate a plain JSON object and build the typed config."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, _TOP_KEYS, "config")
    for required in ("true_params", "schedule", "observed_slots", "starts",
                     "master_seed", "output_dir"):
        if required not in data:
            raise ConfigError(f"config is missing required field {required!r}")
    raw_params = data["true_params"]
    if isinstance(raw_params, dict):
        raw_params = [raw_params]
    if not isinstance(raw_params, list):
        raise ConfigError("true_params must be an object or a list of objects")
    channels = tuple(
        _parse_params(entry, f"true_params[{i}]") for i, entry in enumerate(raw_params)
    )
    if not isinstance(data["output_dir"], str):
        raise ConfigError("output_dir must be a string path")
    write_sequence = data.get("write_sequence", False)
    if not isinstance(write_sequence, bool):
        raise ConfigError("write_sequence must be a boolean")
    return ExperimentConfig(
        true_params=channels,
        schedule=_parse_schedule(data["schedule"]),
        observed_slots=_as_int(data["observed_slots"], "observed_slots"),
        starts=_parse_starts(data["starts"]),
        em=_parse_em(data.get("em")),
        master_seed=_as_int(data["master_seed"], "master_seed"),
        output_dir=Path(data["output_dir"]),
        grid=_parse_grid(data["grid"]) if "grid" in data else None,
        write_sequence=write_sequence,
    )


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file into a plain dict (no validation yet)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def config_hash(resolved: dict) -> str:
    """Short stable hash of a resolved config dict, for output metadata."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
