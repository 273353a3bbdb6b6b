"""Experiment configuration: JSON schema, validation, resolution, hashing.

A config file is a single JSON object whose keys are exactly the fields of
ExperimentConfig (unknown keys are rejected at every nesting level, so a
typo fails loudly instead of silently using a default). Presets provide
complete configs; a file or CLI flags can override parts of one.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from chan_em.em import EmConfig
from chan_em.errors import ConfigError
from chan_em.markov import ChannelParams
from chan_em.observation import ObservationSchedule

Parser = Callable[[Any, str], Any]  # (JSON value, where it sits) -> typed value

# Worst-case budget of one run (README "Config file schema"): simulated slots over
# all channels (about 9 B a slot, plus 50 B an observation if dense), and gap-kernel
# signature evaluations (4 signatures x (100 starts x 100 001 calls + a 1001² grid))
MAX_SIMULATED_SLOTS = 50_000_000
MAX_KERNEL_WORK = 4 * (100 * 100_001 + 1001**2)


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
        if not math.isfinite((hi - lo) / self.step):  # inf for a subnormal step
            raise ConfigError(f"grid step {self.step} is too small")
        if abs(lo + (self.points_per_axis - 1) * self.step - hi) > 1e-9:
            raise ConfigError(f"grid step {self.step} does not tile [{lo}, {hi}] evenly")

    @property
    def points_per_axis(self) -> int:
        lo, hi = self.bounds
        return round((hi - lo) / self.step) + 1

    def values(self) -> list[float]:
        """Grid coordinates lo, lo+step, ..., hi."""
        lo = self.bounds[0]
        return [lo + i * self.step for i in range(self.points_per_axis)]


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
    master_seed: int
    output_dir: Path
    em: EmConfig = EmConfig()
    grid: GridSpec = GridSpec()
    write_sequence: bool = False

    def __post_init__(self) -> None:
        if not self.true_params:
            raise ConfigError("true_params must list at least one channel")
        if self.observed_slots < 2:
            raise ConfigError("observed_slots must be >= 2")
        runs = self.starts if isinstance(self.starts, int) else len(self.starts)
        if runs < 1:
            raise ConfigError("starts must list a point or have heuristic_count >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")
        # One worst-case estimate: each start, or each channel's one start, makes
        # max_iterations + 1 kernel calls and se-grid one per grid point; a call
        # evaluates up to 4 signatures (start, end state) per distinct step length.
        schedule, channels = self.schedule, len(self.true_params)
        steps = {schedule.skip} if schedule.kind == "fixed" else set(schedule.support)
        slots = channels * (1 + (self.observed_slots - 1) * (max(steps) + 1))
        if slots > MAX_SIMULATED_SLOTS:
            raise ConfigError(
                f"plan needs up to {_short(slots)} slots, over {MAX_SIMULATED_SLOTS}"
            )
        calls = max(channels, runs) * (self.em.max_iterations + 1)
        calls += self.grid.points_per_axis**2
        work = min(4 * len(steps), self.observed_slots - 1) * calls
        if work > MAX_KERNEL_WORK:
            raise ConfigError(
                f"plan needs up to {_short(work)} signature evaluations, "
                f"over {MAX_KERNEL_WORK}"
            )

    def single_channel(self) -> ChannelParams:
        if len(self.true_params) != 1:
            raise ConfigError(
                f"this command needs exactly one channel, got {len(self.true_params)}"
            )
        return self.true_params[0]


def _short(count: int) -> str:
    """An estimate in scientific form; Decimal takes ints too large for a float."""
    from decimal import Decimal  # here, off the CLI's import time (about 1 ms)

    return f"{Decimal(count):.4e}"


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


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_path(value: Any, where: str) -> Path:
    text = _as_str(value, where)
    if "\0" in text:  # no file system takes it; os calls raise ValueError
        raise ConfigError(f"{where} must not contain a NUL character, got {text!r}")
    return Path(text)


def _list_of(parse: Parser, length: int | None = None) -> Parser:
    """Parser of a JSON list (of exactly `length` entries, if given) into a tuple."""

    def parse_list(value: Any, where: str) -> tuple:
        if not isinstance(value, list) or length not in (None, len(value)):
            size = "" if length is None else f" of {length}"
            raise ConfigError(f"{where} must be a list{size}, got {value!r}")
        return tuple(parse(entry, f"{where}[{i}]") for i, entry in enumerate(value))

    return parse_list


def _section(build: Callable[..., Any], fields: dict[str, Parser]) -> Parser:
    """Parser of a JSON object whose keys are `fields`, each converted by its parser.

    build(**converted) validates the section: a missing field (TypeError) or
    a rule it breaks (ValueError) becomes a ConfigError naming `where`.
    """

    def parse_section(value: Any, where: str) -> Any:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        unknown = set(value).difference(fields)
        if unknown:
            raise ConfigError(
                f"unknown {where} field(s): {', '.join(sorted(unknown))} "
                f"(allowed: {', '.join(sorted(fields))})"
            )
        kwargs = {key: fields[key](item, f"{where}.{key}") for key, item in value.items()}
        try:
            return build(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    return parse_section


_points = _list_of(_section(ChannelParams, {"alpha": _as_number, "beta": _as_number}))
_heuristic_count = _section(
    lambda heuristic_count: heuristic_count, {"heuristic_count": _as_int}
)


def _channels(value: Any, where: str) -> tuple[ChannelParams, ...]:
    return _points([value] if isinstance(value, dict) else value, where)


def _starts(value: Any, where: str) -> tuple[ChannelParams, ...] | int:
    return (_heuristic_count if isinstance(value, dict) else _points)(value, where)


_config = _section(
    ExperimentConfig,
    {
        "true_params": _channels,
        "schedule": _section(
            ObservationSchedule,
            {
                "kind": _as_str,
                "skip": _as_int,
                "support": _list_of(_as_int),
                "seed": _as_int,
            },
        ),
        "observed_slots": _as_int,
        "starts": _starts,
        "em": _section(
            EmConfig,
            {
                "max_iterations": _as_int,
                "param_tolerance": _as_number,
                "clamp_epsilon": _as_number,
                "record_trajectory": _as_bool,
            },
        ),
        "master_seed": _as_int,
        "output_dir": _as_path,
        "grid": _section(
            GridSpec, {"step": _as_number, "bounds": _list_of(_as_number, length=2)}
        ),
        "write_sequence": _as_bool,
    },
)


def parse_config(data: Any) -> ExperimentConfig:
    """Validate a plain JSON object and build the typed config."""
    return _config(data, "config")


def load_config_file(path: str | Path) -> dict:
    """Read a UTF-8 JSON config file into a plain dict (no validation yet)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError: not UTF-8, not JSON, or an int past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def config_hash(resolved: dict) -> str:
    """Short stable hash of a resolved config dict, for output metadata."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
