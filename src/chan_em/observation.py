"""Sparse observation of a channel: schedules, observed datasets, gaps.

An observer samples the channel state at an increasing sequence of slot
indices (1-based, always starting at slot 1). Consecutive observations at
slots t and t' leave t' - t - 1 hidden slots between them; the triple
(start state, end state, hidden length) is all the likelihood ever needs
from a gap, so datasets precompute a histogram of those signatures. The
`slot_index,state` CSV of observed and full sequences is written and read
only here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from chan_em.errors import InsufficientDataError

_SCHEDULE_KINDS = ("fixed", "random-uniform")
_WRITE_BLOCK = 1 << 16  # rows per formatted write of a slot-state CSV


class Gap(NamedTuple):
    """One segment between consecutive observations."""

    start_state: int
    end_state: int
    hidden_len: int


@dataclass(frozen=True)
class ObservationSchedule:
    """Rule for how many slots to skip between consecutive observations.

    kind "fixed" skips the same number every time; "random-uniform" draws the
    skip i.i.d. uniformly from `support` (a tuple of lengths >= 1) using its
    own seed, so a schedule is replayable independently of the chain. It is
    one bulk draw: every observation count sees a prefix of the same stream.
    """

    kind: str
    skip: int | None = None
    support: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {_SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind == "fixed":
            if self.skip is None or self.skip < 0:
                raise ValueError("fixed schedule needs skip >= 0")
            if self.support is not None:
                raise ValueError("fixed schedule takes no support")
            if self.seed is not None:
                raise ValueError("fixed schedule takes no seed")
        else:
            if not self.support:
                raise ValueError("random-uniform schedule needs a non-empty support")
            if any(int(s) != s or s < 1 for s in self.support):
                raise ValueError("support entries must be integers >= 1")
            if self.skip is not None:
                raise ValueError("random-uniform schedule takes no fixed skip")
            if self.seed is not None and self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")
            object.__setattr__(self, "support", tuple(int(s) for s in self.support))

    @classmethod
    def fixed(cls, skip: int) -> ObservationSchedule:
        return cls(kind="fixed", skip=int(skip))

    @classmethod
    def random_uniform(
        cls, support: tuple[int, ...], seed: int | None = None
    ) -> ObservationSchedule:
        # seed may stay None until a caller injects one (required to draw)
        return cls(
            kind="random-uniform",
            support=tuple(support),
            seed=None if seed is None else int(seed),
        )

    def _times(self, gaps: int) -> np.ndarray:
        """The first `gaps + 1` observation slots, starting at slot 1.

        A random schedule draws all `gaps` skips in one call on a freshly
        seeded generator, so every count sees a prefix of the same stream.
        """
        steps = np.ones(gaps + 1, dtype=np.int64)
        if self.kind == "fixed":
            steps[1:] = self.skip + 1
        else:
            if self.seed is None:
                raise ValueError("random-uniform schedule needs a seed before drawing")
            rng = np.random.default_rng(self.seed)
            picks = rng.integers(0, len(self.support), size=gaps)
            # in place: mode "raise" would buffer a copy of the output
            np.take(np.add(self.support, 1), picks, out=steps[1:], mode="clip")
        return np.cumsum(steps, out=steps)

    def times_for_count(self, num_observations: int) -> np.ndarray:
        """1-based observation slots for exactly `num_observations` samples."""
        if num_observations < 2:
            raise ValueError("need at least 2 observations")
        return self._times(num_observations - 1)

    def times_within(self, total_slots: int) -> np.ndarray:
        """All observation slots that fit a sequence of `total_slots` slots."""
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        shortest_step = 1 + (self.skip if self.kind == "fixed" else min(self.support))
        times = self._times((total_slots - 1) // shortest_step)
        return times[times <= total_slots]


@dataclass(frozen=True)
class ObservedDataset:
    """States sampled at strictly increasing 1-based slot indices.

    `times[0]` is always 1 (the first slot is observed) and at least two
    observations are required, so `times[-1] - 1` transitions span the
    window. Arrays are copied and frozen on construction.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=np.int64)
        states = np.array(self.states, dtype=np.int8)
        if times.ndim != 1 or states.ndim != 1 or times.shape != states.shape:
            raise ValueError("times and states must be 1-d arrays of equal length")
        if times.shape[0] < 2:
            raise InsufficientDataError("need at least 2 observations")
        if times[0] != 1:
            raise ValueError("first observation must be at slot 1")
        if np.any(np.diff(times) < 1):
            raise ValueError("observation times must be strictly increasing")
        if not np.isin(states, (0, 1)).all():
            raise ValueError("states must be 0 (occupied) or 1 (idle)")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def num_observations(self) -> int:
        return int(self.times.shape[0])

    @property
    def num_transitions(self) -> int:
        """Transitions spanned by the observation window, times[-1] - 1."""
        return int(self.times[-1]) - 1

    @cached_property
    def gap_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct gap signatures and their multiplicities.

        Returns (signatures, counts) where signatures has one row
        (start_state, end_state, hidden_len) per distinct gap shape, in a
        deterministic order. All likelihood and E-step work is linear in the
        number of signatures rather than the number of observations.
        """
        hidden = self.times[1:] - self.times[:-1] - 1
        start = self.states[:-1].astype(np.int64)
        end = self.states[1:].astype(np.int64)
        key = (hidden << 2) | (start << 1) | end
        uniq, counts = np.unique(key, return_counts=True)
        signatures = np.column_stack(((uniq >> 1) & 1, uniq & 1, uniq >> 2))
        return signatures, counts

    def save(self, path: str | Path, meta: dict[str, object] | None = None) -> None:
        """Write `slot_index,state` CSV; optional metadata as leading # lines."""
        write_slot_states(path, self.times, self.states, meta)

    @classmethod
    def load(cls, path: str | Path) -> ObservedDataset:
        """Read a CSV written by save(); every row must hold two integers."""
        with Path(path).open() as fh:
            header = next((line for line in fh if not line.startswith("#")), "")
            if [h.strip() for h in header.split(",")] != ["slot_index", "state"]:
                raise ValueError(f"unexpected header {header!r}")
            with warnings.catch_warnings():  # no rows: InsufficientDataError below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        if rows.size and rows.shape[1] != 2:
            raise ValueError(f"rows must hold 2 fields, got {rows.shape[1]}")
        return cls(*rows.reshape(-1, 2).T)  # columns: times, states


def write_slot_states(
    path: str | Path, times: np.ndarray, states: np.ndarray, meta: dict | None = None
) -> None:
    """Write `slot_index,state` rows, one % operation per _WRITE_BLOCK rows."""
    with Path(path).open("w", newline="\n") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in (meta or {}).items())
        fh.write("slot_index,state\n")
        for start in range(0, len(times), _WRITE_BLOCK):
            stop = start + _WRITE_BLOCK
            block = np.column_stack((times[start:stop], states[start:stop]))
            fh.write(("%d,%d\n" * len(block)) % tuple(block.ravel().tolist()))


def observe(sequence: np.ndarray, schedule: ObservationSchedule) -> ObservedDataset:
    """Sample a fully simulated sequence at the slots the schedule dictates."""
    seq = np.asarray(sequence)
    total = seq.shape[0]
    times = schedule.times_within(total)
    if times.shape[0] < 2:
        raise InsufficientDataError(
            f"schedule exhausts the sequence: only {times.shape[0]} observation(s) "
            f"fit in {total} slots"
        )
    return ObservedDataset(times=times, states=seq[times - 1])


def gaps(dataset: ObservedDataset) -> list[Gap]:
    """Per-gap (start_state, end_state, hidden_len) triples in dataset order."""
    hidden = dataset.times[1:] - dataset.times[:-1] - 1
    return [
        Gap(int(a), int(b), int(g))
        for a, b, g in zip(dataset.states[:-1], dataset.states[1:], hidden)
    ]
