"""Sparse observation of a channel: schedules, observed datasets, gaps.

An observer samples the channel state at an increasing sequence of slot
indices (1-based, always starting at slot 1). Consecutive observations at
slots t and t' leave t' - t - 1 hidden slots between them; the triple
(start state, end state, hidden length) is all the likelihood ever needs
from a gap, so datasets precompute a histogram of those signatures.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from chan_em.errors import InsufficientDataError

_SCHEDULE_KINDS = ("fixed", "random-uniform")
_BLOCK = 1024


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
    own seed, so a schedule is replayable independently of the chain.
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

    def _skips(self) -> Iterator[int]:
        """Yield skip lengths one gap at a time, drawn in fixed-size blocks.

        Both consumption patterns (a given observation count, or as many as
        fit a sequence) see the same stream for the same seed.
        """
        if self.kind == "fixed":
            while True:
                yield int(self.skip)
        if self.seed is None:
            raise ValueError("random-uniform schedule needs a seed before drawing")
        support = np.asarray(self.support, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        while True:
            idx = rng.integers(0, support.shape[0], size=_BLOCK)
            yield from (int(s) for s in support[idx])

    def times_for_count(self, num_observations: int) -> np.ndarray:
        """1-based observation slots for exactly `num_observations` samples."""
        if num_observations < 2:
            raise ValueError("need at least 2 observations")
        skip_iter = self._skips()
        steps = np.fromiter(
            (next(skip_iter) + 1 for _ in range(num_observations - 1)),
            dtype=np.int64,
            count=num_observations - 1,
        )
        times = np.empty(num_observations, dtype=np.int64)
        times[0] = 1
        np.cumsum(steps, out=times[1:])
        times[1:] += 1
        return times

    def times_within(self, total_slots: int) -> np.ndarray:
        """All observation slots that fit a sequence of `total_slots` slots."""
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        times = [1]
        pos = 1
        for skip in self._skips():
            pos += skip + 1
            if pos > total_slots:
                break
            times.append(pos)
        return np.asarray(times, dtype=np.int64)


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
        path = Path(path)
        with path.open("w", newline="") as fh:
            if meta:
                for key, value in meta.items():
                    fh.write(f"# {key}: {value}\n")
            writer = csv.writer(fh)
            writer.writerow(["slot_index", "state"])
            for t, s in zip(self.times.tolist(), self.states.tolist()):
                writer.writerow([t, s])

    @classmethod
    def load(cls, path: str | Path) -> ObservedDataset:
        """Read a CSV written by save(); the round trip is exact."""
        times: list[int] = []
        states: list[int] = []
        with Path(path).open(newline="") as fh:
            rows = (line for line in fh if not line.startswith("#"))
            reader = csv.reader(rows)
            header = next(reader)
            if [h.strip() for h in header] != ["slot_index", "state"]:
                raise ValueError(f"unexpected header {header!r}")
            for row in reader:
                if not row:
                    continue
                times.append(int(row[0]))
                states.append(int(row[1]))
        return cls(times=np.asarray(times), states=np.asarray(states))


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
