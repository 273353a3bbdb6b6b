"""Sparse observation of a channel: schedules, observed datasets, gaps.

An observer samples the channel state at an increasing sequence of slot
indices (1-based, always starting at slot 1). Consecutive observations at
slots t and t' leave t' - t - 1 hidden slots between them; the triple
(start state, end state, hidden length) is all the likelihood ever needs
from a gap, so datasets precompute a histogram of those signatures, and
cache the gap kernel's plan built from it. A fit needs nothing else but
the first observed state, so GapHistogram holds just those two, and builds
the histogram block by block from a chain's runs and a schedule's draw,
with no per-slot or per-observation array, and can write the observed rows
and every slot's row as it goes. ObservedDataset keeps every observed slot and
state. The `slot_index,state` CSV of observed and full sequences is
written and read only here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

import numpy as np

from chan_em.errors import InsufficientDataError
from chan_em.markov import OCCUPIED

if TYPE_CHECKING:
    from chan_em.likelihood import GapPlan

_SCHEDULE_KINDS = ("fixed", "random-uniform")
_BLOCK = 1 << 16  # gaps or rows per block of a draw, a gather, a histogram or a write
_DENSE = 16  # slots per observed slot up to which a run block is expanded
_SPAN = 10**5  # implicit slot indices from 10**4 on: rows per aligned span
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)  # digit-count thresholds
# largest slot index: every gap's key 4 * hidden + 2 * start + end then fits int64
_MAX_SLOT = 2**61


def _integer(value: object, name: str, least: int) -> int:
    """`value` as an int; ValueError unless it is whole (not NaN or inf), >= `least`."""
    whole = isinstance(value, float) and value.is_integer()
    if not (whole or isinstance(value, (int, np.integer))) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ObservationSchedule:
    """Rule for how many slots to skip between consecutive observations.

    kind "fixed" skips the same number every time; "random-uniform" draws the
    skip i.i.d. uniformly from `support` (a tuple of lengths >= 1) using its
    own seed, so a schedule is replayable independently of the chain. Every
    observation count sees a prefix of the same stream.
    """

    kind: str
    skip: int | None = None
    support: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {_SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind == "fixed":
            object.__setattr__(self, "skip", _integer(self.skip, "skip", 0))
            if self.support is not None:
                raise ValueError("fixed schedule takes no support")
            if self.seed is not None:
                raise ValueError("fixed schedule takes no seed")
        else:
            if not self.support:
                raise ValueError("random-uniform schedule needs a non-empty support")
            support = tuple(_integer(s, "support entry", 1) for s in self.support)
            if self.skip is not None:
                raise ValueError("random-uniform schedule takes no fixed skip")
            if self.seed is not None:
                object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
            object.__setattr__(self, "support", support)

    @classmethod
    def fixed(cls, skip: int) -> ObservationSchedule:
        return cls(kind="fixed", skip=skip)

    @classmethod
    def random_uniform(
        cls, support: tuple[int, ...], seed: int | None = None
    ) -> ObservationSchedule:
        # seed may stay None until a caller injects one (required to draw)
        return cls(kind="random-uniform", support=tuple(support), seed=seed)

    def draw(self, gaps: int) -> ScheduleDraw:
        """The steps between the first `gaps + 1` observation slots.

        A random schedule draws its `gaps` picks, _BLOCK at a time, from a
        freshly seeded generator; consecutive draws equal one draw of their
        total size, so every count sees a prefix of the same stream. The
        picks are kept, narrowed, rather than drawn a second time when the
        slots are built: 1 B a gap costs less than a second draw's time
        (about 5 ms per 1e6 picks), and the draw stays one pass.
        """
        if self.kind == "fixed":
            steps = np.array([self.skip + 1], dtype=np.int64)
            return ScheduleDraw(steps, None, gaps, 1 + gaps * (self.skip + 1))
        if self.seed is None:
            raise ValueError("random-uniform schedule needs a seed before drawing")
        steps = np.array(self.support, dtype=np.int64) + 1
        rng = np.random.default_rng(self.seed)
        picks = np.empty(gaps, dtype=np.min_scalar_type(len(steps) - 1))
        last_slot = 1
        for lo in range(0, gaps, _BLOCK):
            block = rng.integers(0, len(steps), size=min(_BLOCK, gaps - lo))
            picks[lo : lo + len(block)] = block
            last_slot += int(steps.take(block).sum())
        return ScheduleDraw(steps, picks, gaps, last_slot)

    def times_for_count(self, num_observations: int) -> np.ndarray:
        """1-based observation slots for exactly `num_observations` samples."""
        if num_observations < 2:
            raise ValueError("need at least 2 observations")
        return self.draw(num_observations - 1).times()

    def times_within(self, total_slots: int) -> np.ndarray:
        """All observation slots that fit a sequence of `total_slots` slots."""
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        shortest_step = 1 + (self.skip if self.kind == "fixed" else min(self.support))
        times = self.draw((total_slots - 1) // shortest_step).times()
        return times[times <= total_slots]


@dataclass(frozen=True)
class ScheduleDraw:
    """The steps between the first `gaps + 1` observation slots of a schedule.

    Gap i spans `steps[picks[i]]` slots, or `steps[0]` for every gap when
    `picks` is None (a fixed schedule). The picks are support indices in
    the narrowest unsigned dtype that holds them, 1 B a gap for up to 256
    support entries, not int64 slot indices; `last_slot`, the last
    observed slot, is known before any slot index is built, so the chain
    can be simulated to that length first.
    """

    steps: np.ndarray
    picks: np.ndarray | None
    gaps: int
    last_slot: int

    def step_blocks(self) -> Iterator[np.ndarray]:
        """Every gap's step as int64, in order, in fresh blocks of _BLOCK."""
        for lo in range(0, self.gaps, _BLOCK):
            hi = min(lo + _BLOCK, self.gaps)
            if self.picks is None:
                yield np.full(hi - lo, self.steps[0])
            else:
                yield self.steps.take(self.picks[lo:hi])

    def times(self) -> np.ndarray:
        """The `gaps + 1` observation slots as int64, starting at slot 1."""
        times = np.ones(self.gaps + 1, dtype=np.int64)
        for lo, steps in zip(range(1, self.gaps + 1, _BLOCK), self.step_blocks()):
            times[lo : lo + len(steps)] = steps
        return np.cumsum(times, out=times)


class GapData:
    """What a fit reads of observed data.

    Subclasses provide `gap_histogram` (the pair (signatures, counts)) and
    `first_state`, the state of the first observation; every count a fit
    reads is derived from these two.
    """

    gap_histogram: tuple[np.ndarray, np.ndarray]
    first_state: int

    @property
    def num_observations(self) -> int:
        """One more than the gaps."""
        return int(self.gap_histogram[1].sum()) + 1

    @property
    def num_transitions(self) -> int:
        """Each gap's hidden slots plus one, summed in int64: exact to 2**61."""
        signatures, counts = self.gap_histogram
        return int(counts @ (signatures[:, 2] + 1))

    @property
    def occupied_fraction(self) -> float:
        """Fraction of the observations, the first and each gap's end, occupied."""
        signatures, counts = self.gap_histogram
        occupied = int(counts[signatures[:, 1] == OCCUPIED].sum())
        return (occupied + (self.first_state == OCCUPIED)) / self.num_observations

    @cached_property
    def gap_plan(self) -> GapPlan:
        """The gap kernel's data-only arrays, built on first use.

        Cached here so every E-M iterate on this data reuses them and they
        are freed with it; see likelihood.gap_posteriors.
        """
        from chan_em.likelihood import build_gap_plan  # likelihood imports us

        return build_gap_plan(self)


@dataclass(frozen=True)
class ObservedDataset(GapData):
    """States sampled at strictly increasing 1-based slot indices.

    `times[0]` is always 1 (the first slot is observed) and at least two
    observations are required, so `times[-1] - 1` transitions span the
    window. Arrays are copied and frozen on construction.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = _exact_copy(self.times, np.int64, "times")
        states = _exact_copy(self.states, np.int8, "states")
        if times.ndim != 1 or states.ndim != 1 or times.shape != states.shape:
            raise ValueError("times and states must be 1-d arrays of equal length")
        if times.shape[0] < 2:
            raise InsufficientDataError("need at least 2 observations")
        if times[0] != 1:
            raise ValueError("first observation must be at slot 1")
        if (times[1:] <= times[:-1]).any():
            raise ValueError("observation times must be strictly increasing")
        if times[-1] > _MAX_SLOT:
            raise ValueError(f"slot indices must not exceed 2**61, got {times[-1]}")
        if states.min() < 0 or states.max() > 1:
            raise ValueError("states must be 0 (occupied) or 1 (idle)")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @classmethod
    def sample(cls, sequence: np.ndarray, times: np.ndarray) -> ObservedDataset:
        """The states of a fully simulated sequence at 1-based `times`.

        Gathered _BLOCK slots at a time, so no int64 `times - 1` of the
        whole length is built.
        """
        seq = np.asarray(sequence)
        states = np.empty(len(times), dtype=seq.dtype)
        for lo in range(0, len(times), _BLOCK):
            states[lo : lo + _BLOCK] = seq[times[lo : lo + _BLOCK] - 1]
        return cls(times=times, states=states)

    @property
    def first_state(self) -> int:
        return int(self.states[0])

    @cached_property
    def gap_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct gap signatures and their multiplicities.

        Returns (signatures, counts) where signatures has one row
        (start_state, end_state, hidden_len) per distinct gap shape, in
        ascending order of the key 4 * hidden_len + 2 * start + end. All
        likelihood and E-step work is linear in the number of signatures
        rather than the number of observations.

        Memory is one int64 key per gap, filled in place (_gap_keys) and
        counted as one block by _count_keys. On 1e6 observations of the fig5
        schedule this takes 7 ms and peaks at 1.01 x times.nbytes
        (tracemalloc, 2-vCPU x86-64, numpy 2.4).
        """
        steps = np.subtract(self.times[1:], self.times[:-1])
        return _count_keys([_gap_keys(steps, self.states)])

    def save(self, path: str | Path, meta: dict[str, object] | None = None) -> None:
        """Write `slot_index,state` CSV; optional metadata as leading # lines."""
        with open_slot_states(path, meta) as fh:
            _write_rows(fh, self.times, self.states)

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


@dataclass(frozen=True)
class GapHistogram(GapData):
    """The gap histogram of an observed chain and its first observed state.

    `signatures` and `counts` are what ObservedDataset.gap_histogram
    returns for the same observations, values, dtypes and row order alike;
    no slot index, and no other state, of an observation is kept.
    """

    signatures: np.ndarray
    counts: np.ndarray
    first_state: int

    @property
    def gap_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        return self.signatures, self.counts

    @classmethod
    def observe(
        cls,
        runs: Iterable[tuple[np.ndarray, np.ndarray]],
        draw: ScheduleDraw,
        rows: BinaryIO | None = None,
        sequence: BinaryIO | None = None,
    ) -> GapHistogram:
        """The histogram of a chain seen at the slots of a schedule draw.

        `runs` are the chain's consecutive (states, lengths) run blocks, as
        markov.run_blocks yields them, covering at least `draw.last_slot`
        slots. Each block of _BLOCK gaps gets its slots from the draw, their
        states from the runs (_RunCursor) and its keys from _gap_keys, and is
        counted by _count_keys, the reduction ObservedDataset.gap_histogram
        runs on its whole arrays. Memory is one block of each, and of the
        runs.
        With `rows`, the observations' `slot_index,state` rows are written
        there as they are read; with `sequence`, every slot's row, from the
        one expansion of each run block that the cursor reads (_SlotRows),
        so the runs must then end at `draw.last_slot`.
        """
        if draw.gaps < 1:
            raise InsufficientDataError("need at least 2 observations")
        chain = _RunCursor(runs, None if sequence is None else _SlotRows(sequence))
        first = int(chain.states_at(np.zeros(1, dtype=np.int64))[0])
        return cls(*_count_keys(_observed_keys(chain, draw, first, rows)), first)


class _RunCursor:
    """The states of a chain, given as run blocks, at ascending slots.

    Where a call's slots fall at least once every _DENSE slots of a block
    on average, the block is expanded into its slots by np.repeat (so at
    most _DENSE * (_BLOCK + 1) of them) and read by index; elsewhere its
    states are found by np.searchsorted on its run ends, so the long runs of
    a slowly mixing chain seen through long gaps are never expanded. 16 is
    where the two cost the same per observed slot at (0.4, 0.1) and
    (0.9, 0.6): expanding is 5-8x the faster at 1 slot an observation and
    2-4x at 4, searching 1.6-2.1x the faster at 64 (2-vCPU x86-64,
    numpy 2.4). A `sink` is handed every block as it is taken, and decides
    alone which blocks are expanded: it returns their expansions.
    """

    def __init__(
        self,
        runs: Iterable[tuple[np.ndarray, np.ndarray]],
        sink: _SlotRows | None = None,
    ) -> None:
        self._runs = iter(runs)
        self._sink = sink
        self._start = self._stop = 0  # slots of the current block
        self._states = np.zeros(0, dtype=np.int8)  # its runs, valid until
        self._lens = np.zeros(0, dtype=np.int64)  # the next block is taken
        self._expanded: np.ndarray | None = None  # one state per slot
        self._ends: np.ndarray | None = None  # the slot after each run

    def states_at(self, slots: np.ndarray) -> np.ndarray:
        """The state at each ascending 0-based slot, all past earlier calls'.

        Raises ValueError when the runs end before the last slot.
        """
        out = np.empty(len(slots), dtype=np.int8)
        done = 0
        while done < len(slots):
            if slots[done] >= self._stop:
                block = next(self._runs, None)
                if block is None:
                    raise ValueError(
                        f"runs end at slot {self._stop}, before slot {slots[-1]}"
                    )
                self._states, self._lens = block
                self._start = self._stop
                self._stop += int(self._lens.sum())
                self._ends = None
                self._expanded = None if self._sink is None else self._sink.runs(*block)
                continue
            stop = int(np.searchsorted(slots, self._stop))
            offsets = slots[done:stop] - self._start
            if self._expanded is None and self._sink is None and (
                self._stop - self._start <= _DENSE * (stop - done)
            ):
                self._expanded = np.repeat(self._states, self._lens)
            if self._expanded is not None:
                out[done:stop] = self._expanded[offsets]
            else:
                if self._ends is None:
                    self._ends = np.cumsum(self._lens)
                runs = np.searchsorted(self._ends, offsets, side="right")
                out[done:stop] = self._states[runs]
            done = stop
        return out


def _observed_keys(
    chain: _RunCursor, draw: ScheduleDraw, first: int, rows: BinaryIO | None
) -> Iterator[np.ndarray]:
    """Each block's gap keys, reading the chain at the draw's slots; with
    `rows`, the block's observations' rows are written there first."""
    states = np.empty(_BLOCK + 1, dtype=np.int8)
    states[0] = first
    if rows is not None:
        _write_rows(rows, np.ones(1, dtype=np.int64), states[:1])
    slot = 0  # 0-based slot of the block's preceding observation
    for steps in draw.step_blocks():
        k = len(steps)
        slots = np.cumsum(steps)
        slots += slot
        states[1 : k + 1] = chain.states_at(slots)
        slot = int(slots[-1])
        if rows is not None:
            slots += 1  # 1-based
            _write_rows(rows, slots, states[1 : k + 1])
        yield _gap_keys(steps, states[: k + 1])
        states[0] = states[k]


def _gap_keys(steps: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each gap's key 4 * hidden + 2 * start + end, built in `steps`.

    `steps` (int64, hidden + 1 per gap) is overwritten and returned;
    `states` holds one more entry, each gap's start then end. The int8
    states are added in numpy's casting blocks, never copied whole.
    """
    key = steps
    key <<= 1
    key += states[:-1]
    key <<= 1
    key += states[1:]
    key -= 4
    return key


def _count_keys(key_blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(signatures, counts) of every gap key, in ascending key order.

    When a block's largest key is below its length, np.bincount counts it in
    O(n) with a table no larger than the keys; otherwise (sparse keys, such
    as one gap of 1e12 slots) np.unique sorts a copy, O(n log n). Later
    blocks are merged in over the distinct keys alone, by np.unique with
    return_inverse, not np.union1d: np.unique with no flags imports numpy.ma
    on numpy 2.x (14-26 ms and about 1 MB of RSS, once per process).
    """
    keys = counts = None
    for key in key_blocks:
        if key.max() < len(key):
            block_counts = np.bincount(key)
            block_keys = np.flatnonzero(block_counts)
            block_counts = block_counts[block_keys]
        else:
            block_keys, block_counts = np.unique(key, return_counts=True)
        if keys is None:
            keys, counts = block_keys, block_counts
            continue
        merged, where = np.unique(np.append(keys, block_keys), return_inverse=True)
        total = np.zeros(len(merged), dtype=counts.dtype)
        np.add.at(total, where, np.append(counts, block_counts))
        keys, counts = merged, total
    signatures = np.column_stack(((keys >> 1) & 1, keys & 1, keys >> 2))
    return signatures, counts


def _exact_copy(values: np.ndarray, dtype: type, name: str) -> np.ndarray:
    """A copy of `values` as `dtype`; ValueError if the cast changes any value."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        cast = raw.astype(dtype)
    if raw.dtype != cast.dtype and not np.array_equal(cast, raw):
        raise ValueError(f"{name} must be integers that fit {cast.dtype}")
    return cast


def meta_head(meta: dict | None) -> str:
    """The `# key: value` lines that head every CSV the commands write."""
    return "".join(f"# {key}: {value}\n" for key, value in (meta or {}).items())


def open_slot_states(path: str | Path, meta: dict | None = None) -> BinaryIO:
    """A new binary file for `slot_index,state` rows, its head written."""
    fh = Path(path).open("wb")
    fh.write((meta_head(meta) + "slot_index,state\n").encode())
    return fh


def _write_rows(fh: BinaryIO, times: np.ndarray, states: np.ndarray) -> None:
    r"""Write `slot_index,state` rows in blocks of _BLOCK, as bytes.

    No Python string is built per row: each run of one digit count d is
    filled into a (rows, d + 3) uint8 array (the digits, `,`, the state,
    `\n`) by one _fill_rows call. A block whose smallest and largest index
    have the same digit count is one run; otherwise it splits into runs of
    one digit count. Indices must lie in [0, 2**61] and states be single
    digits: ObservedDataset's checks and the schedule's slots ensure both.
    """
    for start in range(0, len(states), _BLOCK):
        block = times[start : start + _BLOCK]
        for lo, hi, width in _width_runs(block):
            fh.write(_fill_rows(block[lo:hi], states[start + lo : start + hi], width))


class _SlotRows:
    """Writes the rows of slots 1, 2, ... from consecutive pieces of states.

    Slots 1..9 999 go through _write_rows. Slots from 10**4 on lie in spans
    aligned at multiples of _SPAN (the first span starts at 10**4). Every
    slot in a span has the same digit count d, and its low five digits are
    its row in the span. So one (_SPAN, d + 3) buffer per digit count gets
    those digits, `,` and `\n` once; each span then rewrites only its d - 5
    prefix columns, with one scalar fill each (a 2-d broadcast fill is about
    ten times slower), and each piece of it its state column, and is written
    in one call of up to about 1 MB.
    """

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self._slot = 1  # the next slot to write
        self._base = -1  # the span whose prefix the buffer holds
        self._rows = np.empty((0, 0), dtype=np.uint8)

    def runs(self, states: np.ndarray, lens: np.ndarray) -> np.ndarray | None:
        """Write a run block's rows and return its expansion, or None for a
        block of one or two runs, which may be as long as the chain and is
        written from a broadcast view instead."""
        if len(lens) <= 2:
            for state, run in zip(states, lens.tolist()):
                self.write(np.broadcast_to(state, run))
            return None
        expanded = np.repeat(states, lens)
        self.write(expanded)
        return expanded

    def write(self, states: np.ndarray) -> None:
        """Write the rows of the next len(states) slots."""
        start, end = self._slot, self._slot + len(states)
        slot = start
        while slot < end:
            if slot < _SPAN // 10:  # slots of four digits or fewer
                stop = min(end, _SPAN // 10)
                piece = states[slot - start : stop - start]
                _write_rows(self._fh, np.arange(slot, stop), piece)
            else:
                base = slot - slot % _SPAN
                if base != self._base:
                    self._enter_span(base)
                stop = min(end, base + _SPAN)
                piece = states[slot - start : stop - start]
                # no view of the buffer is kept, so _enter_span can free it
                rows = slice(slot - base, stop - base)
                np.add(piece, ord("0"), out=self._rows[rows, -2], casting="unsafe")
                self._fh.write(self._rows[rows])
            slot = stop
        self._slot = end

    def _enter_span(self, base: int) -> None:
        """Point the row buffer at the span of slots from `base` on."""
        digits = str(max(base, _SPAN // 10))
        width = len(digits)
        if self._rows.shape[1] != width + 3:
            del self._rows  # freed before the wider buffer is made
            self._rows = np.empty((_SPAN, width + 3), dtype=np.uint8)
            low = self._rows[:, width - 5 : width]
            _fill_digits(low, np.arange(_SPAN, dtype=np.uint32))
            self._rows[:, width] = ord(",")
            self._rows[:, width + 2] = ord("\n")
        for col, digit in enumerate(digits[:-5].encode()):
            self._rows[:, col] = digit
        self._base = base


def _width_runs(block: np.ndarray) -> list[tuple[int, int, int]]:
    """(lo, hi, digit count) of each run of one digit count in a block."""
    narrow, wide = _digit_counts([block.min(), block.max()])
    if narrow == wide:
        return [(0, len(block), int(wide))]
    digits = _digit_counts(block)
    bounds = [0, *(np.flatnonzero(np.diff(digits)) + 1).tolist(), len(block)]
    return [(lo, hi, int(digits[lo])) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _digit_counts(values) -> np.ndarray:
    """The decimal digit count of each non-negative value."""
    return np.searchsorted(_POWERS_OF_TEN, values, side="right") + 1


def _fill_rows(times: np.ndarray, states: np.ndarray, width: int) -> np.ndarray:
    r"""The `slot_index,state\n` bytes of rows whose indices have `width` digits.

    Indices of up to nine digits are divided out in uint32, whose division
    by a scalar is about five times faster than int64's; wider ones in int64.
    """
    rows = np.empty((len(times), width + 3), dtype=np.uint8)
    _fill_digits(rows[:, :width], times.astype(np.uint32 if width <= 9 else np.int64))
    rows[:, width] = ord(",")
    np.add(states, ord("0"), out=rows[:, width + 1], casting="unsafe")
    rows[:, width + 2] = ord("\n")
    return rows


def _fill_digits(columns: np.ndarray, value: np.ndarray) -> None:
    """Write `value` as zero-padded ASCII digits into `columns`; consumes it.

    Each digit is value - 10 * (value // 10). A uint32 floor division by a
    scalar takes under a tenth of np.divmod's time (numpy 2.4), so this loop
    takes about half the time of one np.divmod per digit.
    """
    ten = value.dtype.type(10)
    quotient, digit = np.empty_like(value), np.empty_like(value)
    for col in range(columns.shape[1] - 1, -1, -1):
        np.floor_divide(value, ten, out=quotient)
        np.multiply(quotient, ten, out=digit)
        np.subtract(value, digit, out=digit)
        np.add(digit, ord("0"), out=columns[:, col], casting="unsafe")
        value, quotient = quotient, value


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
    return ObservedDataset.sample(seq, times)

