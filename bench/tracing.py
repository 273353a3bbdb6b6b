"""Span tracing of chan_em's layers from outside the package.

`Tracer.installed()` replaces each traced function where its callers look
it up (module globals, class attributes, the CLI's command table) with a
wrapper that records a span: name, start, end and parent. Spans stay in
memory; `layer_times()` reduces them to self time per layer, where a span's
self time is its duration minus the durations of its direct children. The
root span is the CLI call itself, so the self times of all layers plus the
root's own self time (the unattributed remainder) add up to the traced wall
time. Wrappers also count the work each layer did. Leaving the context
restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
from functools import cached_property
from time import perf_counter
from typing import Any, Callable, Iterator

from chan_em import em, likelihood
from chan_em.harness import cli, experiments
from chan_em.observation import ObservationSchedule, ObservedDataset

ROOT = "cli.main"

# span name -> per-layer self-time metric
LAYER_METRICS = {
    "observation.times_for_count": "observation.times_for_count_s",
    "observation.gap_histogram": "observation.gap_histogram_s",
    "markov.simulate_chain": "markov.simulate_chain_s",
    "likelihood.loglik": "likelihood.loglik_s",
    "likelihood.transition_powers": "likelihood.transition_powers_s",
    "likelihood.score": "likelihood.score_s",
    "em.e_step": "em.e_step_s",
    "em.m_step": "em.m_step_s",
    "em.run_em": "em.run_em_s",
    "em.multi_start": "em.multi_start_s",
    "harness.realize": "harness.realize_s",
    "harness.command": "harness.write_s",
}

# where callers look each traced function up: (owner, attribute, span name,
# Tracer method that counts the work of one call, or None)
SITES = [
    (experiments, "realize_dataset", "harness.realize", "_count_realize"),
    (ObservationSchedule, "times_for_count", "observation.times_for_count", None),
    (ObservedDataset, "gap_histogram", "observation.gap_histogram", "_count_histogram"),
    (experiments, "simulate_chain", "markov.simulate_chain", "_count_chain"),
    (experiments, "multi_start", "em.multi_start", None),
    (experiments, "run_em", "em.run_em", "_count_run_em"),
    (em, "run_em", "em.run_em", "_count_run_em"),
    (em, "e_step", "em.e_step", "_count_e_step"),
    (em, "m_step", "em.m_step", None),
    (em, "incomplete_log_likelihood", "likelihood.loglik", "_count_loglik"),
    (likelihood, "incomplete_log_likelihood", "likelihood.loglik", "_count_loglik"),
    (em, "transition_powers", "likelihood.transition_powers", "_count_powers"),
    (likelihood, "transition_powers", "likelihood.transition_powers", "_count_powers"),
    (em, "geometric_mean_likelihood", "likelihood.score", None),
    (em, "se_db_between", "likelihood.score", None),
    (likelihood, "geometric_mean_likelihood", "likelihood.score", None),
    (likelihood, "se_db_between", "likelihood.score", None),
    (experiments, "squared_error_db", "likelihood.score", None),
]

COUNT_METRICS = (
    "observation.observations",
    "observation.signatures",
    "observation.max_hidden",
    "markov.slots_simulated",
    "likelihood.loglik_calls",
    "likelihood.powers_built",
    "em.e_step_calls",
    "em.signature_evals",
    "em.iterations",
)


class Tracer:
    """Spans and work counts of one traced CLI call."""

    def __init__(self) -> None:
        # [name, start, end, parent index]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.reports: list[Any] = []
        self.written: list[Any] = []
        self.bytes_written = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap fn so each call is one span; `after(args, result)` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def call(self, fn: Callable, *args) -> tuple[Any, float]:
        """Run fn(*args) as the root span; returns (result, wall seconds)."""
        index = self._open(ROOT)
        try:
            result = fn(*args)
        finally:
            self._close(index)
        start, end = self.spans[index][1:3]
        return result, end - start

    def layer_times(self) -> dict[str, float]:
        """Self time per layer metric, plus the root's as 'unattributed'."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYER_METRICS.values(), 0.0)
        out["unattributed"] = 0.0
        for (name, start, end, _), children in zip(self.spans, child_time):
            key = "unattributed" if name == ROOT else LAYER_METRICS[name]
            out[key] += (end - start) - children
        return out

    # work counters, called after the wrapped function returns

    def _count_realize(self, args, result) -> None:
        self.counts["observation.observations"] += result[0].num_observations

    def _count_histogram(self, args, result) -> None:
        signatures, _ = result
        self.counts["observation.signatures"] += len(signatures)
        self.counts["observation.max_hidden"] = max(
            self.counts["observation.max_hidden"], int(signatures[:, 2].max())
        )

    def _count_chain(self, args, result) -> None:
        self.counts["markov.slots_simulated"] += len(result)

    def _count_loglik(self, args, result) -> None:
        self.counts["likelihood.loglik_calls"] += 1

    def _count_powers(self, args, result) -> None:
        self.counts["likelihood.powers_built"] += len(result)

    def _count_e_step(self, args, result) -> None:
        self.counts["em.e_step_calls"] += 1
        self.counts["em.signature_evals"] += len(args[0].gap_histogram[0])

    def _count_run_em(self, args, result) -> None:
        self.counts["em.iterations"] += result.iterations_run
        self.reports.append(result)

    def _keep_written(self, args, result) -> None:
        self.written = list(result)

    @contextlib.contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Patch every binding site for the duration of the context."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in SITES]
        commands = dict(cli._COMMANDS)
        try:
            for (owner, attr, original), (*_, name, counter) in zip(originals, SITES):
                after = getattr(self, counter) if counter else None
                if isinstance(original, cached_property):
                    traced = cached_property(self.span(name, original.func, after))
                    traced.__set_name__(owner, attr)
                else:
                    traced = self.span(name, original, after)
                setattr(owner, attr, traced)
            for command, fn in commands.items():
                cli._COMMANDS[command] = self.span(
                    "harness.command", fn, self._keep_written
                )
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            cli._COMMANDS.update(commands)


def binding_sites() -> dict[str, Any]:
    """Current value of every binding `Tracer.installed` patches.

    The self-test compares this before and after a traced call to check
    that every original was restored.
    """
    sites = {f"cli._COMMANDS[{name}]": fn for name, fn in cli._COMMANDS.items()}
    for owner, attr, *_ in SITES:
        sites[f"{owner.__name__}.{attr}"] = owner.__dict__[attr]
    return sites
