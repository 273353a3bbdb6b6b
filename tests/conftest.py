"""Shared test helpers: random small instances, a gap-kernel call counter."""

from __future__ import annotations

import numpy as np
import pytest

from chan_em import ChannelParams, ObservedDataset


def random_small_instance(
    rng: np.random.Generator, max_hidden_total: int = 12
) -> tuple[ObservedDataset, ChannelParams]:
    """A tiny random dataset plus random interior parameters.

    Hidden-slot total stays within the enumeration oracle's comfort zone.
    """
    while True:
        k = int(rng.integers(3, 7))
        hidden = rng.integers(0, 4, size=k - 1)
        if int(hidden.sum()) <= max_hidden_total:
            break
    times = np.empty(k, dtype=np.int64)
    times[0] = 1
    np.cumsum(hidden + 1, out=times[1:])
    times[1:] += 1
    states = rng.integers(0, 2, size=k)
    params = ChannelParams(
        float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
    )
    return ObservedDataset(times=times, states=states), params


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every parameter point the gap kernel evaluates, in call order.

    Patches gap_posteriors, which every kernel call goes through (a
    one-point call included), at each module that binds it; a batched call
    records each of its (alpha, beta) points as a ChannelParams.
    """
    from chan_em import em, likelihood
    from chan_em.harness import experiments

    calls = []
    original = likelihood.gap_posteriors

    def counted(dataset, points, datasets=None):
        calls.extend(ChannelParams(*point) for point in points)
        return original(dataset, points, datasets)

    for module in (likelihood, em, experiments):
        if "gap_posteriors" in vars(module):
            monkeypatch.setattr(module, "gap_posteriors", counted)
    return calls
