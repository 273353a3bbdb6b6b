"""Closed-form reference E-M, an oracle independent of chan_em's kernels.

The slot chain is 2x2, so with s = alpha + beta and lam = 1 - s its n-step
matrix is P^n = Pi + lam^n D, where every row of Pi is the stationary law
pi = (beta, alpha) / s and D = [[alpha, -alpha], [-beta, beta]] / s. A gap
from state x to state y with g hidden slots then has probability
[P^(g+1)]_{x,y}, and its bridge sum

    S_{u,v} = sum_{j=0..g} [P^j]_{x,u} [P^(g-j)]_{v,y}
            = (g+1) pi_u pi_y + (pi_y D_{x,u} + pi_u D_{v,y}) G
              + (g+1) lam^g D_{x,u} D_{v,y},   G = (1 - lam^(g+1)) / s,

gives the posterior-expected count of (u, v) transitions in the gap as
P_{u,v} S_{u,v} / [P^(g+1)]_{x,y}. Everything is vectorized over gap
signatures, so one iteration costs O(signatures) whatever the gap length.
The benchmark compares the program's estimates and scores with these to a
tolerance far below their statistical error; it is a check, not a timing.
"""

from __future__ import annotations

import math

import numpy as np


def _chain_terms(alpha: float, beta: float):
    s = alpha + beta
    pi = np.array([beta, alpha]) / s
    d = np.array([[alpha, -alpha], [-beta, beta]]) / s
    p = np.array([[1.0 - alpha, alpha], [beta, 1.0 - beta]])
    return s, 1.0 - s, pi, d, p


def gap_signatures(
    times: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (start state, end state, hidden length) rows and their counts."""
    states = np.asarray(states, dtype=np.int64)
    hidden = np.diff(np.asarray(times, dtype=np.int64)) - 1
    counts = np.bincount(4 * hidden + 2 * states[:-1] + states[1:])
    key = np.flatnonzero(counts)
    return np.column_stack((key // 2 % 2, key % 2, key // 4)), counts[key]


def gap_probabilities(signatures: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """[P^(g+1)]_{x,y} for every (x, y, g) signature row."""
    _, lam, pi, d, _ = _chain_terms(alpha, beta)
    x, y, g = signatures[:, 0], signatures[:, 1], signatures[:, 2]
    return pi[y] + np.power(lam, g + 1.0) * d[x, y]


def log_likelihood(
    signatures: np.ndarray, counts: np.ndarray, alpha: float, beta: float
) -> float:
    """Sum over gaps of log [P^(g+1)]_{x,y}."""
    return float(np.sum(counts * np.log(gap_probabilities(signatures, alpha, beta))))


def expected_transitions(
    signatures: np.ndarray, counts: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """2x2 matrix of posterior-expected (u, v) transition counts."""
    s, lam, pi, d, p = _chain_terms(alpha, beta)
    x, y, g = signatures[:, 0], signatures[:, 1], signatures[:, 2].astype(float)
    lam_g = np.power(lam, g)
    span = g + 1.0
    geometric = (1.0 - lam_g * lam) / s
    weight = counts / gap_probabilities(signatures, alpha, beta)
    out = np.empty((2, 2))
    for u in (0, 1):
        for v in (0, 1):
            bridge = (
                span * pi[u] * pi[y]
                + (pi[y] * d[x, u] + pi[u] * d[v, y]) * geometric
                + span * lam_g * d[x, u] * d[v, y]
            )
            out[u, v] = p[u, v] * np.sum(weight * bridge)
    return out


def run_em(
    signatures: np.ndarray,
    counts: np.ndarray,
    start: tuple[float, float],
    iterations: int,
    clamp_epsilon: float,
) -> list[tuple[float, float]]:
    """Plain E-M for a fixed number of iterations; returns every iterate.

    The start is clamped into [eps, 1 - eps] first, as are all updates.
    """
    lo, hi = clamp_epsilon, 1.0 - clamp_epsilon
    alpha, beta = (min(max(v, lo), hi) for v in start)
    path = [(alpha, beta)]
    for _ in range(iterations):
        n = expected_transitions(signatures, counts, alpha, beta)
        alpha = min(max(float(n[0, 1] / (n[0, 0] + n[0, 1])), lo), hi)
        beta = min(max(float(n[1, 0] / (n[1, 0] + n[1, 1])), lo), hi)
        path.append((alpha, beta))
    return path


def se_db(
    signatures: np.ndarray,
    counts: np.ndarray,
    num_transitions: int,
    estimate: tuple[float, float],
    reference: tuple[float, float],
) -> float:
    """10 log10 of the squared gap between per-transition likelihoods.

    The floor at -320 dB matches the program's score for exact coincidence.
    """
    value, ref = (
        math.exp(log_likelihood(signatures, counts, *point) / num_transitions)
        for point in (estimate, reference)
    )
    gap_sq = (value - ref) ** 2
    return max(10.0 * math.log10(gap_sq), -320.0) if gap_sq > 0.0 else -320.0


def relative_error_pct(
    estimate: tuple[float, float], truth: tuple[float, float]
) -> float:
    """Mean relative parameter error in percent."""
    return 50.0 * sum(abs(e - t) / t for e, t in zip(estimate, truth))
