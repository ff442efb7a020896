"""Banzhaf-index contribution measurement and reputation scoring.

A client's per-round contribution zeta is its Banzhaf index in the
coalition game whose value is the server's utility; reputation epsilon is
an exponentially weighted average of past contributions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

# banzhaf_exact holds the 2^n coalitions, rows of n cells, and two
# (n, 2^(n-1)) index arrays at once: 1M cells and 1M indices at n = 16.
EXACT_ENUMERATION_LIMIT = 16


class CoalitionMode(Enum):
    ADDITIVE = "additive"
    RETRAIN = "retrain"


@dataclass(frozen=True)
class CoalitionUtility:
    """Coalition value function over membership matrices.

    The evaluator takes an (m, n) boolean matrix, one coalition per row
    (column j set when client j is a member), and returns the m values.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    mode: CoalitionMode = CoalitionMode.ADDITIVE


def additive_utility(values: Mapping[int, float] | np.ndarray) -> CoalitionUtility:
    """Utility where each member contributes a fixed per-client value,
    client j's being `values[j]`, from a mapping or an array; the clients
    are 0..n-1. A row reduction, not a product, so no BLAS call."""
    vec = np.array([values[j] for j in range(len(values))], dtype=float)
    return CoalitionUtility(
        evaluator=lambda masks: (masks * vec).sum(axis=1),
        mode=CoalitionMode.ADDITIVE,
    )


@dataclass(frozen=True)
class ReputationParams:
    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.w1 <= 1.0 and 0.0 <= self.w2 <= 1.0):
            raise ValueError("reputation weights must lie in [0, 1]")
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ValueError("reputation weights must satisfy w1 + w2 = 1")


def _evaluate(u: CoalitionUtility, masks: np.ndarray) -> np.ndarray:
    values = np.asarray(u.evaluator(masks), dtype=float)
    if values.shape != (len(masks),):
        raise ValueError(
            "coalition evaluator must return one value per row of the membership "
            f"matrix: expected shape ({len(masks)},), got {values.shape}"
        )
    if not np.isfinite(values).all():
        raise ValueError("coalition evaluator returned a non-finite value for a row")
    return values


def _mean(marginals: np.ndarray) -> np.ndarray:
    """Each player's mean of its row of an (n, m) array of marginals
    v(S + i) - v(S), summed in row order."""
    # cumsum adds left to right, as a running total over the rows would.
    return np.cumsum(marginals, axis=1)[:, -1] / marginals.shape[1]


def _membership_blocks(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(with_i, without) membership matrices of n * m rows of n cells from
    an (n, m, n-1) block of draws: rows i*m .. i*m + m - 1 are player i's,
    and row r of them holds bits[i, r, b] in the column of the b-th other
    player (players in ascending order, i skipped), unset in column i of
    `without` and set in `with_i`."""
    n, m, _ = bits.shape
    without = np.zeros((n, m, n), dtype=bool)
    others = ~np.eye(n, dtype=bool)
    without.transpose(0, 2, 1)[others] = bits.transpose(0, 2, 1).reshape(-1, m)
    with_i = without.copy()
    with_i[np.arange(n), :, np.arange(n)] = True
    return with_i.reshape(n * m, n), without.reshape(n * m, n)


@functools.lru_cache(maxsize=4)
def _exact_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """banzhaf_exact's coalitions and marginal indices, which depend only on
    n: built once per n and read-only, so an evaluator cannot change a
    later call's coalitions. Row s of the (2^n, n) table holds the players
    whose bit is set in s. Entry (i, r) of the (n, 2^(n-1)) index arrays
    `with_i` and `without` is the table row of S + i and of S, where S
    holds the other players whose bit is set in r (players in ascending
    order, i skipped)."""
    table = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    r = np.arange(1 << (n - 1))
    below = (1 << np.arange(n))[:, None] - 1  # the bits of the players before i
    without = (r & below) | ((r & ~below) << 1)
    arrays = table, without | (below + 1), without
    for array in arrays:
        array.flags.writeable = False
    return arrays


def banzhaf_exact(u: CoalitionUtility, n: int) -> np.ndarray:
    """Exact Banzhaf indices of players 0..n-1: player i's mean marginal
    contribution over all 2^(n-1) coalitions of the remaining players. One
    evaluator call plays each of the 2^n coalitions once."""
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    table, with_i, without = _exact_table(n)
    values = _evaluate(u, table)
    return _mean(values[with_i] - values[without])


def banzhaf_mc(
    u: CoalitionUtility, n: int, samples: int, seeds: Sequence[int]
) -> np.ndarray:
    """Monte Carlo Banzhaf estimates of players 0..n-1: player i's mean
    marginal over `samples` coalitions drawn uniformly from the subsets of
    the other players, with seeds[i] seeding its draws. Unbiased for
    banzhaf_exact; deterministic given the seeds."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if len(seeds) != n:
        raise ValueError(
            f"banzhaf_mc needs one seed per player: {n} players, {len(seeds)} seeds"
        )
    bits = np.stack(
        [np.random.default_rng(seed).random((samples, n - 1)) < 0.5 for seed in seeds]
    )
    with_i, without = _membership_blocks(bits)
    # Two evaluator calls, on every player's rows at once.
    return _mean((_evaluate(u, with_i) - _evaluate(u, without)).reshape(n, samples))


def update_reputation(
    prev_epsilon: float | np.ndarray, zeta: float | np.ndarray, params: ReputationParams
) -> float | np.ndarray:
    """One reputation step: epsilon' = epsilon * w1 + zeta * w2, of one
    client from floats, or elementwise from arrays, with the same bits."""
    return prev_epsilon * params.w1 + zeta * params.w2


def select_top_k(epsilons: Sequence[float], k: int) -> list[int]:
    """The k clients with highest reputation, ties broken by ascending id;
    client i's reputation is epsilons[i]."""
    if k > len(epsilons):
        raise ValueError(
            f"cannot select {k} clients from a population of {len(epsilons)}"
        )
    return sorted(range(len(epsilons)), key=lambda c: (-epsilons[c], c))[:k]
