"""Banzhaf-index contribution measurement and reputation scoring.

A client's per-round contribution zeta is its Banzhaf index in the
coalition game whose value is the server's utility; reputation epsilon is
an exponentially weighted average of past contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

EXACT_ENUMERATION_LIMIT = 20


class CoalitionMode(Enum):
    ADDITIVE = "additive"
    RETRAIN = "retrain"


@dataclass(frozen=True)
class CoalitionUtility:
    """Coalition value function over sets of client ids."""

    evaluator: Callable[[frozenset], float]
    mode: CoalitionMode = CoalitionMode.ADDITIVE


def additive_utility(values: dict[int, float]) -> CoalitionUtility:
    """Utility where each member contributes a fixed per-client value."""
    return CoalitionUtility(
        evaluator=lambda coalition: sum(values[j] for j in coalition),
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


def banzhaf_exact(u: CoalitionUtility, n: int, i: int) -> float:
    """Exact Banzhaf index: mean marginal contribution of player i over all
    2^(n-1) coalitions of the remaining players."""
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    others = [j for j in range(n) if j != i]
    total = 0.0
    evaluate = u.evaluator
    for mask in range(1 << len(others)):
        coalition = frozenset(
            j for bit, j in enumerate(others) if mask >> bit & 1
        )
        total += evaluate(coalition | {i}) - evaluate(coalition)
    return total / (1 << len(others))


def banzhaf_mc(
    u: CoalitionUtility, n: int, i: int, samples: int, seed: int
) -> float:
    """Monte Carlo Banzhaf estimate: mean marginal over coalitions drawn
    uniformly from the subsets of the other players. Unbiased for
    banzhaf_exact; deterministic given seed."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    others = np.array([j for j in range(n) if j != i])
    evaluate = u.evaluator
    total = 0.0
    for include in rng.random((samples, len(others))) < 0.5:
        coalition = frozenset(others[include].tolist())
        total += evaluate(coalition | {i}) - evaluate(coalition)
    return total / samples


def update_reputation(prev_epsilon: float, zeta: float, params: ReputationParams) -> float:
    """One reputation step: epsilon' = epsilon * w1 + zeta * w2."""
    return prev_epsilon * params.w1 + zeta * params.w2


def select_top_k(epsilons: dict[int, float], k: int) -> list[int]:
    """The k clients with highest reputation, ties broken by ascending id."""
    if k > len(epsilons):
        raise ValueError(
            f"cannot select {k} clients from a population of {len(epsilons)}"
        )
    ranked = sorted(epsilons, key=lambda c: (-epsilons[c], c))
    return ranked[:k]
