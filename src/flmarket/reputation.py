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
    """Coalition value function over membership matrices.

    The evaluator takes an (m, n) boolean matrix, one coalition per row
    (column j set when client j is a member), and returns the m values.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    mode: CoalitionMode = CoalitionMode.ADDITIVE


def additive_utility(values: dict[int, float]) -> CoalitionUtility:
    """Utility where each member contributes a fixed per-client value; the
    clients are 0..n-1. A row reduction, not a product, so no BLAS call."""
    vec = np.array([values[j] for j in range(len(values))], dtype=float)
    return CoalitionUtility(
        evaluator=lambda masks: np.where(masks, vec, 0.0).sum(axis=1),
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


def _mean_marginal(u: CoalitionUtility, without: np.ndarray, i: int) -> float:
    """Mean of v(S + i) - v(S) over the rows S of `without` (none holds i),
    summed in row order. Two evaluator calls."""
    with_i = without.copy()
    with_i[:, i] = True
    marginals = _evaluate(u, with_i) - _evaluate(u, without)
    # cumsum adds left to right, as a running total over the rows would.
    return float(np.cumsum(marginals)[-1]) / len(without)


def banzhaf_exact(u: CoalitionUtility, n: int, i: int) -> float:
    """Exact Banzhaf index: mean marginal contribution of player i over all
    2^(n-1) coalitions of the remaining players."""
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    others = [j for j in range(n) if j != i]
    # Row `mask` holds the others whose bit is set in mask.
    bits = np.arange(1 << len(others))[:, None] >> np.arange(len(others)) & 1
    without = np.zeros((len(bits), n), dtype=bool)
    without[:, others] = bits
    return _mean_marginal(u, without, i)


def banzhaf_mc(
    u: CoalitionUtility, n: int, i: int, samples: int, seed: int
) -> float:
    """Monte Carlo Banzhaf estimate: mean marginal over coalitions drawn
    uniformly from the subsets of the other players. Unbiased for
    banzhaf_exact; deterministic given seed."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    others = [j for j in range(n) if j != i]
    without = np.zeros((samples, n), dtype=bool)
    without[:, others] = rng.random((samples, len(others))) < 0.5
    return _mean_marginal(u, without, i)


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
