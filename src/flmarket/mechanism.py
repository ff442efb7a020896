"""Closed-form procurement contract solvers for both information regimes.

The server buys expected model improvement q from each client in exchange
for a transfer r. Under complete information the client's efficiency theta
is observable and the server extracts the full surplus; under incomplete
information the transfer includes an information rent and output is
distorted downward for all types below the top.

Every closed form takes a float or an array: a type theta, an output q or
a contract's terms may each be a numpy array, and an array yields each
element's value with the bits of the float form, because each formula is
written once and performs the same operations in the same order on both.
A check of an array names its first bad element and that element's index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# A float, or an array of floats that a closed form maps element by element.
Floats = float | np.ndarray


class Regime(Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"


def _require(ok, value, what: str) -> None:
    """Raise ValueError(f"{what}, got {value}") unless `ok` holds. For an
    array `value`, `ok` is its elementwise mask, and the message names the
    first element that fails and its index."""
    if not isinstance(value, np.ndarray):
        if not ok:
            raise ValueError(f"{what}, got {value}")
    elif not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{what}, got {value.flat[i]} at index {i}")


def _check_theta(theta: Floats) -> None:
    _require((0.0 <= theta) & (theta <= 1.0), theta, "efficiency theta must lie in [0, 1]")


def _check_output(q: Floats) -> None:
    # Only q < 0.0 fails: a NaN output passes (q != q).
    _require((q >= 0.0) | (q != q), q, "output q must be nonnegative")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError(f"cost sensitivity delta must be positive and finite, got {delta}")


def largest_term(lam: float, delta: float) -> float:
    """Largest value a contract, cost, bid or server payoff forms for any
    type theta in [0, 1], intermediate products included.

    With P = 1 + delta and q_top = lam * P / 2, the theta = 1 output that
    bounds every output, the terms that grow with lam and delta peak at:
    - P^2, the information rent's denominator (1 + delta*theta)^2;
    - lam * P^2, the incomplete output's numerator lam * (1 + delta*theta)^2;
    - 1.3 * q_top^2, a bid: a cost q^2 / (1 + delta*theta) <= q_top^2 times
      the largest bid margin;
    - lam * q_top, the server's value of the top output;
    - 0.02048 * lam^2 * P^3, the rent's numerator (1 - theta) * delta * q^2
      at its peak theta = (4*delta - 1) / (5*delta), where the incomplete
      output is q = lam * (1 + delta*theta)^2 / (2P). For delta < 1/4 the
      peak is at theta = 0 and this bound is below lam * q_top.
    Every other term (transfers, utilities, single factors) is at most one
    of these.
    """
    p = 1.0 + delta
    q_top = lam * p / 2.0
    return max(p * p, lam * p * p, 1.3 * q_top * q_top, lam * q_top, 0.02048 * lam * lam * p * p * p)


@dataclass(frozen=True)
class MarketParams:
    """The market: the buyer values an output q at lam * q, and a client of
    efficiency theta makes it at cost q^2 / (1 + delta * theta). N, k and the
    information regime are not part of it: a price that needs one takes it."""

    lam: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        _check_delta(self.delta)
        if not math.isfinite(largest_term(self.lam, self.delta)):
            raise ValueError(
                f"lambda = {self.lam!r} and delta = {self.delta!r} overflow a contract: "
                "every contract, cost and bid term must be finite"
            )


@dataclass(frozen=True)
class Contract:
    """Output-transfer pair offered to a client, or, with array terms, to
    each client of a population."""

    q: Floats
    r: Floats

    def __post_init__(self):
        negative = (self.q < 0.0) | (self.r < 0.0)
        if negative.any() if isinstance(negative, np.ndarray) else negative:
            raise ValueError("contract terms must be nonnegative")

    def __eq__(self, other):
        """Float terms compare as a tuple; array terms are equal when both
        have the same shape and equal elements."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((self.q, other.q), (self.r, other.r))
        if any(isinstance(term, np.ndarray) for pair in pairs for term in pair):
            return all(np.array_equal(a, b) for a, b in pairs)
        return (self.q, self.r) == (other.q, other.r)


@dataclass(frozen=True, eq=False)
class IcDiagnostic:
    """Utility of a client of type `true_theta` from reporting truthfully,
    and from each report of `reported_theta`, an array over the grid, with
    the gain of each misreport over the truth, floored at 0."""

    true_theta: float
    reported_theta: np.ndarray
    truthful_utility: float
    misreport_utility: np.ndarray
    violation: np.ndarray


def _cost(q: Floats, theta: Floats, delta: float) -> Floats:
    return q * q / (1.0 + delta * theta)


def cost(q: Floats, theta: Floats, delta: float) -> Floats:
    """Client's cost of producing output q: q^2 / (1 + delta * theta), the one
    expression (`_cost`) the complete transfer and `realized_value` share."""
    _check_theta(theta)
    _check_delta(delta)
    _check_output(q)
    return _cost(q, theta, delta)


def realized_value(q_hat: Floats, theta: Floats, market: MarketParams) -> Floats:
    """Server surplus lam * q_hat - cost from a realized output q_hat. Defined
    for a negative q_hat (a poisoned client's), so without `cost`'s checks,
    and for every regime alike, so reputations do not depend on pricing."""
    return market.lam * q_hat - _cost(q_hat, theta, market.delta)


def client_utility(contract: Contract, theta: Floats, delta: float) -> Floats:
    """Quasi-linear client payoff: transfer minus production cost."""
    return contract.r - cost(contract.q, theta, delta)


def server_utility_per_client(contract: Contract, params: MarketParams) -> Floats:
    """Server's net payoff from a contract: lambda * q - r."""
    return params.lam * contract.q - contract.r


def solve_complete(theta: Floats, params: MarketParams) -> Contract:
    """Optimal contract when theta is observable.

    Output equates marginal benefit with marginal cost, and the transfer
    exactly reimburses cost, so the client keeps zero surplus.
    """
    _check_theta(theta)
    q = params.lam * (1.0 + params.delta * theta) / 2.0
    return Contract(q, _cost(q, theta, params.delta))


def information_rent(theta: Floats, q: Floats, delta: float) -> Floats:
    """Extra payment above cost needed to elicit the client's type.

    Equals (1 - theta) * delta * q^2 / (1 + delta*theta)^2; zero at the
    top type theta = 1.
    """
    _check_theta(theta)
    _check_delta(delta)
    _check_output(q)
    denom = 1.0 + delta * theta
    return (1.0 - theta) * delta * q * q / (denom * denom)


def solve_incomplete(theta: Floats, params: MarketParams) -> Contract:
    """Optimal contract when theta is private to the client.

    Output solves the marginal-virtual-cost condition
        lambda = 2q/(1+delta*theta) + (1-theta) * 2*delta*q/(1+delta*theta)^2,
    giving q = lambda*(1+delta*theta)^2 / (2(1+delta*theta) + 2*delta*(1-theta)).
    The transfer covers cost plus the information rent.
    """
    _check_theta(theta)
    d = params.delta
    a = 1.0 + d * theta
    q = params.lam * a * a / (2.0 * a + 2.0 * d * (1.0 - theta))
    r = cost(q, theta, d) + information_rent(theta, q, d)
    return Contract(q, r)


def solve(theta: Floats, params: MarketParams, regime: Regime) -> Contract:
    """Optimal contract under the information `regime`."""
    solver = solve_complete if regime is Regime.COMPLETE else solve_incomplete
    return solver(theta, params)


def ic_diagnostic(
    true_theta: float, reported_grid: list[float] | np.ndarray, params: MarketParams
) -> IcDiagnostic:
    """Measure how much a client could gain by misreporting its type.

    For each reported theta-hat of the grid, the client of type true_theta
    is assigned the incomplete-information contract solved for theta-hat;
    the whole grid is one array. This is a measurement tool: it records
    violations, it does not assert they are zero.
    """
    reported = np.array(reported_grid, dtype=float)
    if not reported.size:
        raise ValueError("reported_grid must be non-empty")
    truthful = client_utility(solve_incomplete(true_theta, params), true_theta, params.delta)
    misreport = client_utility(solve_incomplete(reported, params), true_theta, params.delta)
    gain = misreport - truthful
    # Python's max(0.0, gain) for each report: a gain of -0.0 reads 0.0.
    return IcDiagnostic(true_theta, reported, truthful, misreport, np.where(gain > 0.0, gain, 0.0))
