"""Round orchestration for the buyers'-market auction, plus baselines.

Each round: offer regime-appropriate contracts, filter by the clients'
participation condition, select the top-k accepted clients by
ledger-verified reputation, run one federated-learning aggregation round,
score realized contributions with the Banzhaf index, and append updated
reputations to the ledger.

The offer (contracts, client utilities, accepted set) depends only on the
clients' thetas and the market, never on round state, so each cell makes it
once and hands it to every round. Everything after it is the same under
every regime, so the harness plays one trajectory of rounds for each
distinct accepted set, and each `ours-*` regime with that set prices the
shared rounds with its own contracts.

A seed's population is fixed for a whole run, and so are its poisoners'
flipped labels: `build_population` draws every round's flips once, and one
pass over the seeds (`run_tables`) runs each seed's grid cells, reputation
trace and tamper cells on that one population.

The two buyers'-market baselines are rows of the same table: each holds its
winner rule, and one bid round (`_bid_round`) plays either. Every client
bids its cost at the median complete-information output times a random
margin, the rule picks the winners, and each winner is paid its bid.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .flsim import (
    FEATURE_DIM,
    AggregationConfig,
    ModelParams,
    PoisonConfig,
    SyntheticDataset,
    aggregate,
    evaluate_accuracy,
    generate_population,
    init_model,
    local_train,
    poison,
)
from .ledger import (
    STORES,
    HashChainLedger,
    PlainStore,
    TamperConfig,
    UnknownClientError,
    tamper_attack,
)
from .mechanism import (
    Contract,
    MarketParams,
    Regime,
    client_utility,
    cost,
    server_utility_per_client,
    solve,
    solve_complete,
)
from .reputation import (
    ReputationParams,
    additive_utility,
    banzhaf_exact,
    select_top_k,
    update_reputation,
)

# Rounds scoring at most this many clients enumerate the additive game's
# coalitions exactly; larger rounds take the closed form, each client's own
# value (see `_banzhaf_contributions`).
EXACT_COALITION_LIMIT = 10

TRUST_ZERO = "zero"
TRUST_LAST_VALID = "last_valid"
TRUST_POLICIES = (TRUST_ZERO, TRUST_LAST_VALID)


def _cheapest(bids: dict[int, float], k: int, seed: int) -> list[int]:
    """Pay-as-bid reverse auction: the k cheapest bids win, ties by id."""
    return sorted(bids, key=lambda i: (bids[i], i))[:k]


def _uniform(bids: dict[int, float], k: int, seed: int) -> list[int]:
    """A uniformly random winner set of size k, in id order."""
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(sorted(bids), size=k, replace=False).tolist())


# A baseline's winner rule: (bids by client id, k, seed) -> the k winners.
WinnerRule = Callable[[dict[int, float], int, int], list[int]]

# Every mechanism `run_cell` runs, in the default order of a grid. An
# `ours-*` name maps to the information regime its contracts are solved
# under; a baseline maps to its winner rule.
MECHANISMS: dict[str, Regime | WinnerRule] = {
    "ours-complete": Regime.COMPLETE,
    "ours-incomplete": Regime.INCOMPLETE,
    "price-first": _cheapest,
    "randomized": _uniform,
}


@dataclass
class ClientProfile:
    id: int
    theta: float
    dataset: SyntheticDataset
    # A poisoner's labels for each round, bit-packed one round per row
    # (`_flipped_labels`); None means honest.
    flipped_labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def honest(self) -> bool:
        return self.flipped_labels is None


@dataclass
class RoundReport:
    round: int
    selected: list[int]
    contracts: dict[int, Contract]
    realized_q: dict[int, float]
    payments: dict[int, float]
    server_utility: float
    client_utilities: dict[int, float]
    epsilons: dict[int, float]  # reputation appended this round, per scored client
    accuracy_global: float | None = None


@dataclass
class SimulationState:
    """Mutable cross-round state: global model and its test accuracy,
    ledger, the Scaffold control variates (the server's c and each
    aggregated client's c_i; a client without one reads zeros), and the
    label buffer the poisoners' flipped labels are written into: a copy of
    the population's label block, made by the first round with an accepted
    poisoner."""

    agg: AggregationConfig
    test: SyntheticDataset
    ledger: HashChainLedger | PlainStore = field(default_factory=HashChainLedger)
    rep_params: ReputationParams = field(default_factory=ReputationParams)
    model: ModelParams = field(default_factory=init_model)
    trust_policy: str = TRUST_LAST_VALID
    server_variate: np.ndarray = field(default_factory=lambda: np.zeros(FEATURE_DIM + 1))
    variates: dict[int, np.ndarray] = field(default_factory=dict)
    poisoned_labels: np.ndarray | None = field(default=None, repr=False)
    round: int = 0
    accuracy: float = field(init=False)  # test accuracy of `model`

    def __post_init__(self):
        self.accuracy = evaluate_accuracy(self.model.weights[None], self.test)[0]


def _mix(seed: int, round_num: int, salt: int) -> int:
    return (seed * 1_000_003 + round_num * 10_007 + salt) % (1 << 63)


def realized_value(q_hat: float, theta: float, params: MarketParams) -> float:
    """Server surplus from a realized output, valued at production cost.

    Defined for negative realized output (poisoned clients) and identical
    across information regimes, so reputation trajectories do not depend on
    the pricing regime.
    """
    return params.lam * q_hat - q_hat * q_hat / (1.0 + params.delta * theta)


def ledger_epsilon(store, client_id: int, policy: str = TRUST_LAST_VALID) -> float:
    """Reputation as seen through the store, applying the tamper policy.

    Unknown clients score 0. Policy "last_valid" reads the epsilon of the
    client's newest intact record, re-hashing from the newest record back
    to the first one that verifies (one hash on an untampered chain), and 0
    if none does. Policy "zero" reads through `read_reputation`, which
    re-hashes the client's whole history, and treats a client with any
    tampered record as reputationless. The plain store verifies nothing, so
    both policies read its newest record.
    """
    try:
        if policy == TRUST_LAST_VALID:
            eps = store.read_last_valid(client_id)
            return eps if eps is not None else 0.0
        eps, trusted = store.read_reputation(client_id)
    except UnknownClientError:
        return 0.0
    return eps if trusted else 0.0


def _banzhaf_contributions(values: dict[int, float]) -> dict[int, float]:
    """Each scored client's Banzhaf index in the additive game whose value
    is the sum of its members' `values`.

    In an additive game a player's index is its own value (the dummy
    property: every marginal v(S + i) - v(S) is values[i]), so a round of
    more than EXACT_COALITION_LIMIT clients takes the value itself and
    evaluates no coalition. Smaller rounds still enumerate all coalitions
    with `banzhaf_exact`, whose mean of marginals can differ from the value
    in the last ulp. The enumeration is kept because
    `benchmarks/test_bench.py` counts the coalition evaluations of a traced
    run of its 6-client ledger-long workload, and so that ledger-long's
    `reputation.csv` keeps its enumerated bits.
    """
    if len(values) > EXACT_COALITION_LIMIT:
        return values
    ids = sorted(values)
    utility = additive_utility({p: values[i] for p, i in enumerate(ids)})
    return dict(zip(ids, banzhaf_exact(utility, len(ids)).tolist()))


def _flipped_labels(
    dataset: SyntheticDataset, cfg: PoisonConfig, seed: int, client_id: int, rounds: int
) -> np.ndarray:
    """A poisoner's labels for rounds 0..rounds-1, bit-packed into a
    (rounds, ceil(len(dataset) / 8)) uint8 array: row r packs `poison` of
    its clean labels under the `_mix(seed, r, client_id)` draws."""
    flipped = np.empty(len(dataset), dtype=bool)
    packed = np.empty((rounds, (len(dataset) + 7) // 8), dtype=np.uint8)
    for r in range(rounds):
        packed[r] = np.packbits(poison(dataset.labels, cfg, _mix(seed, r, client_id), flipped))
    return packed


def _round_labels(accepted: list[ClientProfile], state: SimulationState) -> np.ndarray | None:
    """The label block the accepted clients train on this round: None (the
    population's own) if none is a poisoner, else `state.poisoned_labels`
    with each accepted poisoner's row overwritten by its flipped labels of
    the round. The accepted datasets are rows of one population from
    `generate_population`, which is not changed."""
    poisoners = [c for c in accepted if not c.honest]
    if not poisoners:
        return None
    if state.poisoned_labels is None:
        state.poisoned_labels = poisoners[0].dataset.label_block.copy()
    for c in poisoners:
        d = c.dataset
        state.poisoned_labels[d.row, 0, : len(d)] = np.unpackbits(
            c.flipped_labels[state.round], count=len(d)
        )
    return state.poisoned_labels


class Offer(NamedTuple):
    """A regime's offer to a population, fixed for a whole cell."""

    contracts: dict[int, Contract]  # each client's contract
    utilities: dict[int, float]  # each client's utility from its contract
    accepted: list[ClientProfile]  # the clients that accept, in population order


def _offer(population: list[ClientProfile], params: MarketParams) -> Offer:
    """Each client's contract under the regime of `params`, its utility
    from that contract, and the clients that accept (utility >= 0), in
    population order. Depends on no round state."""
    contracts = {c.id: solve(c.theta, params) for c in population}
    utilities = {
        c.id: client_utility(contracts[c.id], c.theta, params.delta) for c in population
    }
    accepted = [c for c in population if utilities[c.id] >= 0.0]
    return Offer(contracts, utilities, accepted)


def _prices(
    selected: list[int], contracts: dict[int, Contract], utilities: dict[int, float],
    params: MarketParams,
) -> dict:
    """The `RoundReport` fields a regime's offer sets for a round's selected
    clients: contracts, payments, server utility and client utilities."""
    return dict(
        contracts=contracts,
        payments={i: contracts[i].r for i in selected},
        server_utility=sum(server_utility_per_client(contracts[i], params) for i in selected),
        client_utilities={i: utilities[i] for i in selected},
    )


def run_round(
    population: list[ClientProfile],
    params: MarketParams,
    state: SimulationState,
    offer: Offer,
) -> RoundReport:
    """One full auction + training + reputation round, under the cell's
    `offer` (`_offer(population, params)`)."""
    if not population:
        raise ValueError("population must be non-empty")
    contracts, utilities, accepted = offer
    if not accepted:
        raise RuntimeError("no client accepted its contract")

    eps_prev = {
        c.id: ledger_epsilon(state.ledger, c.id, state.trust_policy) for c in accepted
    }
    k = min(params.k_select, len(accepted))
    selected = select_top_k(eps_prev, k)

    # Every accepted client trains a candidate local model and is scored;
    # only the selected top-k are aggregated into the global model and paid.
    by_id = {c.id: c for c in population}
    trained = local_train(
        state.model, [c.dataset for c in accepted], state.agg, state.server_variate,
        state.variates, _round_labels(accepted, state),
    )
    local_models = {c.id: m for c, m in zip(accepted, trained)}
    new_global = aggregate(
        [local_models[i] for i in selected],
        [len(by_id[i].dataset) for i in selected],
        state.agg,
    )
    # Scaffold: only the aggregated clients S commit their proposed c_i+, and
    # c moves by (1/N) * sum over S of c_i+ - c_i, N the population size.
    # local_train proposes a c_i+ for every client or (not Scaffold) for none.
    proposed = {i: local_models[i].variate for i in selected}
    if proposed[selected[0]] is not None:
        deltas = [v - state.variates.get(i, 0.0) for i, v in proposed.items()]
        state.server_variate = state.server_variate + np.sum(deltas, axis=0) / len(population)
        state.variates.update(proposed)
    # One evaluation scores every local model and the new global model.
    # Contributions are measured against the model the clients started
    # from, so the per-round improvement signal stays attributable.
    *accuracies, acc_global = evaluate_accuracy(
        np.stack([m.weights for m in trained] + [new_global.weights]), state.test
    )
    realized = {c.id: acc - state.accuracy for c, acc in zip(accepted, accuracies)}

    values = {
        i: realized_value(realized[i], by_id[i].theta, params) for i in local_models
    }
    zetas = _banzhaf_contributions(values)
    epsilons = {}
    for i in sorted(zetas):
        epsilons[i] = update_reputation(eps_prev[i], zetas[i], state.rep_params)
        state.ledger.append(state.round, i, zetas[i], epsilons[i])

    report = RoundReport(
        round=state.round,
        selected=selected,
        realized_q=realized,
        epsilons=epsilons,
        accuracy_global=acc_global,
        **_prices(selected, contracts, utilities, params),
    )
    state.model = new_global
    state.accuracy = acc_global
    state.round += 1
    return report


def _bid_round(
    population: list[ClientProfile], rule: WinnerRule, target_q: float, params: MarketParams,
    seed: int, round_num: int,
) -> RoundReport:
    """One baseline round: every client bids its cost of `target_q` times a
    margin drawn uniformly from [1.0, 1.3], in population order; `rule`
    picks `params.k_select` winners, and each is paid its bid."""
    costs = {c.id: cost(target_q, c.theta, params.delta) for c in population}
    margins = np.random.default_rng((seed, round_num)).random(len(population)).tolist()
    bids = {i: costs[i] * (1.0 + 0.3 * m) for i, m in zip(costs, margins)}
    winners = rule(bids, params.k_select, _mix(seed, round_num, 99))
    contracts = {i: Contract(target_q, bids[i]) for i in winners}
    utilities = {i: bids[i] - costs[i] for i in winners}
    return RoundReport(
        round=round_num,
        selected=winners,
        realized_q={i: target_q for i in winners},
        epsilons={},
        **_prices(winners, contracts, utilities, params),
    )


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def build_population(config, seed: int) -> tuple[list[ClientProfile], SyntheticDataset]:
    """Deterministic population for one experiment seed.

    Efficiencies are uniform on [theta_min, theta_max]; the first
    poison_count clients are label-flipping poisoners, whose flipped labels
    for every one of the config's rounds are drawn here.
    """
    rng = np.random.default_rng(seed)
    thetas = (
        config.theta_min
        + (config.theta_max - config.theta_min) * rng.random(config.n_clients)
    ).tolist()
    datasets, test = generate_population(config.n_clients, thetas, seed)
    flip = PoisonConfig(config.poison_flip_rate)
    profiles = []
    for i, (theta, data) in enumerate(zip(thetas, datasets)):
        flipped = (
            _flipped_labels(data, flip, seed, i, config.rounds) if i < config.poison_count else None
        )
        profiles.append(ClientProfile(i, theta, data, flipped))
    return profiles, test


def _fresh_state(config, test: SyntheticDataset, ledger_mode: str = "chained") -> SimulationState:
    return SimulationState(
        agg=AggregationConfig(
            config.aggregation, config.local_epochs, config.learning_rate, config.prox_mu
        ),
        test=test,
        ledger=STORES[ledger_mode](),
        rep_params=ReputationParams(config.w1, config.w2),
        trust_policy=config.trust_policy,
    )


def _target_q(population: list[ClientProfile], params: MarketParams) -> float:
    return statistics.median(solve_complete(c.theta, params).q for c in population)


def _market(config, mechanism: str, k: int) -> MarketParams:
    """The market of a (mechanism, k) cell; a baseline's has the default regime."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    row = MECHANISMS[mechanism]
    regime = row if isinstance(row, Regime) else Regime.COMPLETE
    return MarketParams(config.lam, config.delta, config.n_clients, k, regime)


def run_cell(
    config, mechanism: str, k: int, seed: int, population: list[ClientProfile],
    test: SyntheticDataset, ledger_mode: str = "chained", tamper_cfg=None,
) -> list[RoundReport]:
    """All rounds of one (mechanism, k, seed) experiment cell, run on the
    seed's population and test set from `build_population`. Neither is
    changed, so one population serves every cell of its seed."""
    params = _market(config, mechanism, k)
    row = MECHANISMS[mechanism]
    if not isinstance(row, Regime):
        target_q = _target_q(population, params)
        return [
            _bid_round(population, row, target_q, params, seed, r) for r in range(config.rounds)
        ]
    return _play(config, population, test, params, _offer(population, params), ledger_mode,
                 tamper_cfg)


def _play(
    config, population: list[ClientProfile], test: SyntheticDataset, params: MarketParams,
    offer: Offer, ledger_mode: str = "chained", tamper_cfg=None,
) -> list[RoundReport]:
    """The rounds of an `ours-*` cell under its one `offer`, from a fresh
    state; with `tamper_cfg`, the ledger is attacked after every round."""
    state = _fresh_state(config, test, ledger_mode)
    reports = []
    for _ in range(config.rounds):
        reports.append(run_round(population, params, state, offer))
        if tamper_cfg is not None:
            tamper_attack(state.ledger, tamper_cfg)
    return reports


def _total(reports: list[RoundReport]) -> float:
    return sum(rep.server_utility for rep in reports)


def _ours_cells(
    config, k: int, seed: int, population: list[ClientProfile], test: SyntheticDataset
) -> dict[str, list[RoundReport]]:
    """The reports of every `ours-*` mechanism's (k, seed) cell.

    Mechanisms whose offers are accepted by the same clients play one
    trajectory: the first of them in config order plays its rounds, and the
    others re-price its reports with their own contracts. A mechanism whose
    accepted set differs plays its own.
    """
    groups: dict[tuple[int, ...], list] = {}
    for mechanism in config.mechanisms_ours():
        params = _market(config, mechanism, k)
        offer = _offer(population, params)
        groups.setdefault(tuple(c.id for c in offer.accepted), []).append(
            (mechanism, params, offer)
        )
    out = {}
    for (leader, params, offer), *others in groups.values():
        out[leader] = played = _play(config, population, test, params, offer)
        for mechanism, params, offer in others:
            out[mechanism] = [
                replace(rep, **_prices(rep.selected, offer.contracts, offer.utilities, params))
                for rep in played
            ]
    return out


# ---------------------------------------------------------------------------
# A seed's share of each output table, and the tables assembled from them
# ---------------------------------------------------------------------------

class Tables(NamedTuple):
    """One list per table a run writes, each written as `<field>.csv`: its
    rows (`run_tables`) or its column names (`COLUMNS`)."""

    rounds: list
    summary: list
    reputation: list  # the first listed seed's reputation trace
    robustness: list  # empty without a tamper grid


COLUMNS = Tables(
    rounds=["mechanism", "k", "seed", "round", "server_utility", "accuracy", "n_selected"],
    summary=["mechanism", "k", "mean_utility", "std_utility"],
    reputation=["round", "client", "epsilon", "behavior"],
    robustness=["alpha", "beta", "ledger_mode", "mean_utility"],
)


def _grid_cells(
    config, seed: int, population: list[ClientProfile], test: SyntheticDataset
) -> dict[tuple[int, str], tuple[list[dict], float]]:
    """Every (k, mechanism) cell of the seed: its per-round rows and its
    total server utility."""
    out = {}
    for k in config.k_values:
        ours = _ours_cells(config, k, seed, population, test)
        for mechanism in config.mechanisms:
            if mechanism in ours:
                reports = ours[mechanism]
            else:
                reports = run_cell(config, mechanism, k, seed, population, test)
            rows = [
                {"mechanism": mechanism, "k": k, "seed": seed, "round": rep.round,
                 "server_utility": rep.server_utility, "accuracy": rep.accuracy_global,
                 "n_selected": len(rep.selected)}
                for rep in reports
            ]
            out[k, mechanism] = rows, _total(reports)
    return out


def _grid_tables(config, by_seed: dict) -> tuple[list[dict], list[dict]]:
    """The per-round rows, in (k, mechanism, seed) order, and the summary:
    mean and population-std of total server utility per (mechanism, k)
    over the config's seeds."""
    round_rows, summary = [], []
    for k in config.k_values:
        for mechanism in config.mechanisms:
            totals = []
            for seed in config.seeds:
                rows, total = by_seed[seed][k, mechanism]
                round_rows.extend(rows)
                totals.append(total)
            summary.append(
                {
                    "mechanism": mechanism,
                    "k": k,
                    "mean_utility": statistics.fmean(totals),
                    "std_utility": statistics.pstdev(totals) if len(totals) > 1 else 0.0,
                }
            )
    return round_rows, summary


def _trace_rows(
    config, seed: int, population: list[ClientProfile], test: SyntheticDataset
) -> list[dict]:
    """Per-round reputation of every client, for trajectory plots: the cell
    of the config's first `ours-*` mechanism, which the caller checks
    exists, at the first k, played on the seed's population. A client that
    never accepts its contract is never scored and reads 0."""
    reports = run_cell(
        config, config.mechanisms_ours()[0], config.k_values[0], seed, population, test
    )
    return [
        {"round": rep.round, "client": c.id, "epsilon": rep.epsilons.get(c.id, 0.0),
         "behavior": "honest" if c.honest else "poisoner"}
        for rep in reports
        for c in population
    ]


def _tamper_grid(config) -> list[tuple[float, float, str]]:
    return [
        (alpha, beta, mode)
        for alpha in config.tamper_alphas
        for beta in config.tamper_betas
        for mode in config.ledger_modes
    ]


def _tamper_totals(
    config, seed: int, population: list[ClientProfile], test: SyntheticDataset
) -> dict[tuple[float, float, str], float]:
    """Total server utility of each tamper cell of the seed: the first
    `ours-*` mechanism at the first k, on the cell's store, attacked after
    every round."""
    mechanism = config.mechanisms_ours()[0]
    k = config.k_values[0]
    return {
        (alpha, beta, mode): _total(
            run_cell(config, mechanism, k, seed, population, test,
                     ledger_mode=mode, tamper_cfg=TamperConfig(alpha, beta, seed))
        )
        for alpha, beta, mode in _tamper_grid(config)
    }


def _robustness_rows(config, by_seed: dict) -> list[dict]:
    """Mean total server utility of each tamper cell over the config's seeds."""
    return [
        {"alpha": alpha, "beta": beta, "ledger_mode": mode,
         "mean_utility": statistics.fmean(by_seed[s][alpha, beta, mode] for s in config.seeds)}
        for alpha, beta, mode in _tamper_grid(config)
    ]


def run_tables(config) -> Tables:
    """Every table of one run, from one pass over the distinct seeds.

    Each seed's population is built once, and its grid cells, its tamper
    cells and, for the first listed seed, the reputation trace's cell all
    run on it; it is freed before the next seed's is built. With
    `rounds = 0` the grid and the trace are empty.
    """
    play = config.rounds > 0
    trace_seed = config.seeds[0] if play and config.mechanisms_ours() else None
    tamper = bool(config.tamper_alphas)
    if not (play or tamper):
        return Tables([], [], [], [])
    cells, trace, totals = {}, [], {}
    for seed in dict.fromkeys(config.seeds):
        population, test = build_population(config, seed)
        if play:
            cells[seed] = _grid_cells(config, seed, population, test)
        if seed == trace_seed:
            trace = _trace_rows(config, seed, population, test)
        if tamper:
            totals[seed] = _tamper_totals(config, seed, population, test)
        del population, test  # before the next seed's population is built
    return Tables(
        *(_grid_tables(config, cells) if play else ([], [])),
        trace,
        _robustness_rows(config, totals),
    )
