"""Round orchestration for the buyers'-market auction, plus baselines.

A round is played, then priced. Playing (`run_round`) selects the top-k
clients by ledger-verified reputation, runs one federated-learning
aggregation round, scores realized contributions with the Banzhaf index and
appends the updated reputations to the ledger; its `RoundReport` holds only
what was played. Pricing (`_server_utility`) sums the server's payoff from
the selected clients' contracts, and every mechanism prices its rounds
through it.

An `ours-*` mechanism's contracts (`_offer`) depend only on the clients'
thetas and the market, never on round state or k, so each seed solves them
once. Participation holds by construction, checked once per offer: every
client accepts every `ours-*` contract, so the regime does not enter a
round. One trajectory per (seed, k) is played, and each `ours-*` mechanism
prices it with its own contracts.

A seed's population is fixed for a whole run, and so are its poisoners'
flipped labels: `build_population` draws every round's flips once, and one
pass over the seeds (`run_tables`) runs each seed's grid cells, reputation
trace and tamper cells on that one population, under its one set of offers.

Given the seed, the model a round starts from is fixed by the sequence of
ordered selections aggregated so far, and so are its accuracy, the Scaffold
variates, the round's poisoned labels and the local models trained from it.
So a seed's cells play their rounds on one `ModelTree` keyed by that
history, and each node's training and evaluation is done once, by the first
cell to reach it; every cell keeps its own ledger, selection and scoring.

The two buyers'-market baselines are rows of the same table: each holds its
winner rule, and one bid round (`_bid_round`) plays either. Every client
bids its cost at the median complete-information output times a random
margin, the rule picks the winners, and each winner is paid its bid: the
round's contracts are the winners' bids. That output and each client's cost
of it read neither k nor the rule, so each seed makes them once
(`_bid_costs`), and `run_cell` plays one baseline cell on them.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
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

# Every mechanism a grid plays, in the default order of a grid. An
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
    """What one round played; no regime's prices are in it."""

    round: int
    selected: list[int]
    realized_q: dict[int, float]
    epsilons: dict[int, float]  # reputation appended this round, per scored client
    accuracy_global: float


def _frozen(array: np.ndarray) -> np.ndarray:
    """`array`, marked read-only: a node's arrays are shared by every cell
    that reaches it."""
    array.setflags(write=False)
    return array


@dataclass(eq=False, slots=True)
class ModelNode:
    """The model state one selection history of a seed reaches: the global
    weights a round starts from and their test accuracy, the server's
    Scaffold variate c and each aggregated client's committed c_i (a client
    without one reads zeros). A round played from here aggregates the
    selected clients' local models into the child keyed by the selection, in
    selection order (`children`). Nothing here changes once the node is
    made: its arrays are read-only, `variates` is a read-only mapping, and a
    round commits new variates into its child's own mapping.

    The round's local models are filled on the first visit, which trains
    every client from `weights`, and never change after: `local_weights` is
    the (clients, d + 1) stack of local weights in population order,
    `local_variates` the clients' proposed c_i+ beside it (None unless
    Scaffold trained them), and `local_accuracies` their test accuracies."""

    weights: np.ndarray
    accuracy: float
    server_variate: np.ndarray
    variates: Mapping[int, np.ndarray]
    local_weights: np.ndarray | None = None
    local_variates: np.ndarray | None = None
    local_accuracies: np.ndarray | None = None
    children: dict[tuple[int, ...], ModelNode] = field(default_factory=dict)


@dataclass(eq=False)
class ModelTree:
    """Every selection history the cells of one population play, as a tree
    of `ModelNode`s rooted at the untrained model, with what fixes the
    nodes' content besides the population: the training hyperparameters and
    the held-out test set. It also holds the one label buffer the
    population's poisoners' flipped labels are written into
    (`_round_labels`): a copy of the population's label block, made by the
    first round trained with a poisoner. `run_tables` makes one tree per
    seed, beside the seed's population, and frees both together."""

    agg: AggregationConfig
    test: SyntheticDataset
    root: ModelNode = field(init=False)
    poisoned_labels: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        weights = _frozen(init_model().weights)
        self.root = ModelNode(
            weights,
            evaluate_accuracy(weights[None], self.test)[0],
            _frozen(np.zeros(FEATURE_DIM + 1)),
            MappingProxyType({}),
        )


@dataclass
class SimulationState:
    """One cell's own cross-round state: its ledger, trust policy,
    reputation parameters and round counter, and the node of `tree` that
    its selections have reached. A cell starts at the root in round 0, so
    its round counter is its node's depth. The model state (weights,
    accuracy, Scaffold variates) is the node's, shared with every cell of
    the tree that selected alike. The harness plays every cell's state on
    its seed's tree (`_play`); a state built on a fresh tree shares
    nothing."""

    tree: ModelTree
    ledger: HashChainLedger | PlainStore = field(default_factory=HashChainLedger)
    rep_params: ReputationParams = field(default_factory=ReputationParams)
    trust_policy: str = TRUST_LAST_VALID
    round: int = 0
    node: ModelNode = field(init=False)

    def __post_init__(self):
        self.node = self.tree.root


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


def _round_labels(
    population: list[ClientProfile], tree: ModelTree, round_num: int
) -> np.ndarray | None:
    """The label block the population trains on in round `round_num`: None
    (its own) if no client is a poisoner, else `tree.poisoned_labels` with
    each poisoner's row overwritten by its flipped labels of the round. The
    datasets are rows of one population from `generate_population`, which
    is not changed."""
    poisoners = [c for c in population if not c.honest]
    if not poisoners:
        return None
    if tree.poisoned_labels is None:
        tree.poisoned_labels = poisoners[0].dataset.label_block.copy()
    for c in poisoners:
        d = c.dataset
        tree.poisoned_labels[d.row, 0, : len(d)] = np.unpackbits(
            c.flipped_labels[round_num], count=len(d)
        )
    return tree.poisoned_labels


def _offer(population: list[ClientProfile], params: MarketParams) -> dict[int, Contract]:
    """Each client's contract under the regime of `params`; depends on no
    round state. Complete information pays exactly the cost and incomplete
    the cost plus a nonnegative rent, so every client accepts; raises
    RuntimeError, naming the regime and the clients, if a client's utility
    from its contract is below 0."""
    contracts = {c.id: solve(c.theta, params) for c in population}
    declined = [
        c.id for c in population if client_utility(contracts[c.id], c.theta, params.delta) < 0.0
    ]
    if declined:
        raise RuntimeError(
            f"{params.regime.value}-information contracts leave clients {declined} "
            "below their participation utility of 0"
        )
    return contracts


def _server_utility(
    selected: list[int], contracts: dict[int, Contract], params: MarketParams
) -> float:
    """The server's payoff from a round: the sum, in selection order, of its
    payoff from each selected client's contract."""
    return sum(server_utility_per_client(contracts[i], params) for i in selected)


def _child(
    population: list[ClientProfile], tree: ModelTree, node: ModelNode, selected: list[int],
    round_num: int,
) -> ModelNode:
    """The node that aggregating `selected`, in their order, reaches from
    `node` in round `round_num`: the known child, or else a new one. The
    key is the ordered selection because aggregation and the Scaffold
    variate sum add in that order.

    The first visit to `node` trains every client from its weights and
    evaluates the local models and the new global model in one evaluation.
    A later visit that selects anew only aggregates its stored local models
    and evaluates the new global model.
    """
    key = tuple(selected)
    child = node.children.get(key)
    if child is not None:
        return child
    local_weights, local_variates = node.local_weights, node.local_variates
    first_visit = local_weights is None
    if first_visit:
        trained = local_train(
            ModelParams(node.weights), [c.dataset for c in population], tree.agg,
            node.server_variate, node.variates, _round_labels(population, tree, round_num),
        )
        local_weights = _frozen(np.array([m.weights for m in trained]))
        # local_train proposes a c_i+ for every client or (not Scaffold) for none.
        if trained[0].variate is not None:
            local_variates = _frozen(np.array([m.variate for m in trained]))
    rows = {c.id: p for p, c in enumerate(population)}
    new_global = aggregate(
        [ModelParams(local_weights[rows[i]]) for i in selected],
        [len(population[rows[i]].dataset) for i in selected], tree.agg,
    )
    server_variate, variates = node.server_variate, node.variates
    # Scaffold: only the aggregated clients S commit their proposed c_i+, and
    # c moves by (1/N) * sum over S of c_i+ - c_i, N the population size.
    if local_variates is not None:
        proposed = {i: local_variates[rows[i]] for i in selected}
        deltas = [v - variates.get(i, 0.0) for i, v in proposed.items()]
        server_variate = _frozen(server_variate + np.sum(deltas, axis=0) / len(population))
        variates = MappingProxyType(variates | proposed)
    if first_visit:
        *accuracies, accuracy = evaluate_accuracy(
            np.vstack([local_weights, new_global.weights]), tree.test
        )
        # Filled in one step, once nothing of the round can raise.
        node.local_weights, node.local_variates = local_weights, local_variates
        node.local_accuracies = _frozen(np.array(accuracies))
    else:
        (accuracy,) = evaluate_accuracy(new_global.weights[None], tree.test)
    child = ModelNode(_frozen(new_global.weights), accuracy, server_variate, variates)
    node.children[key] = child
    return child


def run_round(
    population: list[ClientProfile],
    params: MarketParams,
    state: SimulationState,
) -> RoundReport:
    """One round played: selection, training, aggregation, evaluation,
    Banzhaf scoring and ledger append. Every client accepts its contract, so
    no regime enters the round, and nothing is priced here.

    Selection, the ledger reads, scoring and the appends are the cell's own.
    Training and evaluation are the tree's: the cell moves to the child
    node its selection reaches (`_child`), which trains and evaluates only
    what no earlier visit to the node has. Every client trains a candidate
    local model and is scored; only the selected top-k are aggregated into
    the global model (and paid, once a mechanism prices the round).
    """
    if not population:
        raise ValueError("population must be non-empty")

    eps_prev = {
        c.id: ledger_epsilon(state.ledger, c.id, state.trust_policy) for c in population
    }
    selected = select_top_k(eps_prev, min(params.k_select, len(population)))
    node = state.node
    child = _child(population, state.tree, node, selected, state.round)
    # Contributions are measured against the model the clients started
    # from, so the per-round improvement signal stays attributable.
    realized = dict(
        zip([c.id for c in population], (node.local_accuracies - node.accuracy).tolist())
    )

    values = {c.id: realized_value(realized[c.id], c.theta, params) for c in population}
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
        accuracy_global=child.accuracy,
    )
    state.node = child
    state.round += 1
    return report


def _bid_round(
    costs: dict[int, float], rule: WinnerRule, target_q: float, params: MarketParams,
    seed: int, round_num: int,
) -> dict[int, Contract]:
    """One baseline round's winners and their pay-as-bid contracts, in the
    rule's order: every client bids its cost of `target_q` (`costs`, by
    client id in population order) times a margin drawn uniformly from
    [1.0, 1.3], in population order; `rule` picks `params.k_select`
    winners, and each is paid its bid for `target_q`."""
    margins = np.random.default_rng((seed, round_num)).random(len(costs)).tolist()
    bids = {i: costs[i] * (1.0 + 0.3 * m) for i, m in zip(costs, margins)}
    winners = rule(bids, params.k_select, _mix(seed, round_num, 99))
    return {i: Contract(target_q, bids[i]) for i in winners}


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


def _model_tree(config, test: SyntheticDataset) -> ModelTree:
    """A fresh tree of the config's training on `test`, for one population."""
    return ModelTree(
        AggregationConfig(
            config.aggregation, config.local_epochs, config.learning_rate, config.prox_mu
        ),
        test,
    )


def _fresh_state(config, tree: ModelTree, ledger_mode: str = "chained") -> SimulationState:
    return SimulationState(
        tree=tree,
        ledger=STORES[ledger_mode](),
        rep_params=ReputationParams(config.w1, config.w2),
        trust_policy=config.trust_policy,
    )


def _market(config, k: int, regime: Regime = Regime.COMPLETE) -> MarketParams:
    """The market at k under `regime`. A round plays the same in every
    regime's market, so only pricing reads the regime; a baseline prices in
    the default one."""
    return MarketParams(config.lam, config.delta, config.n_clients, k, regime)


def _bid_costs(config, population: list[ClientProfile]) -> tuple[float, dict[int, float]]:
    """The baselines' target output, the median complete-information output,
    and each client's cost of it, by client id in population order. Neither
    reads k or the winner rule, so a seed makes them once for every baseline
    cell."""
    params = _market(config, config.k_values[0])
    target_q = statistics.median(solve_complete(c.theta, params).q for c in population)
    return target_q, {c.id: cost(target_q, c.theta, params.delta) for c in population}


def run_cell(
    config, mechanism: str, k: int, seed: int, target_q: float, costs: dict[int, float]
) -> list[dict]:
    """The `rounds.csv` rows of one baseline (mechanism, k, seed) cell: a bid
    round under the mechanism's winner rule for every round, on the seed's
    target output and costs from `_bid_costs`. The mechanism stays a
    positional argument, because `benchmarks/tracer.py` labels this span by
    it."""
    params = _market(config, k)
    rule = MECHANISMS[mechanism]
    # A bid round selects exactly the holders of its contracts.
    bid_rounds = (_bid_round(costs, rule, target_q, params, seed, r) for r in range(config.rounds))
    return _rows(mechanism, k, seed, params, ((r, c, c, None) for r, c in enumerate(bid_rounds)))


def _rows(mechanism: str, k: int, seed: int, params: MarketParams, rounds) -> list[dict]:
    """A cell's `rounds.csv` rows, one per (round, selected, contracts,
    accuracy) of `rounds`, each priced by `_server_utility` in `params`."""
    return [
        {"mechanism": mechanism, "k": k, "seed": seed, "round": r,
         "server_utility": _server_utility(selected, contracts, params),
         "accuracy": accuracy, "n_selected": len(selected)}
        for r, selected, contracts, accuracy in rounds
    ]


def _play(
    config, population: list[ClientProfile], tree: ModelTree, params: MarketParams,
    ledger_mode: str = "chained", tamper_cfg=None,
) -> list[RoundReport]:
    """The played rounds of an `ours-*` trajectory in the market `params`,
    from a fresh state on the population's `tree`; with `tamper_cfg`, the
    ledger is attacked after every round."""
    state = _fresh_state(config, tree, ledger_mode)
    reports = []
    for _ in range(config.rounds):
        reports.append(run_round(population, params, state))
        if tamper_cfg is not None:
            tamper_attack(state.ledger, tamper_cfg)
    return reports


def _offers(config, population: list[ClientProfile]) -> dict[str, dict[int, Contract]]:
    """Each `ours-*` mechanism's contracts for the seed's population, solved
    once for every cell of the seed. `solve` reads no k, so the contracts
    solved in the first k's market serve every k."""
    k = config.k_values[0]
    return {
        m: _offer(population, _market(config, k, MECHANISMS[m])) for m in config.mechanisms_ours()
    }


def _ours_cells(
    config, k: int, seed: int, population: list[ClientProfile], tree: ModelTree,
    offers: dict[str, dict[int, Contract]],
) -> dict[str, list[dict]]:
    """The rows of every `ours-*` mechanism's cell at k: one trajectory,
    played in the market at k, priced with each mechanism's contracts from
    `_offers` in its own market at k."""
    reports = _play(config, population, tree, _market(config, k))
    return {
        mechanism: _rows(
            mechanism, k, seed, _market(config, k, MECHANISMS[mechanism]),
            ((rep.round, rep.selected, contracts, rep.accuracy_global) for rep in reports),
        )
        for mechanism, contracts in offers.items()
    }


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
    config, seed: int, population: list[ClientProfile], tree: ModelTree,
    offers: dict[str, dict[int, Contract]], bids: tuple[float, dict[int, float]] | None,
) -> dict[tuple[int, str], list[dict]]:
    """The rows of every (k, mechanism) cell of the seed: the `ours-*` cells
    under the seed's contracts from `_offers`, the baselines on its target
    output and costs from `_bid_costs` (None if no baseline is listed)."""
    out = {}
    for k in config.k_values:
        cells = _ours_cells(config, k, seed, population, tree, offers) if offers else {}
        for mechanism in config.mechanisms:
            if mechanism not in cells:
                cells[mechanism] = run_cell(config, mechanism, k, seed, *bids)
            out[k, mechanism] = cells[mechanism]
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
                rows = by_seed[seed][k, mechanism]
                round_rows.extend(rows)
                totals.append(sum(row["server_utility"] for row in rows))
            summary.append(
                {
                    "mechanism": mechanism,
                    "k": k,
                    "mean_utility": statistics.fmean(totals),
                    "std_utility": statistics.pstdev(totals),
                }
            )
    return round_rows, summary


def _trace_rows(config, population: list[ClientProfile], tree: ModelTree) -> list[dict]:
    """Per-round reputation of every client, for trajectory plots: the
    shared `ours-*` trajectory at the first k, played on the seed's
    population. Every client accepts its contract, so every client is scored
    every round."""
    reports = _play(config, population, tree, _market(config, config.k_values[0]))
    return [
        {"round": rep.round, "client": c.id, "epsilon": rep.epsilons[c.id],
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
    config, seed: int, population: list[ClientProfile], tree: ModelTree,
    offers: dict[str, dict[int, Contract]],
) -> dict[tuple[float, float, str], float]:
    """Total server utility of each tamper cell of the seed: the first
    `ours-*` mechanism, which the caller checks exists, at the first k, on
    the cell's store, attacked after every round."""
    mechanism = config.mechanisms_ours()[0]
    params = _market(config, config.k_values[0], MECHANISMS[mechanism])
    return {
        (alpha, beta, mode): sum(
            _server_utility(rep.selected, offers[mechanism], params)
            for rep in _play(
                config, population, tree, params, mode, TamperConfig(alpha, beta, seed)
            )
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

    Each seed's population, `ModelTree`, `ours-*` contracts and, if a
    baseline is listed, the baselines' target output and costs are made
    once, and its grid cells, its tamper cells and, for the first listed
    seed, the reputation trace all run on them, so each selection history
    of the seed is trained once; they are freed before the next seed's are
    made. With `rounds = 0` the grid and the trace are empty.
    """
    play = config.rounds > 0
    baselines = play and config.mechanisms != config.mechanisms_ours()
    trace_seed = config.seeds[0] if play and config.mechanisms_ours() else None
    tamper = bool(config.tamper_alphas)
    if not (play or tamper):
        return Tables([], [], [], [])
    cells, trace, totals = {}, [], {}
    for seed in dict.fromkeys(config.seeds):
        population, test = build_population(config, seed)
        tree = _model_tree(config, test)
        offers = _offers(config, population)
        bids = _bid_costs(config, population) if baselines else None
        if play:
            cells[seed] = _grid_cells(config, seed, population, tree, offers, bids)
        if seed == trace_seed:
            trace = _trace_rows(config, population, tree)
        if tamper:
            totals[seed] = _tamper_totals(config, seed, population, tree, offers)
        del population, test, tree, offers, bids  # before the next seed's are made
    return Tables(
        *(_grid_tables(config, cells) if play else ([], [])),
        trace,
        _robustness_rows(config, totals),
    )
