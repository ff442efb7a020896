"""Round orchestration for the buyers'-market auction, plus baselines.

A round is played, then priced. Playing (`run_round`) selects the top-k
clients by ledger-verified reputation, runs one federated-learning
aggregation round, scores realized contributions with the Banzhaf index and
appends the updated reputations to the ledger; its `RoundReport` holds only
what was played. Every price has one shape: the server's payoff from each
client, in population order. Pricing (`_server_utility`) sums the selected
clients' payoffs, and every mechanism prices its rounds through it.

An `ours-*` mechanism's contracts depend only on the clients' thetas and
the market, never on round state or k, so each seed prices them once
(`_prices`): one `solve` per regime on the population's thetas, whose
`Contract` holds every client's terms as arrays. Participation holds by
construction, checked once per regime: every client accepts every `ours-*`
contract, so the regime does not enter a round. One trajectory per (seed, k) is played,
and each `ours-*` mechanism prices it with its own payoffs.

A seed's population is fixed for a whole run, and so are its poisoners'
flipped labels: `build_population` draws every round's flips once into the
population (`Population.with_poisoners`), and one pass over the seeds
(`run_tables`) runs each seed's grid cells, reputation trace and tamper
cells on that one population, under its one set of offers.

Given the seed, the model a round starts from is fixed by the sequence of
ordered selections aggregated so far, and so are its accuracy, the Scaffold
variates and the local models trained from it on the round's labels.
So a seed's cells play their rounds on one `ModelTree` keyed by that
history, and each node's training, evaluation and Banzhaf scoring is done
once, by the first cell to reach it; every cell keeps its own ledger,
selection and reputation updates.

The two buyers'-market baselines are rows of the same table: each holds its
winner rule. Every client bids its cost at the median complete-information
output times a random margin, the rule picks the winners, and each winner
is paid its bid. The bids and the server's payoff from each read neither k
nor the rule, so each seed draws them once, as a bid book (`_prices`,
every round's bids and payoffs in one array each), and `run_cell` plays
one baseline cell by applying its rule to every round's bids.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .flsim import (
    FEATURE_DIM,
    AggregationConfig,
    HeldOut,
    ModelParams,
    PoisonConfig,
    Population,
    aggregate,
    evaluate_accuracy,
    generate_population,
    init_model,
    local_train,
)
from .ledger import STORES, HashChainLedger, PlainStore, TamperConfig, tamper_attack
from .mechanism import (
    Contract,
    MarketParams,
    Regime,
    client_utility,
    cost,
    server_utility_per_client,
    solve,
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


def _cheapest(bids: list[float], k: int, seed: int) -> list[int]:
    """Pay-as-bid reverse auction: the k cheapest bids win, ties by id."""
    return sorted(range(len(bids)), key=lambda i: (bids[i], i))[:k]


def _uniform(bids: list[float], k: int, seed: int) -> list[int]:
    """A uniformly random winner set of size k, in id order."""
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(len(bids), size=k, replace=False).tolist())


# A baseline's winner rule: (bids in population order, k, seed) -> the k
# winners.
WinnerRule = Callable[[list[float], int, int], list[int]]

# Every mechanism a grid plays, in the default order of a grid. An
# `ours-*` name maps to the information regime its contracts are solved
# under; a baseline maps to its winner rule.
MECHANISMS: dict[str, Regime | WinnerRule] = {
    "ours-complete": Regime.COMPLETE,
    "ours-incomplete": Regime.INCOMPLETE,
    "price-first": _cheapest,
    "randomized": _uniform,
}


@dataclass(eq=False)
class RoundReport:
    """What one round played; no regime's prices are in it. `epsilons` is
    the read-only array of the reputations the round appended, client i's
    in row i, so reports are compared field by field, not with `==`."""

    round: int
    selected: list[int]
    epsilons: np.ndarray
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
    Scaffold variate c and the clients' committed c_i, one (clients, d + 1)
    array whose row i is client i's (zeros until client i is aggregated). A
    round played from here aggregates the selected clients' local models
    into the child keyed by the selection, in selection order (`children`).
    Nothing here changes once the node is made: its arrays are read-only,
    and a round commits new variates into its child's own copy.

    The round's local models are filled on the first visit, which trains
    every client from `weights`, and never change after: `local_weights` is
    the (clients, d + 1) stack of local weights in population order,
    `local_variates` the clients' proposed c_i+ beside it (None unless
    Scaffold trained them), and `zetas` the clients' Banzhaf indices
    (`_banzhaf_contributions`), in population order."""

    weights: np.ndarray
    accuracy: float
    server_variate: np.ndarray
    variates: np.ndarray
    local_weights: np.ndarray | None = None
    local_variates: np.ndarray | None = None
    zetas: np.ndarray | None = None
    children: dict[tuple[int, ...], ModelNode] = field(default_factory=dict)


@dataclass(eq=False)
class ModelTree:
    """Every selection history the cells of one population play, as a tree
    of `ModelNode`s rooted at the untrained model and zero variates (a c_i
    for each client of the population), with all that fixes the nodes'
    content: the population, the training hyperparameters, the held-out
    test set, and the market's lambda and delta, which value the realized
    contributions a node scores (`realized_value`). `run_tables` makes one
    tree per seed (`_model_tree`)."""

    population: Population
    agg: AggregationConfig
    test: HeldOut
    lam: float
    delta: float
    root: ModelNode = field(init=False)

    def __post_init__(self):
        weights = _frozen(init_model().weights)
        self.root = ModelNode(
            weights,
            evaluate_accuracy(weights[None], self.test)[0],
            _frozen(np.zeros(FEATURE_DIM + 1)),
            _frozen(np.zeros((len(self.population), FEATURE_DIM + 1))),
        )


@dataclass
class SimulationState:
    """One cell's own cross-round state: its trust policy, ledger,
    reputation parameters and round counter, and the node of `tree` that
    its selections have reached. Each round reads every client's
    reputation in one ledger call, under the trust policy, which only the
    ledger interprets (`read`). A cell starts at the root in round 0, so
    its round counter is its node's depth. The model state (weights,
    accuracy, Scaffold variates) is the node's, shared with every cell of
    the tree that selected alike. The harness plays every cell's state on
    its seed's tree (`_play`); a state built on a fresh tree shares
    nothing."""

    tree: ModelTree
    trust_policy: str
    ledger: HashChainLedger | PlainStore = field(default_factory=HashChainLedger)
    rep_params: ReputationParams = field(default_factory=ReputationParams)
    round: int = 0
    node: ModelNode = field(init=False)

    def __post_init__(self):
        self.node = self.tree.root


def _mix(seed: int, round_num: int, salt: int) -> int:
    return (seed * 1_000_003 + round_num * 10_007 + salt) % (1 << 63)


def realized_value(
    q_hat: float | np.ndarray, theta: float | np.ndarray, params: MarketParams | ModelTree
) -> float | np.ndarray:
    """Server surplus from a realized output, valued at production cost
    under the lambda and delta of `params`: of one client from floats, or
    elementwise from arrays, with the same bits.

    Defined for negative realized output (poisoned clients) and identical
    across information regimes, so reputation trajectories do not depend on
    the pricing regime.
    """
    return params.lam * q_hat - q_hat * q_hat / (1.0 + params.delta * theta)


def _banzhaf_contributions(values: np.ndarray) -> np.ndarray:
    """Each client's Banzhaf index, in population order, in the additive
    game whose value is the sum of its members' `values`.

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
    return banzhaf_exact(additive_utility(values), len(values))


def _server_utility(selected: list[int], payoffs: list[float]) -> float:
    """The server's payoff from a round: the sum, in selection order, of
    each selected client's payoff, `payoffs[i]` being client i's."""
    return sum(payoffs[i] for i in selected)


def _child(tree: ModelTree, node: ModelNode, selected: list[int], round_num: int) -> ModelNode:
    """The node that aggregating `selected`, in their order, reaches from
    `node` in round `round_num`: the known child, or else a new one. The
    key is the ordered selection because aggregation and the Scaffold
    variate sum add in that order.

    The first visit to `node` trains every client from its weights on its
    labels of round `round_num`, evaluates the local models and the new
    global model in one evaluation, and scores every client's realized
    contribution, its local model's accuracy gain over `node`'s. A later
    visit that selects anew only aggregates its stored local models and
    evaluates the new global model. A client's rows are read by its id,
    which is its row in the population.
    """
    population = tree.population
    key = tuple(selected)
    child = node.children.get(key)
    if child is not None:
        return child
    local_weights, local_variates = node.local_weights, node.local_variates
    first_visit = local_weights is None
    if first_visit:
        local_weights, local_variates = local_train(
            node.weights, population, tree.agg, node.server_variate, node.variates,
            round_num=round_num,
        )
        _frozen(local_weights)
        if local_variates is not None:
            _frozen(local_variates)
    new_global = aggregate(
        [ModelParams(local_weights[i]) for i in selected],
        population.counts[selected].tolist(), tree.agg,
    )
    server_variate, variates = node.server_variate, node.variates
    # Scaffold: only the aggregated clients S commit their proposed c_i+, and
    # c moves by (1/N) * sum over S of c_i+ - c_i, N the population size.
    if local_variates is not None:
        deltas = local_variates[selected] - variates[selected]
        server_variate = _frozen(server_variate + np.sum(deltas, axis=0) / len(population))
        variates = variates.copy()
        variates[selected] = local_variates[selected]
        _frozen(variates)
    if first_visit:
        *accuracies, accuracy = evaluate_accuracy(
            np.vstack([local_weights, new_global.weights]), tree.test
        )
        # Measured against the model the clients started from, so the
        # per-round improvement signal stays attributable.
        realized = np.array(accuracies) - node.accuracy
        zetas = _banzhaf_contributions(realized_value(realized, population.thetas, tree))
        # Filled in one step, once nothing of the round can raise.
        node.local_weights, node.local_variates = local_weights, local_variates
        node.zetas = _frozen(zetas)
    else:
        (accuracy,) = evaluate_accuracy(new_global.weights[None], tree.test)
    child = ModelNode(_frozen(new_global.weights), accuracy, server_variate, variates)
    node.children[key] = child
    return child


def run_round(state: SimulationState, k: int) -> RoundReport:
    """One round of the cell `state` that aggregates its top k clients:
    selection, training, aggregation, evaluation, Banzhaf scoring and ledger
    append. Every client accepts its contract, so no regime enters the
    round, and nothing is priced here.

    Selection, the ledger read (one call for every client), the reputation
    updates and the appends are the cell's own, in population order.
    Training, evaluation and scoring are the tree's: the cell moves to the
    child node its selection reaches (`_child`), which trains, evaluates and
    scores only what no earlier visit to the node has. Every client trains a
    candidate local model and is scored; only the selected top k are
    aggregated into the global model (and paid, once a mechanism prices the
    round). A k above the population size raises `select_top_k`'s
    ValueError before the state changes.
    """
    node = state.node
    n = len(state.tree.population)
    eps_prev = state.ledger.read(range(n), state.trust_policy)
    selected = select_top_k(eps_prev, k)
    child = _child(state.tree, node, selected, state.round)
    # Row i of the node's zetas is client i's.
    epsilons = _frozen(update_reputation(np.array(eps_prev), node.zetas, state.rep_params))
    for i, (zeta, epsilon) in enumerate(zip(node.zetas.tolist(), epsilons.tolist())):
        state.ledger.append(state.round, i, zeta, epsilon)

    report = RoundReport(state.round, selected, epsilons, child.accuracy)
    state.node = child
    state.round += 1
    return report


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def build_population(config, seed: int) -> tuple[Population, HeldOut]:
    """Deterministic population for one experiment seed, and its test set.

    Efficiencies are uniform on [theta_min, theta_max]; the first
    poison_count clients are label-flipping poisoners, whose flipped labels
    for every one of the config's rounds are drawn here.
    """
    rng = np.random.default_rng(seed)
    thetas = (
        config.theta_min
        + (config.theta_max - config.theta_min) * rng.random(config.n_clients)
    ).tolist()
    population, test = generate_population(thetas, seed)
    flip = PoisonConfig(config.poison_flip_rate)
    poisoners = np.arange(config.poison_count)
    return population.with_poisoners(poisoners, flip, config.rounds, partial(_mix, seed)), test


def _model_tree(config, population: Population, test: HeldOut) -> ModelTree:
    """A fresh tree of the config's training of `population` on `test`."""
    return ModelTree(
        population,
        AggregationConfig(
            config.aggregation, config.local_epochs, config.learning_rate, config.prox_mu
        ),
        test,
        config.lam,
        config.delta,
    )


def _fresh_state(config, tree: ModelTree, ledger_mode: str = "chained") -> SimulationState:
    return SimulationState(
        tree=tree,
        ledger=STORES[ledger_mode](),
        rep_params=ReputationParams(config.w1, config.w2),
        trust_policy=config.trust_policy,
    )


class BidRound(NamedTuple):
    """One round of a seed's bid book: every client's bid, in population
    order, and the server's payoff from paying it for the target output."""

    bids: list[float]
    payoffs: list[float]


def run_cell(mechanism: str, k: int, seed: int, book: list[BidRound]) -> list[dict]:
    """The `rounds.csv` rows of one baseline (mechanism, k, seed) cell: each
    round of the seed's bid book (`_prices`), won under the mechanism's rule
    at k. The mechanism stays a positional argument, because
    `benchmarks/tracer.py` labels this span by it."""
    rule = MECHANISMS[mechanism]
    return _rows(mechanism, k, seed, (
        (r, rule(bids, k, _mix(seed, r, 99)), payoffs, None)
        for r, (bids, payoffs) in enumerate(book)
    ))


def _rows(mechanism: str, k: int, seed: int, rounds) -> list[dict]:
    """A cell's `rounds.csv` rows, one per (round, selected, payoffs,
    accuracy) of `rounds`, each priced by `_server_utility`."""
    return [
        {"mechanism": mechanism, "k": k, "seed": seed, "round": r,
         "server_utility": _server_utility(selected, payoffs),
         "accuracy": accuracy, "n_selected": len(selected)}
        for r, selected, payoffs, accuracy in rounds
    ]


def _play(
    config, tree: ModelTree, k: int, ledger_mode: str = "chained", tamper_cfg=None
) -> list[RoundReport]:
    """The played rounds of an `ours-*` trajectory at k, from a fresh state
    on the seed's `tree`; with `tamper_cfg`, the ledger is attacked after
    every round."""
    state = _fresh_state(config, tree, ledger_mode)
    reports = []
    for _ in range(config.rounds):
        reports.append(run_round(state, k))
        if tamper_cfg is not None:
            tamper_attack(state.ledger, tamper_cfg)
    return reports


def _prices(
    config, population: Population, seed: int, baselines: bool
) -> tuple[dict[Regime, list[float]], list[BidRound] | None]:
    """The seed's prices, which read no k: the server's payoff from each
    client, in population order, under each listed `ours-*` regime's
    contracts, and the complete one's if `baselines`, whose outputs fix
    their target output; and, if `baselines`, the bid book, else None.
    Raises RuntimeError, naming the regime and the clients, if a client's
    utility from its contract is below 0. In round r every client bids its
    cost of the median complete-information output times a margin drawn
    uniformly from [1.0, 1.3], in population order, from
    `default_rng((seed, r))`; each bid is a contract for that output. The
    payoffs and bids are Python floats, whose repr is the bare number the
    CSV holds."""
    market = MarketParams(config.lam, config.delta, config.n_clients, config.k_values[0])
    thetas = population.thetas
    regimes = [MECHANISMS[m] for m in config.mechanisms_ours()] + [Regime.COMPLETE] * baselines
    payoffs, outputs = {}, {}
    for regime in dict.fromkeys(regimes):
        contracts = solve(thetas, market, regime)
        declined = np.flatnonzero(client_utility(contracts, thetas, config.delta) < 0.0)
        if declined.size:
            raise RuntimeError(
                f"{regime.value}-information contracts leave clients {declined.tolist()} "
                "below their participation utility of 0"
            )
        payoffs[regime] = server_utility_per_client(contracts, market).tolist()
        outputs[regime] = contracts.q
    if not baselines:
        return payoffs, None
    target_q = statistics.median(outputs[Regime.COMPLETE].tolist())
    margins = np.empty((config.rounds, len(thetas)))
    for r, row in enumerate(margins):
        np.random.default_rng((seed, r)).random(out=row)
    bids = cost(target_q, thetas, config.delta) * (1.0 + 0.3 * margins)
    bid_payoffs = server_utility_per_client(Contract(target_q, bids), market)
    return payoffs, list(map(BidRound, bids.tolist(), bid_payoffs.tolist()))


def _ours_cells(
    config, k: int, seed: int, tree: ModelTree, payoffs: dict[Regime, list[float]]
) -> dict[str, list[dict]]:
    """The rows of every `ours-*` mechanism's cell at k: one trajectory,
    played at k and priced with each mechanism's payoffs from `_prices`."""
    reports = _play(config, tree, k)
    return {
        mechanism: _rows(
            mechanism, k, seed,
            ((rep.round, rep.selected, payoffs[MECHANISMS[mechanism]], rep.accuracy_global)
             for rep in reports),
        )
        for mechanism in config.mechanisms_ours()
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
    config, seed: int, tree: ModelTree, payoffs: dict[Regime, list[float]],
    book: list[BidRound] | None,
) -> dict[tuple[int, str], list[dict]]:
    """The rows of every (k, mechanism) cell of the seed, on its prices from
    `_prices`: the `ours-*` cells' payoffs and the baselines' bid book
    (None if no baseline is listed)."""
    out, ours = {}, config.mechanisms_ours()
    for k in config.k_values:
        cells = _ours_cells(config, k, seed, tree, payoffs) if ours else {}
        for mechanism in config.mechanisms:
            if mechanism not in cells:
                cells[mechanism] = run_cell(mechanism, k, seed, book)
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


def _trace_rows(config, tree: ModelTree) -> list[dict]:
    """Per-round reputation of every client, for trajectory plots: the
    shared `ours-*` trajectory at the first k, played on the seed's tree.
    Every client accepts its contract, so every client is scored every
    round. The epsilons go in as Python floats, whose repr, unlike a numpy
    scalar's, is the bare number the CSV holds."""
    behaviors = ["honest" if h else "poisoner" for h in tree.population.honest.tolist()]
    return [
        {"round": rep.round, "client": i, "epsilon": epsilon, "behavior": behavior}
        for rep in _play(config, tree, config.k_values[0])
        for i, (epsilon, behavior) in enumerate(zip(rep.epsilons.tolist(), behaviors))
    ]


def _tamper_grid(config) -> list[tuple[float, float, str]]:
    return [
        (alpha, beta, mode)
        for alpha in config.tamper_alphas
        for beta in config.tamper_betas
        for mode in config.ledger_modes
    ]


def _tamper_totals(
    config, seed: int, tree: ModelTree, payoffs: dict[Regime, list[float]]
) -> dict[tuple[float, float, str], float]:
    """Total server utility of each tamper cell of the seed: the first
    `ours-*` mechanism, which the caller checks exists, at the first k, on
    the cell's store, attacked after every round."""
    mechanism_payoffs = payoffs[MECHANISMS[config.mechanisms_ours()[0]]]
    k = config.k_values[0]
    return {
        (alpha, beta, mode): sum(
            _server_utility(rep.selected, mechanism_payoffs)
            for rep in _play(config, tree, k, mode, TamperConfig(alpha, beta, seed))
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

    Each seed's population, `ModelTree` and prices (`_prices`: the
    `ours-*` payoffs and, if a baseline is listed, the bid book) are made
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
        tree = _model_tree(config, population, test)
        payoffs, book = _prices(config, population, seed, baselines)
        if play:
            cells[seed] = _grid_cells(config, seed, tree, payoffs, book)
        if seed == trace_seed:
            trace = _trace_rows(config, tree)
        if tamper:
            totals[seed] = _tamper_totals(config, seed, tree, payoffs)
        del population, test, tree, payoffs, book  # before the next seed's are made
    return Tables(
        *(_grid_tables(config, cells) if play else ([], [])),
        trace,
        _robustness_rows(config, totals),
    )
