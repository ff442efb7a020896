import dataclasses
import itertools
import statistics
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_flsim import clients_of, population_of
from test_ledger import _apply, _hash_calls, appends, edits

from flmarket import auction, cli, reputation
from flmarket import mechanism as mechanism_module
from flmarket.auction import (
    TRUST_POLICIES,
    ModelTree,
    build_population,
    ledger_epsilon,
    run_cell,
    run_round,
    run_tables,
    SimulationState,
    _banzhaf_contributions,
    _cheapest,
    _fresh_state,
    _model_tree,
    _offer,
    _payoffs,
    _server_utility,
    _uniform,
    realized_value,
)
from flmarket.config import ExperimentConfig, parse_config
from flmarket.flsim import (
    AggregationConfig,
    Aggregator,
    PoisonConfig,
    evaluate_accuracy,
    generate_population,
    init_model,
    local_train,
)
from flmarket.ledger import (
    HashChainLedger,
    PlainStore,
    TamperConfig,
    UnknownClientError,
    tamper_attack,
)
from flmarket.mechanism import (
    Contract,
    MarketParams,
    Regime,
    client_utility,
    cost,
    server_utility_per_client,
    solve,
    solve_complete,
)
from flmarket.reputation import ReputationParams, additive_utility, banzhaf_exact, banzhaf_mc


def small_config(**overrides):
    defaults = dict(
        n_clients=8,
        k_values=[4],
        rounds=3,
        seeds=[0, 1],
        lam=1.0,
        delta=2.0,
        theta_min=0.2,
        theta_max=1.0,
        local_epochs=2,
        learning_rate=0.5,
    )
    defaults.update(overrides)
    config = ExperimentConfig(**defaults)
    config.validate()
    return config


def single_client_setup(theta=1.0, regime=Regime.COMPLETE):
    population, test = generate_population([theta], seed=0)
    params = MarketParams(1.0, 2.0, 1, 1, regime)
    tree = ModelTree(population, AggregationConfig(local_epochs=2), test, 1.0, 2.0)
    return population, params, SimulationState(tree)


def played(reports):
    """What each report played, its epsilons as their bytes, so that two
    lists of reports compare with `==`."""
    return [(r.round, r.selected, r.epsilons.tobytes(), r.accuracy_global) for r in reports]


class TestRunRound:
    def test_single_top_type_client_fixture(self):
        population, params, state = single_client_setup()
        contracts = _offer(population, params)
        report = run_round(state, params.k_select)
        assert report.selected == [0]
        assert contracts[0].r == pytest.approx(0.75, abs=1e-12)
        assert _server_utility(report.selected, _payoffs(contracts, params)) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_complete_information_contracts_all_accepted(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        params = MarketParams(1.0, 2.0, 8, 8, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        report = run_round(state, params.k_select)
        # Zero-rent contracts meet the participation bound, so with k = n
        # every client is selected.
        assert sorted(report.selected) == list(range(8))

    def test_cold_start_selection_is_id_ordered(self):
        config = small_config(n_clients=10, k_values=[3])
        population, test = build_population(config, seed=1)
        params = MarketParams(1.0, 2.0, 10, 3, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        report = run_round(state, params.k_select)
        assert report.selected == [0, 1, 2]

    def test_budget_identity(self):
        config = small_config(lam=1.3)
        population, test = build_population(config, seed=5)
        thetas = population.thetas.tolist()
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.3, 2.0, 8, 4, regime)
            state = _fresh_state(config, _model_tree(config, population, test))
            contracts = _offer(population, params)
            payoffs = _payoffs(contracts, params)
            for _ in range(2):
                rep = run_round(state, params.k_select)
                lhs = _server_utility(rep.selected, payoffs) + sum(
                    client_utility(contracts[i], thetas[i], params.delta) for i in rep.selected
                )
                rhs = sum(
                    params.lam * contracts[i].q - cost(contracts[i].q, thetas[i], params.delta)
                    for i in rep.selected
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_no_selected_client_has_negative_utility(self):
        config = small_config(theta_min=0.0)
        population, test = build_population(config, seed=9)
        thetas = population.thetas.tolist()
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.0, 2.0, 8, 5, regime)
            state = _fresh_state(config, _model_tree(config, population, test))
            contracts = _offer(population, params)
            for _ in range(3):
                rep = run_round(state, params.k_select)
                assert all(
                    client_utility(contracts[i], thetas[i], params.delta) >= 0.0
                    for i in rep.selected
                )

    def test_regime_dominance_every_round(self):
        config = small_config(rounds=4)
        population, test = build_population(config, seed=7)
        params_ci = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        params_in = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        payoffs_ci = _payoffs(_offer(population, params_ci), params_ci)
        payoffs_in = _payoffs(_offer(population, params_in), params_in)
        # Both regimes price the one trajectory every client accepts.
        for _ in range(4):
            selected = run_round(state, params_ci.k_select).selected
            u_ci = _server_utility(selected, payoffs_ci)
            u_in = _server_utility(selected, payoffs_in)
            assert u_ci >= u_in - 1e-12

    def test_k_above_the_population_raises_and_changes_nothing(self):
        # Config validation keeps k <= n. A k that bypasses it is not
        # clamped: select_top_k names it before the round changes anything.
        config = small_config()
        population, test = build_population(config, seed=3)
        state = _fresh_state(config, _model_tree(config, population, test))
        run_round(state, 4)
        node, records = state.node, len(state.ledger.records)
        with pytest.raises(ValueError, match="cannot select 9 clients from a population of 8"):
            run_round(state, 9)
        assert (state.round, state.node, len(state.ledger.records)) == (1, node, records)

    def test_empty_population_rejected(self):
        # A round plays a population, which holds at least one client.
        with pytest.raises(ValueError, match="at least one client"):
            build_population(dataclasses.replace(small_config(), n_clients=0), seed=0)

    def test_determinism(self):
        config = small_config()
        population, test = build_population(config, seed=11)
        reports_a = played(auction._play(config, _model_tree(config, population, test), 4))
        # A population that already played a cell plays the next one unchanged.
        again = auction._play(config, _model_tree(config, population, test), 4)
        assert played(again) == reports_a
        fresh_population, fresh_test = build_population(config, 11)
        fresh_tree = _model_tree(config, fresh_population, fresh_test)
        assert played(auction._play(config, fresh_tree, 4)) == reports_a

    def test_each_model_is_evaluated_once(self, monkeypatch):
        """One evaluation per round scores every accepted client's local
        model, in order, and then the new global model, each exactly once."""
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        state = _fresh_state(config, _model_tree(config, population, test))
        evaluated, trained = [], []

        def counted(weights, data):
            evaluated.append(weights.copy())
            return evaluate_accuracy(weights, data)

        def spied(*args, **kwargs):
            trained.append(local_train(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(auction, "evaluate_accuracy", counted)
        monkeypatch.setattr(auction, "local_train", spied)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        for r in range(3):
            rep = run_round(state, params.k_select)
            assert len(evaluated) == len(trained) == r + 1
            models = [*trained[r][0], state.node.weights]
            assert len(models) == len(rep.epsilons) + 1
            assert evaluated[r].tobytes() == np.stack(models).tobytes()
            assert state.node.accuracy == rep.accuracy_global
            assert state.node.accuracy == evaluate_accuracy(state.node.weights[None], test)[0]

    @pytest.mark.parametrize(
        "n, path", [(auction.EXACT_COALITION_LIMIT, "banzhaf_exact")]
    )
    def test_one_banzhaf_call_scores_every_client(self, monkeypatch, n, path):
        calls, evals = [], []

        def spy(name):
            primitive = getattr(auction, name)

            def call(utility, *args):
                calls.append(name)

                def counted(masks):
                    evals.append(len(masks))
                    return utility.evaluator(masks)

                return primitive(dataclasses.replace(utility, evaluator=counted), *args)

            return call

        monkeypatch.setattr(auction, path, spy(path))
        config = small_config(n_clients=n)
        population, test = build_population(config, seed=5)
        # Complete information: every client accepts, so all n are scored.
        params = MarketParams(1.0, 2.0, n, 4, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        rep = run_round(state, params.k_select)
        assert len(rep.epsilons) == n
        assert calls == [path]
        # One evaluator call plays each of the 2^n coalitions once.
        assert evals == [1 << n]

    def test_large_round_scores_each_client_by_its_value(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a round above the limit evaluated a coalition")

        monkeypatch.setattr(auction, "banzhaf_exact", forbidden)
        monkeypatch.setattr(reputation, "banzhaf_exact", forbidden)
        monkeypatch.setattr(reputation, "banzhaf_mc", forbidden)
        n = auction.EXACT_COALITION_LIMIT + 2
        config = small_config(n_clients=n)
        population, test = build_population(config, seed=5)
        # Complete information: every client accepts, so all n are scored.
        params = MarketParams(1.0, 2.0, n, 4, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        node = state.node
        rep = run_round(state, params.k_select)
        assert len(state.ledger.records) == len(rep.epsilons) == n
        zetas = {r.client_id: r.zeta for r in state.ledger.records}
        assert sorted(zetas) == list(range(n))
        assert node.zetas.tolist() == [zetas[i] for i in range(n)]
        # Each client's realized gain: its local model's accuracy over the
        # model the round started from.
        gains = evaluate_accuracy(node.local_weights, test)
        for i, (theta, accuracy) in enumerate(zip(population.thetas.tolist(), gains)):
            value = realized_value(accuracy - node.accuracy, theta, params)
            assert struct.pack("<d", zetas[i]) == struct.pack("<d", value)

    def test_scaffold_commits_only_the_aggregated_clients(self):
        # Complete information: all six clients accept, and k = 2 are aggregated.
        thetas = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        population, test = generate_population(thetas, seed=23)
        params = MarketParams(1.0, 2.0, 6, 2, Regime.COMPLETE)
        cfg = AggregationConfig(Aggregator.SCAFFOLD, local_epochs=3, learning_rate=0.5)
        state = SimulationState(ModelTree(population, cfg, test, 1.0, 2.0))
        root = state.node
        rep = run_round(state, params.k_select)
        assert len(rep.epsilons) == 6 and len(rep.selected) == 2
        _, proposed = local_train(
            root.weights, population, cfg, np.zeros(21), np.zeros((6, 21)), round_num=0
        )
        # Only the selected clients' rows take a variate: the c_i+ they
        # proposed. The other rows keep the parent's bits, all zero.
        variates = state.node.variates
        assert variates.shape == root.variates.shape == (6, 21) and not np.any(root.variates)
        assert np.all(np.any(proposed[rep.selected] != 0.0, axis=1))
        assert variates[rep.selected].tobytes() == proposed[rep.selected].tobytes()
        unselected = sorted(set(range(6)) - set(rep.selected))
        assert variates[unselected].tobytes() == root.variates[unselected].tobytes()
        # c <- c + (1/N) * sum over S of (c_i+ - c_i), from c = c_i = 0.
        expected = sum(proposed[i] for i in rep.selected) / len(population)
        assert np.allclose(state.node.server_variate, expected, rtol=0.0, atol=1e-12)

    def test_epsilons_are_what_the_ledger_holds(self):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=4)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        for _ in range(3):
            rep = run_round(state, params.k_select)
            # Every accepted client is scored, so every one has a new record.
            assert rep.epsilons.shape == (len(population),)
            for i, eps in enumerate(rep.epsilons.tolist()):
                assert eps == ledger_epsilon(state.ledger, i)
            with pytest.raises(ValueError, match="read-only"):
                rep.epsilons[0] = 0.0


class TestBanzhafContributions:
    # Realized values are surpluses of accuracy changes, so |value| <= 1 at
    # the default market; 64 samples is what a large round once drew.
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(auction.EXACT_COALITION_LIMIT + 1, 40).flatmap(
            lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_the_monte_carlo_primitive(self, values, seed):
        n = len(values)
        seeds = [seed + p for p in range(n)]
        mc = banzhaf_mc(additive_utility(dict(enumerate(values))), n, 64, seeds)
        zetas = _banzhaf_contributions(np.array(values))
        assert zetas.shape == (n,)
        assert np.allclose(zetas, mc, rtol=0.0, atol=1e-12)


class TestRealizedContribution:
    """A node's realized contributions: each client's test-accuracy gain
    over the global model it started the round from (its local model's
    accuracy minus the node's), whose realized value is the client's zeta."""

    def _run(self, rounds, thetas, seed, poisoned=(), **agg):
        """The gains of each round's start node, each checked against its
        zetas, and the reports."""
        population, test = generate_population(thetas, seed=seed)
        population = population.with_poisoners(
            np.array(poisoned, dtype=int), PoisonConfig(1.0), rounds,
            lambda r, i: auction._mix(seed, r, i),
        )
        tree = ModelTree(population, AggregationConfig(**agg), test, 1.0, 2.0)
        state = SimulationState(tree)
        gains, reports = [], []
        for _ in range(rounds):
            node = state.node
            reports.append(run_round(state, 2))
            gains.append(np.array(evaluate_accuracy(node.local_weights, test)) - node.accuracy)
            values = realized_value(gains[-1], population.thetas, tree)
            assert np.allclose(node.zetas, values, rtol=0.0, atol=1e-15)
        return population, test, gains, reports

    def test_identical_models_contribute_zero(self):
        _, _, gains, reports = self._run(2, [0.5, 0.8, 1.0], 14, learning_rate=0.0)
        for gain, rep in zip(gains, reports):
            assert gain.tolist() == [0.0, 0.0, 0.0]
            assert rep.epsilons.tolist() == [0.0, 0.0, 0.0]

    def test_is_a_plain_accuracy_difference(self):
        cfg = dict(local_epochs=50, learning_rate=1.0)
        population, test, (gain,), _ = self._run(1, [1.0, 1.0], 15, **cfg)
        for i, (x, y) in enumerate(clients_of(population)):
            alone = population_of([x], [y])
            (local,), _ = local_train(
                init_model().weights, alone, AggregationConfig(**cfg), round_num=0
            )
            acc, start = evaluate_accuracy(np.stack([local, init_model().weights]), test)
            assert gain[i] == pytest.approx(acc - start, abs=1e-15)

    def test_fully_poisoned_local_model_contributes_negatively(self):
        # Cold start selects clients 0 and 1, so the second round starts
        # from a model trained on clean data only.
        _, _, gains, reports = self._run(
            2, [1.0, 1.0, 1.0], 16, poisoned=(2,), local_epochs=50, learning_rate=1.0
        )
        assert reports[0].selected == [0, 1]
        for gain in gains:
            assert gain[2] < min(0.0, gain[0], gain[1])


class TestPoisonedLabels:
    """A poisoner's flipped labels are drawn for every round when its
    population is built, and each round trains on a label block of its own
    (`Population.round_labels`); the population's blocks are never written."""

    def test_buffer_rows_are_the_flips_and_the_population_is_unchanged(self):
        config = small_config(poison_count=3, poison_flip_rate=0.8, rounds=4)
        seed = 6
        population, test = build_population(config, seed)
        counts = population.counts.tolist()
        arrays = (population.design, population.labels, population.flips)

        def snapshot():
            return [a.tobytes() for a in arrays]

        before = snapshot()
        rows = population.labels.shape[2]
        assert population.poisoners.tolist() == [0, 1, 2]
        assert population.honest.tolist() == [False] * 3 + [True] * 5
        assert population.flips.dtype == np.uint8
        assert population.flips.shape == (3, config.rounds, (rows + 7) // 8)
        for j, i in enumerate(population.poisoners.tolist()):
            # A poisoner's packed labels of a round fill its own bytes only.
            assert not np.any(population.flips[j, :, (counts[i] + 7) // 8 :])
        # Complete information: every client accepts, poisoners included.
        params = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, population, test))
        for r in range(config.rounds):
            rep = run_round(state, params.k_select)
            assert len(rep.epsilons) == len(population)
            labels = population.round_labels(r)
            assert labels.shape == population.labels.shape
            for i, (m, honest) in enumerate(zip(counts, population.honest.tolist())):
                row = labels[i, 0]
                expected = population.labels[i, 0, :m]
                if not honest:
                    flips = np.random.default_rng(auction._mix(seed, r, i)).random(m) < 0.8
                    expected = np.where(flips, 1 - expected, expected)
                assert row[:m].tobytes() == expected.tobytes()
                assert not np.any(row[m:])
            assert snapshot() == before
        # A whole cell on a tree of its own writes nothing of the population.
        auction._play(config, _model_tree(config, population, test), params.k_select)
        assert snapshot() == before

    def test_rounds_train_on_their_own_labels(self, monkeypatch):
        """Each round trains with its own round index, so on its own
        labels, and a round's labels keep their values once a later round's
        are made: no round's block is written over by the next."""
        config = small_config(poison_count=3, poison_flip_rate=0.8, rounds=4)
        population, test = build_population(config, seed=6)
        blocks = [population.round_labels(r) for r in range(config.rounds)]
        kept = [block.tobytes() for block in blocks]
        assert len(set(kept)) == config.rounds
        for r in range(config.rounds):
            assert population.round_labels(r).tobytes() == kept[r]
            assert not np.shares_memory(blocks[r], population.labels)
        assert [block.tobytes() for block in blocks] == kept
        trained = []

        def spied(weights, population, *args, round_num):
            trained.append(round_num)
            return local_train(weights, population, *args, round_num=round_num)

        monkeypatch.setattr(auction, "local_train", spied)
        auction._play(config, _model_tree(config, population, test), 4)
        assert trained == list(range(config.rounds))

    def test_a_round_past_the_drawn_flips_raises(self):
        # The flips were drawn for rounds 0 and 1: a third round, or a
        # negative one that numpy would read from the end, names both.
        config = small_config(poison_count=2, rounds=2)
        population, test = build_population(config, seed=4)
        state = _fresh_state(config, _model_tree(config, population, test))
        for _ in range(config.rounds):
            run_round(state, 4)
        drawn = r"were drawn for rounds 0\.\.1 \(2 rounds\)"
        with pytest.raises(ValueError, match=rf"round 2 has no flipped labels: .*{drawn}"):
            run_round(state, 4)
        for r in (-1, -2, 2, 3):
            with pytest.raises(ValueError, match=rf"round {r} has no .*{drawn}"):
                population.round_labels(r)

    def test_an_honest_round_needs_no_buffer(self):
        # An honest population trains every round on its own label block,
        # with no copy of it.
        config = small_config()
        population, _ = build_population(config, seed=2)
        assert not len(population.poisoners)
        for r in range(config.rounds):
            assert population.round_labels(r) is population.labels

    def test_zero_rounds_draw_no_flips(self):
        config = small_config(
            rounds=0, poison_count=3, tamper_alphas=[0.5], tamper_betas=[2.0]
        )
        population, _ = build_population(config, seed=6)
        assert population.poisoners.tolist() == [0, 1, 2]
        rows = population.labels.shape[2]
        assert population.flips.shape == (3, 0, (rows + 7) // 8)
        tables = run_tables(config)
        assert tables[:3] == ([], [], [])
        assert [row["mean_utility"] for row in tables.robustness] == [0.0]

    def test_a_repeated_seed_draws_the_same_flips(self):
        config = small_config(poison_count=3, seeds=[6, 6])
        (a, _), (b, _) = build_population(config, 6), build_population(config, 6)
        assert len(a.poisoners) == 3
        assert a.flips.tobytes() == b.flips.tobytes()
        rows = run_tables(config).rounds
        for k, mechanism in itertools.product(config.k_values, config.mechanisms):
            cell = [r for r in rows if (r["k"], r["mechanism"]) == (k, mechanism)]
            assert cell[: config.rounds] == cell[config.rounds :]


def reference_bid_rounds(config, mechanism, k, seed):
    """The earlier pay-as-bid and uniform baseline rounds, kept as an oracle:
    every client bids its cost times a margin drawn in population order, the
    k cheapest (ties by id) or k uniformly drawn clients win, and each
    winner is paid its bid. Returns the target output and each round's
    winners' contracts, in the winner rule's order."""
    population, _ = build_population(config, seed)
    params = MarketParams(config.lam, config.delta, config.n_clients, k)
    thetas = population.thetas.tolist()
    target_q = statistics.median(solve_complete(theta, params).q for theta in thetas)
    rounds = []
    for r in range(config.rounds):
        rng = np.random.default_rng((seed, r))
        prices = {
            i: cost(target_q, theta, config.delta) * (1.0 + 0.3 * rng.random())
            for i, theta in enumerate(thetas)
        }
        if mechanism == "price-first":
            winners = sorted(prices, key=lambda i: (prices[i], i))[:k]
        else:
            draw = np.random.default_rng(auction._mix(seed, r, 99))
            winners = sorted(draw.choice(sorted(prices), size=k, replace=False).tolist())
        rounds.append({i: Contract(target_q, prices[i]) for i in winners})
    return target_q, rounds


def bid_cell(config, population, rule, seed):
    """`run_cell`'s rows at the config's k on the seed's bid book
    (`_prices`), with `rule` as the winner rule, and every round as the rule
    played it: the bids it was handed, their payoffs in the book, and the
    winners it picked, in its order."""
    _, book = auction._prices(config, population, seed, True)
    handed = []

    def spy(bids, k, rule_seed):
        handed.append((bids, rule(bids, k, rule_seed)))
        return handed[-1][1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(auction.MECHANISMS, "price-first", spy)
        rows = run_cell("price-first", config.k_values[0], seed, book)
    assert [bids for bids, _ in handed] == [bids for bids, _ in book] and len(rows) == len(book)
    return [(bids, payoffs, winners) for (_, winners), (bids, payoffs) in zip(handed, book)], rows


def target_output(config, population):
    """The baselines' target: the median complete-information output."""
    params = MarketParams(config.lam, config.delta, config.n_clients, config.k_values[0])
    return statistics.median(solve_complete(t, params).q for t in population.thetas.tolist())


def _equal_theta_population(n, theta=0.5):
    return generate_population([theta] * n, seed=0)[0]


def equal_theta_config(n, k):
    """A one-round, baseline-only config of n clients at k."""
    return small_config(n_clients=n, k_values=[k], rounds=1, mechanisms=["price-first"])


def _spied(rule, seen):
    """`rule`, recording the bids it was handed into `seen`."""

    def spy(bids, k, seed):
        seen.update(enumerate(bids))
        return rule(bids, k, seed)

    return spy


def _never_below_cost(rule):
    """Five rounds of `rule` over spread thetas: each of the k winners is
    contracted for the target output, and its payment covers its cost of
    it, so its utility is nonnegative."""
    thetas = [0.1, 0.5, 0.9, 1.0]
    population, _ = generate_population(thetas, seed=0)
    config = small_config(n_clients=4, k_values=[2], rounds=5, mechanisms=["price-first"])
    target_q = target_output(config, population)
    rounds, _ = bid_cell(config, population, rule, seed=6)
    for bids, payoffs, winners in rounds:
        assert len(winners) == 2
        for i in winners:
            contract = Contract(target_q, bids[i])
            assert payoffs[i] == config.lam * target_q - bids[i]
            assert contract.r >= cost(target_q, thetas[i], 2.0)
            assert client_utility(contract, thetas[i], 2.0) >= 0.0


class TestBidRound:
    @pytest.mark.parametrize("mechanism", ["price-first", "randomized"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [2, 5, 8])  # k < n and k = n
    def test_run_cell_matches_the_reference_rounds(self, mechanism, seed, k):
        config = small_config(rounds=4, k_values=[k], seeds=[seed], mechanisms=[mechanism])
        population, _ = build_population(config, seed)
        target_q, rounds = reference_bid_rounds(config, mechanism, k, seed)
        params = MarketParams(config.lam, config.delta, config.n_clients, k)
        assert target_output(config, population) == target_q
        played, _ = bid_cell(config, population, auction.MECHANISMS[mechanism], seed)
        # Each winner, in the rule's order, is contracted for the target
        # output at its bid, and the book holds that contract's payoff.
        assert [
            {i: Contract(target_q, bids[i]) for i in winners} for bids, _, winners in played
        ] == rounds
        assert [winners for *_, winners in played] == [list(c) for c in rounds]
        assert [[payoffs[i] for i in winners] for _, payoffs, winners in played] == [
            [server_utility_per_client(c, params) for c in won.values()] for won in rounds
        ]
        expected = [
            {"mechanism": mechanism, "k": k, "seed": seed, "round": r,
             "server_utility": sum(server_utility_per_client(c, params) for c in won.values()),
             "accuracy": None, "n_selected": k}
            for r, won in enumerate(rounds)
        ]
        _, book = auction._prices(config, population, seed, True)
        assert run_cell(mechanism, k, seed, book) == expected
        assert run_tables(config).rounds == expected

    @pytest.mark.parametrize(
        "mechanisms, costed",
        [(list(auction.MECHANISMS), True), (["ours-complete", "ours-incomplete"], False)],
        ids=["with-baselines", "ours-only"],
    )
    def test_each_seed_costs_each_client_once(self, monkeypatch, mechanisms, costed):
        calls = []

        def counted(q, theta, delta):
            calls.append(theta)
            return cost(q, theta, delta)

        monkeypatch.setattr(auction, "cost", counted)
        config = small_config(seeds=[1, 0, 1], k_values=[2, 4], mechanisms=mechanisms)
        run_tables(config)
        # Every (k, baseline) cell of a seed bids on one set of costs.
        thetas = [t for seed in (1, 0) for t in build_population(config, seed)[0].thetas.tolist()]
        assert calls == (thetas if costed else [])

    @pytest.mark.parametrize(
        "mechanisms, solved",
        [
            (list(auction.MECHANISMS), ["complete", "incomplete"]),
            (["ours-incomplete", "randomized"], ["incomplete", "complete"]),
            (["price-first"], ["complete"]),
            (["ours-incomplete"], ["incomplete"]),
        ],
        ids=["all", "baseline-without-ours-complete", "baseline-only", "ours-only"],
    )
    def test_each_seed_solves_each_regime_once(self, monkeypatch, mechanisms, solved):
        """The baselines' target output is read from the complete contracts
        that `_offers` solves for the seed, whether `ours-complete` is listed
        or not, so no client's contract is solved twice in one regime."""
        calls = []

        def counted(solver, regime):
            def call(theta, params):
                calls.append((regime, theta))
                return solver(theta, params)

            return call

        # Wherever a solver is bound, so that a direct call is counted too.
        for module in (mechanism_module, auction):
            for regime in ("complete", "incomplete"):
                solver = getattr(module, f"solve_{regime}", None)
                if solver is not None:
                    monkeypatch.setattr(module, f"solve_{regime}", counted(solver, regime))
        config = small_config(seeds=[1, 0, 1], k_values=[2, 4], mechanisms=mechanisms)
        run_tables(config)
        assert calls == [
            (regime, theta)
            for seed in (1, 0)
            for regime in solved
            for theta in build_population(config, seed)[0].thetas.tolist()
        ]


class TestPriceFirst:
    def test_lowest_bids_win_and_are_paid(self):
        assert _cheapest([5.0, 3.0, 7.0], 2, 0) == [1, 0]
        config = small_config(n_clients=10, rounds=2, mechanisms=["price-first"])
        population, _ = build_population(config, 2)
        seen = {}
        params = MarketParams(1.0, 2.0, 10, 4)
        target_q = target_output(config, population)
        rounds, rows = bid_cell(config, population, _spied(_cheapest, seen), 2)
        _, payoffs, winners = rounds[1]
        assert len(seen) == 10 and len(winners) == 4
        # The winners come cheapest first, and each is paid its bid.
        assert winners == sorted(winners, key=lambda i: (seen[i], i))
        losers = set(seen) - set(winners)
        assert max(seen[i] for i in winners) <= min(seen[i] for i in losers)
        assert [payoffs[i] for i in winners] == [
            server_utility_per_client(Contract(target_q, seen[i]), params) for i in winners
        ]
        assert _server_utility(winners, payoffs) == sum(target_q - seen[i] for i in winners)
        assert rows[1]["server_utility"] == _server_utility(winners, payoffs)

    def test_equal_bids_tie_break_by_id(self):
        assert _cheapest([2.0, 2.0, 2.0], 2, 0) == [0, 1]

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_cheapest([1.0, 2.0, 3.0], 3, 0)) == [0, 1, 2]
        population = _equal_theta_population(5)
        [(_, _, winners)], _ = bid_cell(equal_theta_config(5, 5), population, _cheapest, 3)
        assert sorted(winners) == list(range(5))

    def test_cost_anchored_bids_never_pay_below_cost(self):
        _never_below_cost(_cheapest)


class TestRandomized:
    def test_seed_determinism(self):
        bids = [1.0] * 5
        assert _uniform(bids, 2, 4) == _uniform(bids, 2, 4)
        population = _equal_theta_population(5)
        config = equal_theta_config(5, 2)
        assert bid_cell(config, population, _uniform, 4) == bid_cell(
            config, population, _uniform, 4
        )

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_uniform([1.0] * 5, 5, 1)) == list(range(5))
        population = _equal_theta_population(5)
        [(_, _, winners)], _ = bid_cell(equal_theta_config(5, 5), population, _uniform, 1)
        assert sorted(winners) == list(range(5))

    def test_winners_never_paid_below_cost(self):
        _never_below_cost(_uniform)

    def test_uniform_win_frequency(self):
        bids = [1.0] * 5
        wins = np.zeros(5)
        trials = 2000
        for seed in range(trials):
            for i in _uniform(bids, 2, seed):
                wins[i] += 1
        p = 2 / 5
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(wins / trials - p) <= 3 * sigma)


class TestExperimentHarness:
    def test_each_distinct_seed_builds_one_population(self, monkeypatch, tmp_path):
        built, freed, alive = [], [], []

        def counting(config, seed):
            # Whether every earlier seed's population was freed by now.
            freed.append(all(ref() is None for ref in alive))
            built.append(seed)
            population, test = build_population(config, seed)
            alive.append(weakref.ref(population))
            return population, test

        monkeypatch.setattr(auction, "build_population", counting)
        config = small_config(
            rounds=1,
            seeds=[1, 0, 1],
            k_values=[2, 4],
            tamper_alphas=[0.5],
            tamper_betas=[2.0],
            ledger_modes=["chained", "vulnerable"],
        )
        # A run builds each distinct seed's population once, and runs the
        # grid, the first seed's reputation trace and the tamper grid on it.
        calls = counting_run_round(monkeypatch)
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_clients = 8\nk_select = 2, 4\nrounds = 1\nseeds = 1, 0, 1\n"
            "theta_min = 0.2\ntheta_max = 1.0\nlocal_epochs = 2\nlearning_rate = 0.5\n"
            "tamper_alphas = 0.5\ntamper_betas = 2.0\nledger_modes = chained, vulnerable\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert parse_config(path).digest() == config.digest()
        assert cli.main(["run", str(path)]) == 0
        assert built == [1, 0] and freed == [True, True]
        # Per distinct seed: one shared ours-* trajectory per k and one
        # tamper cell per ledger mode; then the trace's own cell.
        assert len(calls) == 2 * (2 + 2) + 1

    def test_rows_keep_k_mechanism_seed_order(self):
        config = small_config(rounds=2, seeds=[1, 0, 1], k_values=[2, 4])
        rows, summary, *_ = run_tables(config)
        cells = [
            key
            for key, _ in itertools.groupby(
                rows, key=lambda r: (r["k"], r["mechanism"], r["seed"])
            )
        ]
        assert cells == list(
            itertools.product(config.k_values, config.mechanisms, config.seeds)
        )
        # A repeated seed repeats its rows.
        for k, mechanism in itertools.product(config.k_values, config.mechanisms):
            cell = [r for r in rows if (r["k"], r["mechanism"]) == (k, mechanism)]
            assert cell[:2] == cell[4:]
        assert [(r["mechanism"], r["k"]) for r in summary] == [
            (m, k) for k in config.k_values for m in config.mechanisms
        ]

    @pytest.mark.parametrize(
        "mechanisms", [["ours-complete"], list(auction.MECHANISMS)], ids=["one-ours", "all"]
    )
    def test_each_seed_solves_each_offer_once(self, monkeypatch, mechanisms):
        solved = []

        def counted(theta, params):
            solved.append(params.regime)
            return solve(theta, params)

        monkeypatch.setattr(auction, "solve", counted)
        config = small_config(
            seeds=[1, 0],
            mechanisms=mechanisms,
            tamper_alphas=[0.5],
            tamper_betas=[2.0],
            ledger_modes=["chained", "vulnerable"],
        )
        tables = run_tables(config)
        assert tables.reputation and len(tables.robustness) == 2
        # The grid, the trace and both tamper cells share each seed's offers.
        regimes = [auction.MECHANISMS[m] for m in config.mechanisms_ours()]
        assert solved == [r for _ in config.seeds for r in regimes for _ in range(config.n_clients)]

    def test_every_table_value_is_a_builtin_scalar(self):
        # The oracle compares tables with `==`, which a numpy scalar passes
        # (np.float64(0.5) == 0.5), but the CSV writer would write its repr,
        # `np.float64(0.5)`, instead of the number.
        config = small_config(
            rounds=2, poison_count=2, tamper_alphas=[0.5], tamper_betas=[2.0],
            ledger_modes=["chained", "vulnerable"],
        )
        tables = run_tables(config)
        assert all(tables)
        types = {type(v) for table in tables for row in table for v in row.values()}
        assert types <= {int, float, str, type(None)}, types

    def test_zero_rounds_yields_empty_outputs(self):
        config = small_config(rounds=0)
        assert run_tables(config) == ([], [], [], [])

    def test_end_to_end_determinism(self):
        config = small_config(rounds=2, seeds=[0])
        assert run_tables(config) == run_tables(config)

    def test_summary_shape(self):
        config = small_config(rounds=1, seeds=[0])
        summary = run_tables(config).summary
        assert len(summary) == 4  # one row per mechanism at the single k
        assert {row["mechanism"] for row in summary} == {
            "ours-complete",
            "ours-incomplete",
            "price-first",
            "randomized",
        }
        # One seed's total has no spread.
        assert all(row["std_utility"] == 0.0 for row in summary)

    def test_reputation_trace_covers_all_clients_each_round(self):
        config = small_config(rounds=2, poison_count=2, seeds=[1, 0])
        rows = run_tables(config).reputation
        assert len(rows) == 2 * config.n_clients
        behaviors = {r["client"]: r["behavior"] for r in rows}
        assert behaviors[0] == behaviors[1] == "poisoner"
        assert behaviors[5] == "honest"
        # The trace is the first listed seed's.
        assert rows == run_tables(dataclasses.replace(config, seeds=[1])).reputation
        assert rows != run_tables(dataclasses.replace(config, seeds=[0])).reputation

    def test_poisoners_sink_below_honest(self):
        config = small_config(
            n_clients=10,
            k_values=[6],
            rounds=5,
            poison_count=2,
            poison_flip_rate=0.9,
            theta_min=0.5,
        )
        rows = run_tables(config).reputation
        final = {r["client"]: r["epsilon"] for r in rows if r["round"] == 4}
        poisoners = [final[c] for c in (0, 1)]
        honest = [final[c] for c in range(2, 10)]
        assert max(poisoners) < min(honest)

    def test_robustness_grid_shape(self):
        config = small_config(
            rounds=2,
            seeds=[0],
            tamper_alphas=[0.5],
            tamper_betas=[2.0],
            ledger_modes=["chained", "vulnerable"],
        )
        rows = run_tables(config).robustness
        assert len(rows) == 2
        assert {r["ledger_mode"] for r in rows} == {"chained", "vulnerable"}



def reference_tables(config, played=None):
    """run_tables' four tables with every cell played alone, in plain loops.

    For every listed seed, repeats included, each (k, mechanism) cell, the
    reputation trace (the first seed's first `ours-*` mechanism at the first
    k) and each tamper cell (every seed's, the same mechanism and k, attacked
    after every round) builds a fresh population. An `ours-*` cell solves
    its own offer and plays on its own fresh state and `ModelTree`, pricing
    each round itself; a baseline cell is `reference_bid_rounds`. If
    `played` is given, each `ours-*` cell appends (kind, seed, its rounds'
    selections) to it, kind being "grid", "trace" or "tamper".
    """
    played = [] if played is None else played
    agg = AggregationConfig(
        config.aggregation, config.local_epochs, config.learning_rate, config.prox_mu
    )
    stores = {"chained": HashChainLedger, "vulnerable": PlainStore}

    def market(k, mechanism):
        row = auction.MECHANISMS[mechanism]
        regime = row if isinstance(row, Regime) else Regime.COMPLETE
        return MarketParams(config.lam, config.delta, config.n_clients, k, regime)

    def play(kind, seed, k, mechanism, mode="chained", tamper=None):
        """An `ours-*` cell's population, reports and per-round utilities."""
        population, test = build_population(config, seed)
        params = market(k, mechanism)
        contracts = {i: solve(theta, params) for i, theta in enumerate(population.thetas.tolist())}
        state = SimulationState(
            ModelTree(population, agg, test, config.lam, config.delta),
            ledger=stores[mode](),
            rep_params=ReputationParams(config.w1, config.w2),
            trust_policy=config.trust_policy,
        )
        reports, utilities = [], []
        for _ in range(config.rounds):
            rep = run_round(state, k)
            reports.append(rep)
            utilities.append(
                sum(server_utility_per_client(contracts[i], params) for i in rep.selected)
            )
            if tamper is not None:
                tamper_attack(state.ledger, tamper)
        played.append((kind, seed, [rep.selected for rep in reports]))
        return population, reports, utilities

    rounds, summary = [], []
    if config.rounds:
        for k in config.k_values:
            for mechanism in config.mechanisms:
                totals = []
                for seed in config.seeds:
                    if isinstance(auction.MECHANISMS[mechanism], Regime):
                        _, reports, utilities = play("grid", seed, k, mechanism)
                        cell = [
                            (rep.round, u, rep.accuracy_global, len(rep.selected))
                            for rep, u in zip(reports, utilities)
                        ]
                    else:
                        params = market(k, mechanism)
                        _, won = reference_bid_rounds(config, mechanism, k, seed)
                        cell = [
                            (r, sum(server_utility_per_client(c, params) for c in w.values()),
                             None, len(w))
                            for r, w in enumerate(won)
                        ]
                    for r, utility, accuracy, n_selected in cell:
                        rounds.append(
                            {"mechanism": mechanism, "k": k, "seed": seed, "round": r,
                             "server_utility": utility, "accuracy": accuracy,
                             "n_selected": n_selected}
                        )
                    totals.append(sum(utility for _, utility, _, _ in cell))
                summary.append(
                    {"mechanism": mechanism, "k": k, "mean_utility": statistics.fmean(totals),
                     "std_utility": statistics.pstdev(totals)}
                )

    trace = []
    first = config.mechanisms_ours()[:1]
    if config.rounds and first:
        population, reports, _ = play("trace", config.seeds[0], config.k_values[0], first[0])
        trace = [
            {"round": rep.round, "client": i, "epsilon": rep.epsilons[i],
             "behavior": "honest" if honest else "poisoner"}
            for rep in reports
            for i, honest in enumerate(population.honest.tolist())
        ]

    robustness = []
    for alpha in config.tamper_alphas:
        for beta in config.tamper_betas:
            for mode in config.ledger_modes:
                totals = [
                    sum(play("tamper", seed, config.k_values[0], first[0], mode,
                             TamperConfig(alpha, beta, seed))[2])
                    for seed in config.seeds
                ]
                robustness.append(
                    {"alpha": alpha, "beta": beta, "ledger_mode": mode,
                     "mean_utility": statistics.fmean(totals)}
                )
    return auction.Tables(rounds, summary, trace, robustness)


def counting_run_round(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(auction, "run_round", counted)
    return calls


SHARED_TRAJECTORY_CONFIGS = pytest.mark.parametrize(
    "overrides",
    [
        dict(aggregation=Aggregator.FEDAVG),
        dict(aggregation=Aggregator.FEDPROX, prox_mu=0.1, poison_count=2, trust_policy="zero"),
        dict(aggregation=Aggregator.SCAFFOLD, poison_count=2, trust_policy="last_valid"),
    ],
    ids=["fedavg", "fedprox-poisoners-zero", "scaffold-poisoners-last_valid"],
)


class TestSharedTrajectory:
    """Every client accepts every `ours-*` offer, so the regimes play one
    trajectory of rounds and differ only in pricing; each must equal its
    cell played alone by `reference_tables`."""

    @SHARED_TRAJECTORY_CONFIGS
    def test_equals_each_regime_played_alone(self, overrides):
        config = small_config(rounds=3, seeds=[1, 0, 1], k_values=[2, 4], **overrides)
        reference = reference_tables(config).rounds
        for seed in dict.fromkeys(config.seeds):
            population, test = build_population(config, seed)
            payoffs, _ = auction._prices(config, population, seed, False)
            for k in config.k_values:
                tree = _model_tree(config, population, test)
                shared = auction._ours_cells(config, k, seed, tree, payoffs)
                alone = {
                    m: [r for r in reference if (r["k"], r["mechanism"], r["seed"]) == (k, m, seed)]
                    for m in config.mechanisms_ours()
                }
                # A repeated seed's cell is listed once per repeat.
                assert shared == {m: rows[: config.rounds] for m, rows in alone.items()}
                complete, incomplete = shared["ours-complete"], shared["ours-incomplete"]
                for a, b in zip(complete, incomplete):
                    assert (a["round"], a["accuracy"], a["n_selected"]) == (
                        b["round"], b["accuracy"], b["n_selected"]
                    )
                    assert a["mechanism"] != b["mechanism"]
                    assert a["server_utility"] != b["server_utility"]

    @SHARED_TRAJECTORY_CONFIGS
    def test_trace_and_tamper_cells_equal_cells_played_alone(self, overrides):
        config = small_config(
            rounds=3, seeds=[1, 0, 1], k_values=[2, 4], tamper_alphas=[0.25, 0.5],
            tamper_betas=[2.0], ledger_modes=["chained", "vulnerable"], **overrides,
        )
        tables = run_tables(config)
        assert len(tables.robustness) == 4
        assert tables == reference_tables(config)

    def test_each_seed_attacks_its_tamper_cells_with_its_own_seed(self, monkeypatch):
        # The seed only breaks ties among equal reputations, which these
        # cells never hold, so no table shows it: the attacks are recorded.
        attacks = []

        def recorded(store, cfg):
            attacks.append((cfg, type(store)))
            return tamper_attack(store, cfg)

        monkeypatch.setattr(auction, "tamper_attack", recorded)
        config = small_config(
            rounds=2, seeds=[1, 0, 1], k_values=[2, 4], tamper_alphas=[0.25, 0.5],
            tamper_betas=[2.0, 3.0], ledger_modes=["chained", "vulnerable"],
        )
        run_tables(config)
        assert attacks == [
            (TamperConfig(alpha, beta, seed), auction.STORES[mode])
            for seed in (1, 0)
            for alpha in config.tamper_alphas
            for beta in config.tamper_betas
            for mode in config.ledger_modes
            for _ in range(config.rounds)
        ]

    def test_one_trajectory_per_seed_and_k(self, monkeypatch):
        config = small_config(seeds=[0])
        calls = counting_run_round(monkeypatch)
        run_tables(config)
        # The grid's one shared trajectory, then the reputation trace's cell,
        # each at the config's one k.
        assert calls == [4] * config.rounds * 2

    def test_an_offer_below_participation_stops_the_run(self, monkeypatch, tmp_path):
        config = small_config(seeds=[0], poison_count=2, output_dir=str(tmp_path / "out"))
        population, _ = build_population(config, 0)
        rejected = population.thetas.tolist()[3]

        def underpaying(theta, params):
            # The incomplete regime pays client 3 nothing, so it would decline.
            contract = solve(theta, params)
            if params.regime is Regime.INCOMPLETE and theta == rejected:
                return dataclasses.replace(contract, r=0.0)
            return contract

        monkeypatch.setattr(auction, "solve", underpaying)
        calls = counting_run_round(monkeypatch)
        with pytest.raises(RuntimeError, match=r"incomplete.*\[3\]"):
            run_tables(config)
        assert calls == []
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_clients = 8\nk_select = 4\nrounds = 3\nseeds = 0\npoison_count = 2\n"
            "theta_min = 0.2\ntheta_max = 1.0\nlocal_epochs = 2\nlearning_rate = 0.5\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert parse_config(path).digest() == config.digest()
        assert cli.main(["run", str(path)]) == 1
        assert list((tmp_path / "out").iterdir()) == []


@st.composite
def small_configs(draw):
    """Small validated configs over every axis run_tables shares work on."""
    n = draw(st.integers(1, 6))
    mechanisms = draw(
        st.lists(st.sampled_from(list(auction.MECHANISMS)), min_size=1, max_size=4, unique=True)
    )
    ours = any(isinstance(auction.MECHANISMS[m], Regime) for m in mechanisms)
    side = draw(st.sampled_from([0, 1, 2] if ours else [0]))  # the tamper grid is side x side
    return small_config(
        n_clients=n,
        k_values=draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True)),
        rounds=draw(st.integers(0, 3)),
        seeds=draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)),
        aggregation=draw(st.sampled_from(list(Aggregator))),
        prox_mu=0.1,
        poison_count=draw(st.integers(0, n)),
        mechanisms=mechanisms,
        tamper_alphas=draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=side,
                                    max_size=side, unique=True)),
        tamper_betas=draw(st.lists(st.sampled_from([1.5, 3.0]), min_size=side, max_size=side,
                                   unique=True)),
        ledger_modes=draw(st.permutations(["chained", "vulnerable"])),
        trust_policy=draw(st.sampled_from(TRUST_POLICIES)),
    )


class TestWholeRunOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(config=small_configs())
    def test_run_tables_equals_every_cell_played_alone(self, config):
        tables = run_tables(config)
        assert tables == reference_tables(config)
        assert run_tables(config) == tables


def _local_train_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return local_train(*args, **kwargs)

    monkeypatch.setattr(auction, "local_train", counted)
    return calls


class TestModelTree:
    """A seed's cells share one tree of model states keyed by selection
    history, so each history's round is trained once."""

    CONFIG = dict(
        aggregation=Aggregator.SCAFFOLD, poison_count=2, rounds=3, seeds=[1, 0, 1],
        k_values=[2, 4], tamper_alphas=[0.25, 0.5], tamper_betas=[2.0],
    )

    def test_each_history_trains_once(self, monkeypatch):
        config = small_config(**self.CONFIG)
        played = []
        expected = reference_tables(config, played)
        calls = _local_train_calls(monkeypatch)
        assert run_tables(config) == expected

        def nodes(cells):
            """Each (seed, selections so far) a round is played from."""
            return {
                (seed, tuple(map(tuple, selections[:r])))
                for _, seed, selections in cells
                for r in range(len(selections))
            }

        every = nodes(played)
        assert len(calls) == len(every)
        # Cells do share training, and the trace replays only known nodes.
        assert len(every) < sum(len(selections) for _, _, selections in played)
        assert nodes(cell for cell in played if cell[0] != "trace") == every

    def test_the_trace_cell_trains_nothing(self, monkeypatch):
        config = small_config(**self.CONFIG)
        population, test = build_population(config, 1)
        tree = _model_tree(config, population, test)
        prices = auction._prices(config, population, 1, True)
        auction._grid_cells(config, 1, tree, *prices)
        calls = _local_train_calls(monkeypatch)
        assert auction._trace_rows(config, tree)
        assert calls == []

    def test_the_trace_cell_scores_nothing(self, monkeypatch):
        config = small_config(**self.CONFIG)
        population, test = build_population(config, 1)
        tree = _model_tree(config, population, test)
        prices = auction._prices(config, population, 1, True)
        scored = []
        monkeypatch.setattr(
            auction, "banzhaf_exact", lambda *args: scored.append(args) or banzhaf_exact(*args)
        )
        auction._grid_cells(config, 1, tree, *prices)
        assert scored
        scored.clear()
        assert auction._trace_rows(config, tree)
        assert scored == []

    def test_a_new_selection_from_a_known_node_evaluates_one_row(self, monkeypatch):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, population, test)
        first = _fresh_state(config, tree)
        run_round(first, 4)
        evaluated = []

        def counted(weights, data):
            evaluated.append(weights.copy())
            return evaluate_accuracy(weights, data)

        monkeypatch.setattr(auction, "evaluate_accuracy", counted)
        calls = _local_train_calls(monkeypatch)
        second = _fresh_state(config, tree)
        rep = run_round(second, 2)
        # The root is known, so the second cell's new selection is
        # aggregated from its stored local models and only the new global
        # model is evaluated.
        assert rep.selected == [0, 1] and second.node is not first.node
        assert calls == [] and len(evaluated) == 1
        assert evaluated[0].tobytes() == second.node.weights[None].tobytes()
        # It plays exactly as a cell on a tree of its own.
        alone = _fresh_state(config, _model_tree(config, population, test))
        assert played([run_round(alone, 2)]) == played([rep])
        assert alone.node.weights.tobytes() == second.node.weights.tobytes()
        # A third cell repeating the selection evaluates nothing new.
        evaluated.clear()
        third = _fresh_state(config, tree)
        assert played([run_round(third, 2)]) == played([rep])
        assert third.node is second.node and evaluated == [] and len(calls) == 1

    def test_nodes_are_read_only(self):
        config = small_config(aggregation=Aggregator.SCAFFOLD, poison_count=2)
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, population, test)
        state = _fresh_state(config, tree)
        first, second = (run_round(state, 4).selected for _ in range(2))
        (child,) = tree.root.children.values()
        for node in (tree.root, child, state.node):
            arrays = [node.weights, node.server_variate, node.variates]
            if node is not state.node:  # a node whose round was played
                arrays += [node.local_weights, node.local_variates, node.zetas]
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                node.variates[0] = np.zeros(21)

        def committed(node):
            """The clients whose row of c_i is not zero."""
            return np.flatnonzero(np.any(node.variates != 0.0, axis=1)).tolist()

        # A round commits its variates into the child, not the node it left,
        # and the child keeps the variates of the clients it did not select.
        assert tree.root.variates.shape == (8, 21) and committed(tree.root) == []
        assert committed(child) == sorted(first) == [0, 1, 2, 3]
        assert set(second) != set(first)
        assert committed(state.node) == sorted(set(first) | set(second))
        for i in set(first) - set(second):
            assert state.node.variates[i].tobytes() == child.variates[i].tobytes()
        # The selected rows are the c_i+ proposed in the round each child
        # was reached by.
        for parent, node, selected in ((tree.root, child, first), (child, state.node, second)):
            assert node.variates[selected].tobytes() == parent.local_variates[selected].tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(n_clients=1, k_values=[1], poison_count=1),
            dict(n_clients=13, k_values=[3, 5], poison_count=4, theta_min=0.0),
            dict(n_clients=40, k_values=[10], theta_min=1.0),
        ],
        ids=["8-clients", "1-client", "13-clients", "40-equal-clients"],
    )
    def test_client_ids_are_population_rows(self, overrides):
        """`_child` reads a client's local model and variates by its id, so
        every client's id is its row of each of the population's arrays: its
        theta drawn in id order, and the first poison_count are the
        poisoners."""
        config = small_config(**overrides)
        n = config.n_clients
        for seed in (0, 7):
            population, _ = build_population(config, seed)
            assert len(population) == n
            arrays = (population.thetas, population.counts, population.design, population.labels)
            assert [len(a) for a in arrays] == [n] * 4
            draws = np.random.default_rng(seed).random(n)
            thetas = config.theta_min + (config.theta_max - config.theta_min) * draws
            assert population.thetas.tolist() == thetas.tolist()
            assert population.poisoners.tolist() == list(range(config.poison_count))

    def test_a_lone_state_has_a_root_of_its_own(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        a, b = (_fresh_state(config, _model_tree(config, population, test)) for _ in range(2))
        assert a.node is not b.node
        assert played([run_round(a, 4)]) == played([run_round(b, 4)])
        assert a.node is not b.node


class TestNodeScoring:
    """A node's realized values and Banzhaf indices are fixed once it is
    trained, so its first visit scores it and every cell reads its zetas."""

    def test_cells_with_different_k_append_one_nodes_zetas(self, monkeypatch):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, population, test)
        scored = []
        monkeypatch.setattr(
            auction, "banzhaf_exact", lambda *args: scored.append(args) or banzhaf_exact(*args)
        )
        wide, narrow = (_fresh_state(config, tree) for _ in range(2))
        run_round(wide, 4)
        run_round(narrow, 2)
        # Both rounds start at the root, which the first one scored.
        assert wide.node is not narrow.node and len(scored) == 1
        appended = (np.array([r.zeta for r in s.ledger.records]) for s in (wide, narrow))
        assert next(appended).tobytes() == next(appended).tobytes() == tree.root.zetas.tobytes()
        # Each cell updates its own reputations from them.
        alone = _fresh_state(config, _model_tree(config, population, test))
        run_round(alone, 2)
        assert alone.ledger.records == narrow.ledger.records

    def test_zetas_are_read_only(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, population, test)
        assert tree.root.zetas is None
        run_round(_fresh_state(config, tree), 4)
        assert tree.root.zetas.shape == (8,)
        with pytest.raises(ValueError, match="read-only"):
            tree.root.zetas[0] = 1.0


class TestMechanismTable:
    @pytest.mark.parametrize("mechanism", list(auction.MECHANISMS))
    def test_each_name_validates_and_runs_a_round(self, mechanism):
        config = small_config(rounds=1, seeds=[0], mechanisms=[mechanism])
        population, test = build_population(config, 0)
        rows = run_tables(config).rounds
        assert [(r["mechanism"], r["k"], r["seed"], r["round"]) for r in rows] == [
            (mechanism, 4, 0, 0)
        ]
        assert rows[0]["n_selected"] == 4
        row = auction.MECHANISMS[mechanism]
        ours = isinstance(row, Regime)
        assert config.mechanisms_ours() == ([mechanism] if ours else [])
        if ours:
            # The round's top 4 are priced with the regime's own contracts.
            params = MarketParams(config.lam, config.delta, config.n_clients, 4, row)
            contracts = [solve(theta, params) for theta in population.thetas.tolist()]
            state = _fresh_state(config, _model_tree(config, population, test))
            selected = run_round(state, params.k_select).selected
            assert rows[0]["server_utility"] == _server_utility(
                selected, _payoffs(contracts, params)
            )
            assert 0.0 <= rows[0]["accuracy"] <= 1.0
        else:
            # A baseline round trains nothing.
            assert rows[0]["accuracy"] is None

    def test_baseline_rows_hold_their_winner_rules(self):
        baselines = {m: row for m, row in auction.MECHANISMS.items() if not isinstance(row, Regime)}
        assert baselines == {"price-first": _cheapest, "randomized": _uniform}

    def test_default_mechanisms_are_the_table_in_order(self):
        assert ExperimentConfig().mechanisms == list(auction.MECHANISMS)


class TestLedgerEpsilon:
    def test_unknown_client_defaults_to_zero(self):
        assert ledger_epsilon(HashChainLedger(), 0) == 0.0

    def test_zero_policy_discards_tampered_clients(self):
        ledger = HashChainLedger()
        ledger.append(0, 0, 0.1, 0.4)
        ledger.append(1, 0, 0.1, 0.6)
        tamper_attack(ledger, TamperConfig(1.0, 2.0, seed=0))
        assert ledger_epsilon(ledger, 0, policy="zero") == 0.0
        assert ledger_epsilon(ledger, 0, policy="last_valid") == 0.4

    def test_clean_ledger_returns_latest(self):
        ledger = HashChainLedger()
        ledger.append(0, 3, 0.1, 0.4)
        ledger.append(1, 3, 0.2, 0.7)
        assert ledger_epsilon(ledger, 3) == 0.7

    @settings(max_examples=150, deadline=None)
    @given(
        store_cls=st.sampled_from([HashChainLedger, PlainStore]),
        appends=appends,
        edits=edits,
    )
    def test_matches_the_two_read_composition(self, store_cls, appends, edits):
        store = store_cls()
        rnd = 0
        for client, step, zeta, eps in appends:
            rnd += step
            store.append(rnd, client, zeta, eps)
        for edit in edits:
            _apply(store.records, edit)
        for policy in TRUST_POLICIES:
            for client in range(6):
                assert ledger_epsilon(store, client, policy) == reference_ledger_epsilon(
                    store, client, policy
                )

    @staticmethod
    def _long_history(tampered=0):
        """Chain where client 0 holds 30 records, interleaved with client 1's;
        the newest `tampered` of client 0's have their epsilon edited."""
        ledger = HashChainLedger()
        for r in range(30):
            ledger.append(r, 0, 0.1, 0.01 * r)
            ledger.append(r, 1, 0.2, 0.5)
        for i in range(tampered):
            ledger.records[2 * (29 - i)].epsilon = 9.0
        return ledger

    def test_clean_last_valid_read_hashes_one_record(self):
        ledger = self._long_history()
        assert _hash_calls(ledger_epsilon, ledger, 0, "last_valid") == (0.01 * 29, 1)

    @pytest.mark.parametrize("tampered", [1, 5, 29])
    def test_last_valid_read_hashes_the_tampered_tail_and_one_more(self, tampered):
        ledger = self._long_history(tampered)
        expected = 0.01 * (29 - tampered)
        assert _hash_calls(ledger_epsilon, ledger, 0, "last_valid") == (expected, tampered + 1)

    def test_zero_read_hashes_the_whole_history(self):
        ledger = self._long_history()
        assert _hash_calls(ledger_epsilon, ledger, 0, "zero") == (0.01 * 29, 30)


def reference_ledger_epsilon(store, client_id, policy):
    """The earlier composition of the two reads, kept as an oracle: the
    whole-history read first, then the last-valid fallback if it failed."""
    try:
        eps, trusted = store.read_reputation(client_id)
    except UnknownClientError:
        return 0.0
    if trusted:
        return eps
    if policy == "last_valid":
        fallback = store.read_last_valid(client_id)
        return fallback if fallback is not None else 0.0
    return 0.0
