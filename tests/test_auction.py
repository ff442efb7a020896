import dataclasses
import itertools
import statistics
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ledger import _apply, _hash_calls, appends, edits

from flmarket import auction, cli, reputation
from flmarket.auction import (
    TRUST_POLICIES,
    ClientProfile,
    ModelTree,
    build_population,
    ledger_epsilon,
    run_cell,
    run_round,
    run_tables,
    SimulationState,
    _banzhaf_contributions,
    _bid_round,
    _cheapest,
    _flipped_labels,
    _fresh_state,
    _model_tree,
    _offer,
    _server_utility,
    _uniform,
    realized_value,
)
from flmarket.config import ExperimentConfig, parse_config
from flmarket.flsim import (
    AggregationConfig,
    Aggregator,
    ModelParams,
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
from flmarket.reputation import ReputationParams, additive_utility, banzhaf_mc


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
    datasets, test = generate_population(1, [theta], seed=0)
    population = [ClientProfile(0, theta, datasets[0])]
    params = MarketParams(1.0, 2.0, 1, 1, regime)
    state = SimulationState(ModelTree(AggregationConfig(local_epochs=2), test))
    return population, params, state


class TestRunRound:
    def test_single_top_type_client_fixture(self):
        population, params, state = single_client_setup()
        contracts = _offer(population, params)
        report = run_round(population, params, state)
        assert report.selected == [0]
        assert contracts[0].r == pytest.approx(0.75, abs=1e-12)
        assert _server_utility(report.selected, contracts, params) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_complete_information_contracts_all_accepted(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        params = MarketParams(1.0, 2.0, 8, 8, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, test))
        report = run_round(population, params, state)
        # Zero-rent contracts meet the participation bound, so with k = n
        # every client is selected.
        assert sorted(report.selected) == list(range(8))

    def test_cold_start_selection_is_id_ordered(self):
        config = small_config(n_clients=10, k_values=[3])
        population, test = build_population(config, seed=1)
        params = MarketParams(1.0, 2.0, 10, 3, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, test))
        report = run_round(population, params, state)
        assert report.selected == [0, 1, 2]

    def test_budget_identity(self):
        config = small_config()
        population, test = build_population(config, seed=5)
        thetas = {c.id: c.theta for c in population}
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.3, 2.0, 8, 4, regime)
            state = _fresh_state(config, _model_tree(config, test))
            contracts = _offer(population, params)
            for _ in range(2):
                rep = run_round(population, params, state)
                lhs = _server_utility(rep.selected, contracts, params) + sum(
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
        thetas = {c.id: c.theta for c in population}
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.0, 2.0, 8, 5, regime)
            state = _fresh_state(config, _model_tree(config, test))
            contracts = _offer(population, params)
            for _ in range(3):
                rep = run_round(population, params, state)
                assert all(
                    client_utility(contracts[i], thetas[i], params.delta) >= 0.0
                    for i in rep.selected
                )

    def test_regime_dominance_every_round(self):
        config = small_config(rounds=4)
        population, test = build_population(config, seed=7)
        params_ci = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        params_in = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state = _fresh_state(config, _model_tree(config, test))
        offer_ci = _offer(population, params_ci)
        offer_in = _offer(population, params_in)
        # Both regimes price the one trajectory every client accepts.
        for _ in range(4):
            selected = run_round(population, params_ci, state).selected
            u_ci = _server_utility(selected, offer_ci, params_ci)
            u_in = _server_utility(selected, offer_in, params_in)
            assert u_ci >= u_in - 1e-12

    def test_empty_population_rejected(self):
        params = MarketParams(1.0, 2.0, 1, 1)
        _, test = generate_population(1, [0.5], seed=0)
        state = SimulationState(ModelTree(AggregationConfig(), test))
        with pytest.raises(ValueError):
            run_round([], params, state)

    def test_determinism(self):
        config = small_config()
        population, test = build_population(config, seed=11)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        reports_a = auction._play(config, population, _model_tree(config, test), params)
        # A population that already played a cell plays the next one unchanged.
        assert auction._play(config, population, _model_tree(config, test), params) == reports_a
        fresh_population, fresh_test = build_population(config, 11)
        fresh_tree = _model_tree(config, fresh_test)
        assert auction._play(config, fresh_population, fresh_tree, params) == reports_a

    def test_each_model_is_evaluated_once(self, monkeypatch):
        """One evaluation per round scores every accepted client's local
        model, in order, and then the new global model, each exactly once."""
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        state = _fresh_state(config, _model_tree(config, test))
        evaluated, trained = [], []

        def counted(weights, data):
            evaluated.append(weights.copy())
            return evaluate_accuracy(weights, data)

        def spied(*args):
            trained.append(local_train(*args))
            return trained[-1]

        monkeypatch.setattr(auction, "evaluate_accuracy", counted)
        monkeypatch.setattr(auction, "local_train", spied)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        for r in range(3):
            rep = run_round(population, params, state)
            assert len(evaluated) == len(trained) == r + 1
            models = [m.weights for m in trained[r]] + [state.node.weights]
            assert len(models) == len(rep.realized_q) + 1
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
        state = _fresh_state(config, _model_tree(config, test))
        rep = run_round(population, params, state)
        assert len(rep.epsilons) == n
        assert calls == [path]
        rows = n << (n - 1)
        assert evals == [rows, rows]

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
        state = _fresh_state(config, _model_tree(config, test))
        rep = run_round(population, params, state)
        assert len(state.ledger.records) == n
        zetas = {r.client_id: r.zeta for r in state.ledger.records}
        assert sorted(zetas) == sorted(rep.realized_q) == list(range(n))
        for c in population:
            value = realized_value(rep.realized_q[c.id], c.theta, params)
            assert struct.pack("<d", zetas[c.id]) == struct.pack("<d", value)

    def test_scaffold_commits_only_the_aggregated_clients(self):
        # Complete information: all six clients accept, and k = 2 are aggregated.
        thetas = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        datasets, test = generate_population(6, thetas, seed=23)
        population = [ClientProfile(i, t, d) for i, (t, d) in enumerate(zip(thetas, datasets))]
        params = MarketParams(1.0, 2.0, 6, 2, Regime.COMPLETE)
        cfg = AggregationConfig(Aggregator.SCAFFOLD, local_epochs=3, learning_rate=0.5)
        state = SimulationState(ModelTree(cfg, test))
        model = ModelParams(state.node.weights)
        rep = run_round(population, params, state)
        assert len(rep.realized_q) == 6 and len(rep.selected) == 2
        proposed = local_train(model, datasets, cfg, np.zeros(21), {})
        # Only the selected clients hold a variate: the c_i+ they proposed.
        assert sorted(state.node.variates) == sorted(rep.selected)
        for i in rep.selected:
            assert np.array_equal(state.node.variates[i], proposed[i].variate)
        # c <- c + (1/N) * sum over S of (c_i+ - c_i), from c = c_i = 0.
        expected = sum(proposed[i].variate for i in rep.selected) / len(population)
        assert np.allclose(state.node.server_variate, expected, rtol=0.0, atol=1e-12)

    def test_epsilons_are_what_the_ledger_holds(self):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=4)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state = _fresh_state(config, _model_tree(config, test))
        for _ in range(3):
            rep = run_round(population, params, state)
            # Every accepted client is scored, so every one has a new record.
            assert set(rep.epsilons) == set(rep.realized_q)
            for i, eps in rep.epsilons.items():
                assert eps == ledger_epsilon(state.ledger, i)


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
        game = dict(enumerate(values))
        seeds = [seed + p for p in range(n)]
        mc = banzhaf_mc(additive_utility(game), n, 64, seeds)
        zetas = _banzhaf_contributions(game)
        assert sorted(zetas) == list(range(n))
        assert np.allclose([zetas[p] for p in range(n)], mc, rtol=0.0, atol=1e-12)


class TestRealizedContribution:
    """`RoundReport.realized_q`: each accepted client's test-accuracy gain
    over the global model it started the round from."""

    def _run(self, rounds, thetas, seed, poisoned=(), **agg):
        datasets, test = generate_population(len(thetas), thetas, seed=seed)
        population = [
            ClientProfile(
                i, t, d,
                _flipped_labels(d, PoisonConfig(1.0), seed, i, rounds) if i in poisoned else None,
            )
            for i, (t, d) in enumerate(zip(thetas, datasets))
        ]
        params = MarketParams(1.0, 2.0, len(thetas), 2)
        state = SimulationState(ModelTree(AggregationConfig(**agg), test))
        reports = [run_round(population, params, state) for _ in range(rounds)]
        return population, test, reports

    def test_identical_models_contribute_zero(self):
        _, _, reports = self._run(2, [0.5, 0.8, 1.0], 14, learning_rate=0.0)
        for rep in reports:
            assert rep.realized_q == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_is_a_plain_accuracy_difference(self):
        cfg = dict(local_epochs=50, learning_rate=1.0)
        population, test, (rep,) = self._run(1, [1.0, 1.0], 15, **cfg)
        for c in population:
            local = local_train(init_model(), [c.dataset], AggregationConfig(**cfg))[0]
            acc, start = evaluate_accuracy(np.stack([local.weights, init_model().weights]), test)
            assert rep.realized_q[c.id] == pytest.approx(acc - start, abs=1e-15)

    def test_fully_poisoned_local_model_contributes_negatively(self):
        # Cold start selects clients 0 and 1, so the second round starts
        # from a model trained on clean data only.
        _, _, reports = self._run(
            2, [1.0, 1.0, 1.0], 16, poisoned=(2,), local_epochs=50, learning_rate=1.0
        )
        assert reports[0].selected == [0, 1]
        for rep in reports:
            assert rep.realized_q[2] < min(0.0, rep.realized_q[0], rep.realized_q[1])


class TestPoisonedLabels:
    """A poisoner's flipped labels are drawn for every round when its
    population is built, and each round that trains writes its row into its
    tree's label buffer; the population's blocks are never written."""

    def test_buffer_rows_are_the_flips_and_the_population_is_unchanged(self):
        config = small_config(poison_count=3, poison_flip_rate=0.8, rounds=4)
        seed = 6
        population, test = build_population(config, seed)
        datasets = [c.dataset for c in population]
        blocks = datasets[0].block, datasets[0].label_block

        def snapshot():
            return [a.tobytes() for a in blocks] + [d.labels.tobytes() for d in datasets]

        before = snapshot()
        for c, d in zip(population, datasets):
            if not c.honest:
                assert c.flipped_labels.dtype == np.uint8
                assert c.flipped_labels.shape == (config.rounds, (len(d) + 7) // 8)
        # Complete information: every client accepts, poisoners included.
        params = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        state = _fresh_state(config, _model_tree(config, test))
        for r in range(config.rounds):
            rep = run_round(population, params, state)
            assert len(rep.realized_q) == len(population)
            for c, d in zip(population, datasets):
                row = state.tree.poisoned_labels[d.row, 0]
                expected = d.labels
                if not c.honest:
                    flips = np.random.default_rng(auction._mix(seed, r, c.id)).random(len(d)) < 0.8
                    expected = np.where(flips, 1 - d.labels, d.labels)
                assert row[: len(d)].tobytes() == expected.tobytes()
                assert not np.any(row[len(d):])
            assert snapshot() == before
        # A whole cell on a tree of its own writes only that tree's buffer.
        auction._play(config, population, _model_tree(config, test), params)
        assert snapshot() == before

    def test_an_honest_round_needs_no_buffer(self):
        config = small_config()
        population, test = build_population(config, seed=2)
        state = _fresh_state(config, _model_tree(config, test))
        params = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        run_round(population, params, state)
        assert state.tree.poisoned_labels is None

    def test_zero_rounds_draw_no_flips(self):
        config = small_config(
            rounds=0, poison_count=3, tamper_alphas=[0.5], tamper_betas=[2.0]
        )
        population, _ = build_population(config, seed=6)
        poisoners = [c for c in population if not c.honest]
        assert len(poisoners) == 3
        for c in poisoners:
            assert c.flipped_labels.shape == (0, (len(c.dataset) + 7) // 8)
        tables = run_tables(config)
        assert tables[:3] == ([], [], [])
        assert [row["mean_utility"] for row in tables.robustness] == [0.0]

    def test_a_repeated_seed_draws_the_same_flips(self):
        config = small_config(poison_count=3, seeds=[6, 6])
        (a, _), (b, _) = build_population(config, 6), build_population(config, 6)
        assert [c.flipped_labels.tobytes() for c in a if not c.honest] == [
            c.flipped_labels.tobytes() for c in b if not c.honest
        ]
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
    target_q = statistics.median(solve_complete(c.theta, params).q for c in population)
    rounds = []
    for r in range(config.rounds):
        rng = np.random.default_rng((seed, r))
        prices = {
            c.id: cost(target_q, c.theta, config.delta) * (1.0 + 0.3 * rng.random())
            for c in population
        }
        if mechanism == "price-first":
            winners = sorted(prices, key=lambda i: (prices[i], i))[:k]
        else:
            draw = np.random.default_rng(auction._mix(seed, r, 99))
            winners = sorted(draw.choice(sorted(prices), size=k, replace=False).tolist())
        rounds.append({i: Contract(target_q, prices[i]) for i in winners})
    return target_q, rounds


def bid_round(population, rule, target_q, params, seed, round_num):
    """`_bid_round` on the population's costs of `target_q`."""
    costs = {c.id: cost(target_q, c.theta, params.delta) for c in population}
    return _bid_round(costs, rule, target_q, params, seed, round_num)


def _equal_theta_population(n, theta=0.5):
    datasets, _ = generate_population(n, [theta] * n, seed=0)
    return [ClientProfile(i, theta, d) for i, d in enumerate(datasets)]


def _spied(rule, seen):
    """`rule`, recording the bids it was handed into `seen`."""

    def spy(bids, k, seed):
        seen.update(bids)
        return rule(bids, k, seed)

    return spy


def _never_below_cost(rule):
    """Five rounds of `rule` over spread thetas: each of the k winners is
    contracted for the target output, and its payment covers its cost of
    it, so its utility is nonnegative."""
    thetas = [0.1, 0.5, 0.9, 1.0]
    datasets, _ = generate_population(4, thetas, seed=0)
    population = [ClientProfile(i, t, d) for i, (t, d) in enumerate(zip(thetas, datasets))]
    params = MarketParams(1.0, 2.0, 4, 2)
    for r in range(5):
        contracts = bid_round(population, rule, 1.2, params, seed=6, round_num=r)
        assert len(contracts) == 2
        for i, contract in contracts.items():
            assert contract.q == 1.2
            assert contract.r >= cost(1.2, thetas[i], 2.0)
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
        played = [
            bid_round(population, auction.MECHANISMS[mechanism], target_q, params, seed, r)
            for r in range(config.rounds)
        ]
        assert played == rounds
        # dict equality ignores order; the winner rule's order is the keys'.
        assert [list(c) for c in played] == [list(c) for c in rounds]
        expected = [
            {"mechanism": mechanism, "k": k, "seed": seed, "round": r,
             "server_utility": sum(server_utility_per_client(c, params) for c in won.values()),
             "accuracy": None, "n_selected": k}
            for r, won in enumerate(rounds)
        ]
        bids = auction._bid_costs(config, population)
        assert bids[0] == target_q
        assert run_cell(config, mechanism, k, seed, *bids) == expected
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
        thetas = [c.theta for seed in (1, 0) for c in build_population(config, seed)[0]]
        assert calls == (thetas if costed else [])


class TestPriceFirst:
    def test_lowest_bids_win_and_are_paid(self):
        assert _cheapest({0: 5.0, 1: 3.0, 2: 7.0}, 2, 0) == [1, 0]
        config = small_config(n_clients=10)
        population, _ = build_population(config, 2)
        seen = {}
        params = MarketParams(1.0, 2.0, 10, 4)
        contracts = bid_round(population, _spied(_cheapest, seen), 1.0, params, 2, 1)
        winners = list(contracts)
        assert len(seen) == 10 and len(winners) == 4
        # The winners come cheapest first, and each is paid its bid.
        assert winners == sorted(winners, key=lambda i: (seen[i], i))
        losers = set(seen) - set(winners)
        assert max(seen[i] for i in winners) <= min(seen[i] for i in losers)
        assert contracts == {i: Contract(1.0, seen[i]) for i in winners}
        assert _server_utility(winners, contracts, params) == sum(1.0 - seen[i] for i in winners)

    def test_equal_bids_tie_break_by_id(self):
        assert _cheapest({2: 2.0, 0: 2.0, 1: 2.0}, 2, 0) == [0, 1]

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_cheapest({0: 1.0, 1: 2.0, 2: 3.0}, 3, 0)) == [0, 1, 2]
        population = _equal_theta_population(5)
        contracts = bid_round(population, _cheapest, 1.0, MarketParams(1.0, 2.0, 5, 5), 3, 0)
        assert sorted(contracts) == list(range(5))

    def test_cost_anchored_bids_never_pay_below_cost(self):
        _never_below_cost(_cheapest)


class TestRandomized:
    def test_seed_determinism(self):
        bids = dict.fromkeys(range(5), 1.0)
        assert _uniform(bids, 2, 4) == _uniform(bids, 2, 4)
        population = _equal_theta_population(5)
        params = MarketParams(1.0, 2.0, 5, 2)
        assert bid_round(population, _uniform, 1.0, params, 4, 0) == bid_round(
            population, _uniform, 1.0, params, 4, 0
        )

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_uniform(dict.fromkeys(range(5), 1.0), 5, 1)) == list(range(5))
        population = _equal_theta_population(5)
        contracts = bid_round(population, _uniform, 1.0, MarketParams(1.0, 2.0, 5, 5), 1, 0)
        assert sorted(contracts) == list(range(5))

    def test_winners_never_paid_below_cost(self):
        _never_below_cost(_uniform)

    def test_uniform_win_frequency(self):
        bids = dict.fromkeys(range(5), 1.0)
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
            alive.append(weakref.ref(population[0]))
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
        contracts = {c.id: solve(c.theta, params) for c in population}
        state = SimulationState(
            ModelTree(agg, test),
            ledger=stores[mode](),
            rep_params=ReputationParams(config.w1, config.w2),
            trust_policy=config.trust_policy,
        )
        reports, utilities = [], []
        for _ in range(config.rounds):
            rep = run_round(population, params, state)
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
            {"round": rep.round, "client": c.id, "epsilon": rep.epsilons[c.id],
             "behavior": "honest" if c.honest else "poisoner"}
            for rep in reports
            for c in population
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
        calls.append(args[1].regime)
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
            offers = auction._offers(config, population)
            for k in config.k_values:
                tree = _model_tree(config, test)
                shared = auction._ours_cells(config, k, seed, population, tree, offers)
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
        # The grid's one shared trajectory, then the reputation trace's cell.
        assert calls == [Regime.COMPLETE] * config.rounds * 2

    def test_an_offer_below_participation_stops_the_run(self, monkeypatch, tmp_path):
        config = small_config(seeds=[0], poison_count=2, output_dir=str(tmp_path / "out"))
        population, _ = build_population(config, 0)
        rejected = population[3]

        def underpaying(theta, params):
            # The incomplete regime pays client 3 nothing, so it would decline.
            contract = solve(theta, params)
            if params.regime is Regime.INCOMPLETE and theta == rejected.theta:
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

    def counted(*args):
        calls.append(args)
        return local_train(*args)

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
        tree = _model_tree(config, test)
        offers = auction._offers(config, population)
        bids = auction._bid_costs(config, population)
        auction._grid_cells(config, 1, population, tree, offers, bids)
        calls = _local_train_calls(monkeypatch)
        assert auction._trace_rows(config, population, tree)
        assert calls == []

    def test_a_new_selection_from_a_known_node_evaluates_one_row(self, monkeypatch):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, test)
        wide, narrow = MarketParams(1.0, 2.0, 8, 4), MarketParams(1.0, 2.0, 8, 2)
        first = _fresh_state(config, tree)
        run_round(population, wide, first)
        evaluated = []

        def counted(weights, data):
            evaluated.append(weights.copy())
            return evaluate_accuracy(weights, data)

        monkeypatch.setattr(auction, "evaluate_accuracy", counted)
        calls = _local_train_calls(monkeypatch)
        second = _fresh_state(config, tree)
        rep = run_round(population, narrow, second)
        # The root is known, so the second cell's new selection is
        # aggregated from its stored local models and only the new global
        # model is evaluated.
        assert rep.selected == [0, 1] and second.node is not first.node
        assert calls == [] and len(evaluated) == 1
        assert evaluated[0].tobytes() == second.node.weights[None].tobytes()
        # It plays exactly as a cell on a tree of its own.
        alone = _fresh_state(config, _model_tree(config, test))
        assert run_round(population, narrow, alone) == rep
        assert alone.node.weights.tobytes() == second.node.weights.tobytes()
        # A third cell repeating the selection evaluates nothing new.
        evaluated.clear()
        third = _fresh_state(config, tree)
        assert run_round(population, narrow, third) == rep
        assert third.node is second.node and evaluated == [] and len(calls) == 1

    def test_nodes_are_read_only(self):
        config = small_config(aggregation=Aggregator.SCAFFOLD, poison_count=2)
        population, test = build_population(config, seed=3)
        tree = _model_tree(config, test)
        state = _fresh_state(config, tree)
        params = MarketParams(1.0, 2.0, 8, 4)
        first, second = (run_round(population, params, state).selected for _ in range(2))
        (child,) = tree.root.children.values()
        for node in (tree.root, child, state.node):
            arrays = [node.weights, node.server_variate, *node.variates.values()]
            if node is not state.node:  # a node whose round was played
                arrays += [node.local_weights, node.local_variates, node.local_accuracies]
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            with pytest.raises(TypeError):
                node.variates[0] = np.zeros(21)
        # A round commits its variates into the child, not the node it left,
        # and the child keeps the variates of the clients it did not select.
        assert len(tree.root.variates) == 0
        assert sorted(child.variates) == sorted(first) == [0, 1, 2, 3]
        assert set(second) != set(first)
        assert sorted(state.node.variates) == sorted(set(first) | set(second))
        for i in set(first) - set(second):
            assert state.node.variates[i] is child.variates[i]

    def test_a_lone_state_has_a_root_of_its_own(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        a, b = (_fresh_state(config, _model_tree(config, test)) for _ in range(2))
        assert a.node is not b.node
        params = MarketParams(1.0, 2.0, 8, 4)
        assert run_round(population, params, a) == run_round(population, params, b)
        assert a.node is not b.node


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
            contracts = {c.id: solve(c.theta, params) for c in population}
            state = _fresh_state(config, _model_tree(config, test))
            selected = run_round(population, params, state).selected
            assert rows[0]["server_utility"] == _server_utility(selected, contracts, params)
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
