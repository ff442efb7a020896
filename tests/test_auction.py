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
    RoundReport,
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
    _offer,
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
    cost,
    server_utility_per_client,
    solve,
    solve_complete,
)
from flmarket.reputation import additive_utility, banzhaf_mc


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
    state = SimulationState(agg=AggregationConfig(local_epochs=2), test=test)
    return population, params, state


class TestRunRound:
    def test_single_top_type_client_fixture(self):
        population, params, state = single_client_setup()
        report = run_round(population, params, state, _offer(population, params))
        assert report.selected == [0]
        assert report.payments[0] == pytest.approx(0.75, abs=1e-12)
        assert report.server_utility == pytest.approx(0.75, abs=1e-12)

    def test_complete_information_contracts_all_accepted(self):
        config = small_config()
        population, test = build_population(config, seed=3)
        params = MarketParams(1.0, 2.0, 8, 8, Regime.COMPLETE)
        state = _fresh_state(config, test)
        report = run_round(population, params, state, _offer(population, params))
        # Zero-rent contracts meet the participation bound, so with k = n
        # every client is selected.
        assert sorted(report.selected) == list(range(8))

    def test_cold_start_selection_is_id_ordered(self):
        config = small_config(n_clients=10, k_values=[3])
        population, test = build_population(config, seed=1)
        params = MarketParams(1.0, 2.0, 10, 3, Regime.COMPLETE)
        state = _fresh_state(config, test)
        report = run_round(population, params, state, _offer(population, params))
        assert report.selected == [0, 1, 2]

    def test_budget_identity(self):
        config = small_config()
        population, test = build_population(config, seed=5)
        thetas = {c.id: c.theta for c in population}
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.3, 2.0, 8, 4, regime)
            state = _fresh_state(config, test)
            offer = _offer(population, params)
            for _ in range(2):
                rep = run_round(population, params, state, offer)
                lhs = rep.server_utility + sum(rep.client_utilities.values())
                rhs = sum(
                    params.lam * rep.contracts[i].q
                    - cost(rep.contracts[i].q, thetas[i], params.delta)
                    for i in rep.selected
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_no_selected_client_has_negative_utility(self):
        config = small_config(theta_min=0.0)
        population, test = build_population(config, seed=9)
        for regime in (Regime.COMPLETE, Regime.INCOMPLETE):
            params = MarketParams(1.0, 2.0, 8, 5, regime)
            state = _fresh_state(config, test)
            offer = _offer(population, params)
            for _ in range(3):
                rep = run_round(population, params, state, offer)
                assert all(u >= 0.0 for u in rep.client_utilities.values())

    def test_regime_dominance_every_round(self):
        config = small_config(rounds=4)
        population, test = build_population(config, seed=7)
        params_ci = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        params_in = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state_ci = _fresh_state(config, test)
        state_in = _fresh_state(config, test)
        offer_ci = _offer(population, params_ci)
        offer_in = _offer(population, params_in)
        for _ in range(4):
            u_ci = run_round(population, params_ci, state_ci, offer_ci).server_utility
            u_in = run_round(population, params_in, state_in, offer_in).server_utility
            assert u_ci >= u_in - 1e-12

    def test_empty_population_rejected(self):
        params = MarketParams(1.0, 2.0, 1, 1)
        _, test = generate_population(1, [0.5], seed=0)
        state = SimulationState(agg=AggregationConfig(), test=test)
        with pytest.raises(ValueError):
            run_round([], params, state, _offer([], params))

    def test_determinism(self):
        config = small_config()
        population, test = build_population(config, seed=11)
        reports_a = run_cell(config, "ours-incomplete", 4, 11, population, test)
        # A population that already ran a cell runs the next one unchanged.
        reports_b = run_cell(config, "ours-incomplete", 4, 11, population, test)
        reports_c = run_cell(config, "ours-incomplete", 4, 11, *build_population(config, 11))
        for reports in (reports_b, reports_c):
            assert [r.server_utility for r in reports] == [
                r.server_utility for r in reports_a
            ]
            assert [r.selected for r in reports] == [r.selected for r in reports_a]
            assert [r.epsilons for r in reports] == [r.epsilons for r in reports_a]

    def test_each_model_is_evaluated_once(self, monkeypatch):
        """One evaluation per round scores every accepted client's local
        model, in order, and then the new global model, each exactly once."""
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=3)
        state = _fresh_state(config, test)
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
        offer = _offer(population, params)
        for r in range(3):
            rep = run_round(population, params, state, offer)
            assert len(evaluated) == len(trained) == r + 1
            models = [m.weights for m in trained[r]] + [state.model.weights]
            assert len(models) == len(rep.realized_q) + 1
            assert evaluated[r].tobytes() == np.stack(models).tobytes()
            assert state.accuracy == rep.accuracy_global
            assert state.accuracy == evaluate_accuracy(state.model.weights[None], test)[0]

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
        state = _fresh_state(config, test)
        rep = run_round(population, params, state, _offer(population, params))
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
        state = _fresh_state(config, test)
        rep = run_round(population, params, state, _offer(population, params))
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
        state = SimulationState(agg=cfg, test=test)
        model = state.model
        rep = run_round(population, params, state, _offer(population, params))
        assert len(rep.realized_q) == 6 and len(rep.selected) == 2
        proposed = local_train(model, datasets, cfg, np.zeros(21), {})
        # Only the selected clients hold a variate: the c_i+ they proposed.
        assert sorted(state.variates) == sorted(rep.selected)
        for i in rep.selected:
            assert np.array_equal(state.variates[i], proposed[i].variate)
        # c <- c + (1/N) * sum over S of (c_i+ - c_i), from c = c_i = 0.
        expected = sum(proposed[i].variate for i in rep.selected) / len(population)
        assert np.allclose(state.server_variate, expected, rtol=0.0, atol=1e-12)

    def test_epsilons_are_what_the_ledger_holds(self):
        config = small_config(poison_count=2)
        population, test = build_population(config, seed=4)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.INCOMPLETE)
        state = _fresh_state(config, test)
        offer = _offer(population, params)
        for _ in range(3):
            rep = run_round(population, params, state, offer)
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
        state = SimulationState(agg=AggregationConfig(**agg), test=test)
        offer = _offer(population, params)
        reports = [run_round(population, params, state, offer) for _ in range(rounds)]
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
    population is built, and each round writes its row into the state's
    label buffer; the population's blocks are never written."""

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
        state = _fresh_state(config, test)
        offer = _offer(population, params)
        for r in range(config.rounds):
            rep = run_round(population, params, state, offer)
            assert len(rep.realized_q) == len(population)
            for c, d in zip(population, datasets):
                row = state.poisoned_labels[d.row, 0]
                expected = d.labels
                if not c.honest:
                    flips = np.random.default_rng(auction._mix(seed, r, c.id)).random(len(d)) < 0.8
                    expected = np.where(flips, 1 - d.labels, d.labels)
                assert row[: len(d)].tobytes() == expected.tobytes()
                assert not np.any(row[len(d):])
            assert snapshot() == before
        run_cell(config, "ours-complete", 4, seed, population, test)
        assert snapshot() == before

    def test_an_honest_round_needs_no_buffer(self):
        config = small_config()
        population, test = build_population(config, seed=2)
        state = _fresh_state(config, test)
        params = MarketParams(1.0, 2.0, 8, 4, Regime.COMPLETE)
        run_round(population, params, state, _offer(population, params))
        assert state.poisoned_labels is None

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
    winner is paid its bid."""
    population, _ = build_population(config, seed)
    params = MarketParams(config.lam, config.delta, config.n_clients, k)
    thetas = {c.id: c.theta for c in population}
    target_q = statistics.median(solve_complete(c.theta, params).q for c in population)
    reports = []
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
        contracts = {i: Contract(target_q, prices[i]) for i in winners}
        reports.append(
            RoundReport(
                round=r,
                selected=winners,
                contracts=contracts,
                realized_q={i: target_q for i in winners},
                payments={i: prices[i] for i in winners},
                server_utility=sum(
                    server_utility_per_client(c, params) for c in contracts.values()
                ),
                client_utilities={
                    i: prices[i] - cost(target_q, thetas[i], config.delta) for i in winners
                },
                epsilons={},
            )
        )
    return reports


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
    """Five rounds of `rule` over spread thetas: every winner's payment
    covers its cost, and its utility is exactly the difference."""
    thetas = [0.1, 0.5, 0.9, 1.0]
    datasets, _ = generate_population(4, thetas, seed=0)
    population = [ClientProfile(i, t, d) for i, (t, d) in enumerate(zip(thetas, datasets))]
    params = MarketParams(1.0, 2.0, 4, 2)
    for r in range(5):
        rep = _bid_round(population, rule, 1.2, params, seed=6, round_num=r)
        for i in rep.selected:
            assert rep.payments[i] >= cost(1.2, thetas[i], 2.0)
            assert rep.client_utilities[i] == rep.payments[i] - cost(1.2, thetas[i], 2.0)


class TestBidRound:
    @pytest.mark.parametrize("mechanism", ["price-first", "randomized"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [2, 5])
    def test_run_cell_matches_the_reference_rounds(self, mechanism, seed, k):
        config = small_config(rounds=4, k_values=[k])
        population, test = build_population(config, seed)
        reports = run_cell(config, mechanism, k, seed, population, test)
        assert reports == reference_bid_rounds(config, mechanism, k, seed)


class TestPriceFirst:
    def test_lowest_bids_win_and_are_paid(self):
        assert _cheapest({0: 5.0, 1: 3.0, 2: 7.0}, 2, 0) == [1, 0]
        config = small_config(n_clients=10)
        population, _ = build_population(config, 2)
        seen = {}
        rep = _bid_round(
            population, _spied(_cheapest, seen), 1.0, MarketParams(1.0, 2.0, 10, 4), 2, 1
        )
        assert len(seen) == 10 and len(rep.selected) == 4
        losers = set(seen) - set(rep.selected)
        assert max(seen[i] for i in rep.selected) <= min(seen[i] for i in losers)
        assert rep.payments == {i: seen[i] for i in rep.selected}
        assert rep.contracts == {i: Contract(1.0, seen[i]) for i in rep.selected}
        assert rep.server_utility == sum(1.0 - seen[i] for i in rep.selected)

    def test_equal_bids_tie_break_by_id(self):
        assert _cheapest({2: 2.0, 0: 2.0, 1: 2.0}, 2, 0) == [0, 1]

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_cheapest({0: 1.0, 1: 2.0, 2: 3.0}, 3, 0)) == [0, 1, 2]
        population = _equal_theta_population(5)
        rep = _bid_round(population, _cheapest, 1.0, MarketParams(1.0, 2.0, 5, 5), 3, 0)
        assert sorted(rep.selected) == list(range(5))

    def test_cost_anchored_bids_never_pay_below_cost(self):
        _never_below_cost(_cheapest)


class TestRandomized:
    def test_seed_determinism(self):
        bids = dict.fromkeys(range(5), 1.0)
        assert _uniform(bids, 2, 4) == _uniform(bids, 2, 4)
        population = _equal_theta_population(5)
        params = MarketParams(1.0, 2.0, 5, 2)
        assert _bid_round(population, _uniform, 1.0, params, 4, 0) == _bid_round(
            population, _uniform, 1.0, params, 4, 0
        )

    def test_everyone_wins_when_k_equals_population(self):
        assert sorted(_uniform(dict.fromkeys(range(5), 1.0), 5, 1)) == list(range(5))
        population = _equal_theta_population(5)
        rep = _bid_round(population, _uniform, 1.0, MarketParams(1.0, 2.0, 5, 5), 1, 0)
        assert sorted(rep.selected) == list(range(5))

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



def oracle_rows(config):
    """run_tables' grid rows with every cell played on its own by run_cell."""
    populations = {seed: build_population(config, seed) for seed in set(config.seeds)}
    return [
        {"mechanism": mechanism, "k": k, "seed": seed, "round": rep.round,
         "server_utility": rep.server_utility, "accuracy": rep.accuracy_global,
         "n_selected": len(rep.selected)}
        for k in config.k_values
        for mechanism in config.mechanisms
        for seed in config.seeds
        for rep in run_cell(config, mechanism, k, seed, *populations[seed])
    ]


def counting_run_round(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].regime)
        return run_round(*args, **kwargs)

    monkeypatch.setattr(auction, "run_round", counted)
    return calls


class TestSharedTrajectory:
    """Regimes that accept the same clients play one trajectory of rounds
    and differ only in pricing; each must equal its own run_cell."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(aggregation=Aggregator.FEDAVG),
            dict(aggregation=Aggregator.FEDPROX, prox_mu=0.1, poison_count=2, trust_policy="zero"),
            dict(aggregation=Aggregator.SCAFFOLD, poison_count=2, trust_policy="last_valid"),
        ],
        ids=["fedavg", "fedprox-poisoners-zero", "scaffold-poisoners-last_valid"],
    )
    def test_equals_each_regime_played_alone(self, overrides):
        config = small_config(rounds=3, seeds=[1, 0, 1], k_values=[2, 4], **overrides)
        rows = run_tables(config).rounds
        assert rows == oracle_rows(config)
        for seed in dict.fromkeys(config.seeds):
            population, test = build_population(config, seed)
            for k in config.k_values:
                shared = auction._ours_cells(config, k, seed, population, test)
                alone = {
                    m: run_cell(config, m, k, seed, population, test)
                    for m in config.mechanisms_ours()
                }
                assert shared == alone
                complete, incomplete = shared["ours-complete"], shared["ours-incomplete"]
                for a, b in zip(complete, incomplete):
                    assert (a.selected, a.accuracy_global, a.epsilons) == (
                        b.selected, b.accuracy_global, b.epsilons
                    )
                    assert a.contracts != b.contracts and a.payments != b.payments
                    assert a.server_utility != b.server_utility

    def test_equal_accepted_sets_play_one_trajectory(self, monkeypatch):
        config = small_config(seeds=[0])
        calls = counting_run_round(monkeypatch)
        run_tables(config)
        # The grid's one shared trajectory, then the reputation trace's cell.
        assert calls == [Regime.COMPLETE] * config.rounds * 2

    def test_a_differing_accepted_set_plays_its_own(self, monkeypatch):
        config = small_config(seeds=[0], poison_count=2)
        population, test = build_population(config, 0)
        rejected = population[3]

        def underpaying(theta, params):
            # The incomplete regime pays client 3 nothing, so it declines.
            contract = solve(theta, params)
            if params.regime is Regime.INCOMPLETE and theta == rejected.theta:
                return dataclasses.replace(contract, r=0.0)
            return contract

        monkeypatch.setattr(auction, "solve", underpaying)
        calls = counting_run_round(monkeypatch)
        rows = run_tables(config).rounds
        # The grid's two trajectories, then the reputation trace's cell.
        assert calls == (
            [Regime.COMPLETE] * config.rounds + [Regime.INCOMPLETE] * config.rounds
            + [Regime.COMPLETE] * config.rounds
        )
        assert rows == oracle_rows(config)
        alone = {m: run_cell(config, m, 4, 0, population, test) for m in config.mechanisms_ours()}
        assert auction._ours_cells(config, 4, 0, population, test) == alone
        assert any(rejected.id in rep.epsilons for rep in alone["ours-complete"])
        assert all(rejected.id not in rep.epsilons for rep in alone["ours-incomplete"])


class TestMechanismTable:
    @pytest.mark.parametrize("mechanism", list(auction.MECHANISMS))
    def test_each_name_validates_and_runs_a_round(self, mechanism):
        config = small_config(rounds=1, seeds=[0], mechanisms=[mechanism])
        population, test = build_population(config, 0)
        reports = run_cell(config, mechanism, 4, 0, population, test)
        assert [rep.round for rep in reports] == [0]
        row = auction.MECHANISMS[mechanism]
        ours = isinstance(row, Regime)
        assert config.mechanisms_ours() == ([mechanism] if ours else [])
        if ours:
            params = MarketParams(config.lam, config.delta, config.n_clients, 4, row)
            assert reports[0].contracts == {c.id: solve(c.theta, params) for c in population}
        else:
            # A baseline round scores nobody and contracts only its winners.
            assert reports[0].epsilons == {}
            assert sorted(reports[0].contracts) == sorted(reports[0].selected)
            assert len(reports[0].selected) == 4

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
