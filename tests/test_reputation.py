import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flmarket.reputation import (
    CoalitionMode,
    CoalitionUtility,
    ReputationParams,
    additive_utility,
    banzhaf_exact,
    banzhaf_mc,
    select_top_k,
    update_reputation,
)


def table_utility(values_by_mask, n):
    """Utility backed by a dense table over coalition bitmasks."""

    def evaluate(coalition):
        mask = 0
        for j in coalition:
            mask |= 1 << j
        return values_by_mask[mask]

    return CoalitionUtility(evaluate, CoalitionMode.RETRAIN)


class TestBanzhafExact:
    def test_additive_game_recovers_per_player_values(self):
        u = additive_utility({0: 1.0, 1: 2.0, 2: 3.0})
        assert [banzhaf_exact(u, 3, i) for i in range(3)] == [1.0, 2.0, 3.0]

    def test_two_player_superadditive_example(self):
        # U(empty)=0, U({0})=1, U({1})=1, U({0,1})=4 -> 0.5*[(1-0)+(4-1)] = 2.
        table = {0b00: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 4.0}
        u = table_utility(table, 2)
        assert banzhaf_exact(u, 2, 0) == 2.0
        assert banzhaf_exact(u, 2, 1) == 2.0

    def test_symmetric_players_get_equal_indices(self):
        rng = np.random.default_rng(0)
        n = 5
        # Value depends only on coalition size -> all players symmetric.
        by_size = rng.normal(size=n + 1)

        def evaluate(coalition):
            return by_size[len(coalition)]

        u = CoalitionUtility(evaluate)
        indices = [banzhaf_exact(u, n, i) for i in range(n)]
        assert max(indices) - min(indices) <= 1e-12

    def test_dummy_player_scores_zero(self):
        values = {0: 1.5, 1: -0.5, 2: 0.0, 3: 2.0}
        u = additive_utility(values)
        assert banzhaf_exact(u, 4, 2) == 0.0

    def test_enumeration_guard(self):
        u = additive_utility({i: 1.0 for i in range(21)})
        with pytest.raises(ValueError):
            banzhaf_exact(u, 21, 0)

    def test_additivity_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            values = {i: float(v) for i, v in enumerate(rng.normal(size=n))}
            u = additive_utility(values)
            i = int(rng.integers(n))
            assert banzhaf_exact(u, n, i) == pytest.approx(values[i], abs=1e-9)


class TestBanzhafMc:
    def test_zero_variance_for_additive_games(self):
        values = {0: 0.25, 1: -1.0, 2: 3.5}
        u = additive_utility(values)
        for i in range(3):
            assert banzhaf_mc(u, 3, i, samples=5, seed=7) == pytest.approx(
                values[i], abs=1e-12
            )

    def test_single_sample_replays_the_sampler(self):
        table = np.random.default_rng(5).normal(size=1 << 8)
        u = table_utility(table, 8)
        seed, i = 31, 2
        est = banzhaf_mc(u, 8, i, samples=1, seed=seed)
        rng = np.random.default_rng(seed)
        others = np.array([j for j in range(8) if j != i])
        coalition = frozenset(others[rng.random(7) < 0.5].tolist())
        expected = u.evaluator(coalition | {i}) - u.evaluator(coalition)
        assert est == expected

    def test_many_samples_replay_the_per_sample_sampler(self):
        weights = np.random.default_rng(6).normal(size=40)
        u = CoalitionUtility(
            lambda c: float(sum(weights[j] for j in c)) ** 2, CoalitionMode.RETRAIN
        )
        seed, i, samples = 13, 17, 64
        rng = np.random.default_rng(seed)
        others = np.array([j for j in range(40) if j != i])
        total = 0.0
        for _ in range(samples):
            coalition = frozenset(others[rng.random(39) < 0.5].tolist())
            total += u.evaluator(coalition | {i}) - u.evaluator(coalition)
        assert banzhaf_mc(u, 40, i, samples=samples, seed=seed) == total / samples

    def test_close_to_exact_on_fixture_game(self):
        rng = np.random.default_rng(77)
        table = rng.normal(size=1 << 8)
        u = table_utility(table, 8)
        i = 3
        exact = banzhaf_exact(u, 8, i)
        samples = 10_000
        est = banzhaf_mc(u, 8, i, samples=samples, seed=4)
        # 3 standard errors, with the marginal spread measured by enumeration.
        others = [j for j in range(8) if j != i]
        marginals = []
        for mask in range(1 << 7):
            coalition = frozenset(j for b, j in enumerate(others) if mask >> b & 1)
            marginals.append(u.evaluator(coalition | {i}) - u.evaluator(coalition))
        sigma = float(np.std(marginals))
        assert abs(est - exact) <= 3 * sigma / np.sqrt(samples)

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            banzhaf_mc(additive_utility({0: 1.0, 1: 1.0}), 2, 0, samples=0, seed=0)

    def test_deterministic_given_seed(self):
        table = np.random.default_rng(9).normal(size=1 << 6)
        u = table_utility(table, 6)
        a = banzhaf_mc(u, 6, 1, samples=50, seed=12)
        b = banzhaf_mc(u, 6, 1, samples=50, seed=12)
        assert a == b


class TestUpdateReputation:
    def test_simple_average(self):
        assert update_reputation(0.0, 1.0, ReputationParams(0.5, 0.5)) == 0.5

    def test_weighted_example(self):
        assert update_reputation(0.6, 0.2, ReputationParams(0.8, 0.2)) == pytest.approx(
            0.52, abs=1e-15
        )

    @given(
        x=st.floats(-10, 10),
        w1=st.floats(0.0, 1.0),
    )
    def test_fixed_point(self, x, w1):
        params = ReputationParams(w1, 1.0 - w1)
        assert update_reputation(x, x, params) == pytest.approx(x, abs=1e-12)

    @settings(max_examples=50)
    @given(
        eps0=st.floats(-1, 1),
        zetas=st.lists(st.floats(-0.5, 0.8), min_size=1, max_size=30),
        w1=st.floats(0.0, 1.0),
    )
    def test_boundedness(self, eps0, zetas, w1):
        params = ReputationParams(w1, 1.0 - w1)
        lo = min([eps0] + zetas)
        hi = max([eps0] + zetas)
        eps = eps0
        for z in zetas:
            eps = update_reputation(eps, z, params)
            assert lo - 1e-9 <= eps <= hi + 1e-9

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ReputationParams(0.9, 0.2)


class TestSelectTopK:
    def test_selects_highest_reputation(self):
        assert select_top_k({0: 0.9, 1: 0.1, 2: 0.5}, 2) == [0, 2]

    def test_id_tie_break(self):
        assert select_top_k({0: 0.3, 1: 0.3, 2: 0.3}, 2) == [0, 1]

    def test_full_population_sorted_by_reputation(self):
        assert select_top_k({0: 0.1, 1: 0.7, 2: 0.4}, 3) == [1, 2, 0]

    def test_k_exceeding_population_rejected(self):
        with pytest.raises(ValueError):
            select_top_k({0: 0.0}, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        eps = {i: float(v) for i, v in enumerate(rng.normal(size=20))}
        a = select_top_k(dict(eps), 7)
        b = select_top_k(dict(eps), 7)
        assert a == b

