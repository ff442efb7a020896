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


def mask_index(masks):
    """Bitmask of each membership row: bit j set when column j is."""
    return (masks.astype(np.int64) << np.arange(masks.shape[1])).sum(axis=1)


def table_utility(values_by_mask, n):
    """Utility backed by a dense table (array or dict) over coalition bitmasks."""
    table = np.array([values_by_mask[mask] for mask in range(1 << n)], dtype=float)
    return CoalitionUtility(lambda masks: table[mask_index(masks)], CoalitionMode.RETRAIN)


def row(n, members):
    """One-row membership matrix of the given players."""
    masks = np.zeros((1, n), dtype=bool)
    masks[0, list(members)] = True
    return masks


# The per-coalition primitives the batched ones replaced, kept as the
# reference: an evaluator here takes one frozenset and returns one float.


def reference_exact(evaluate, n, i):
    others = [j for j in range(n) if j != i]
    total = 0.0
    for mask in range(1 << len(others)):
        coalition = frozenset(j for bit, j in enumerate(others) if mask >> bit & 1)
        total += evaluate(coalition | {i}) - evaluate(coalition)
    return total / (1 << len(others))


def reference_mc(evaluate, n, i, samples, seed):
    rng = np.random.default_rng(seed)
    others = np.array([j for j in range(n) if j != i])
    total = 0.0
    for include in rng.random((samples, len(others))) < 0.5:
        coalition = frozenset(others[include].tolist())
        total += evaluate(coalition | {i}) - evaluate(coalition)
    return total / samples


class TestBanzhafExact:
    def test_additive_game_recovers_per_player_values(self):
        u = additive_utility({0: 1.0, 1: 2.0, 2: 3.0})
        assert banzhaf_exact(u, 3).tolist() == [1.0, 2.0, 3.0]

    def test_two_player_superadditive_example(self):
        # U(empty)=0, U({0})=1, U({1})=1, U({0,1})=4 -> 0.5*[(1-0)+(4-1)] = 2.
        table = {0b00: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 4.0}
        u = table_utility(table, 2)
        indices = banzhaf_exact(u, 2)
        assert indices[0] == 2.0
        assert indices[1] == 2.0

    def test_symmetric_players_get_equal_indices(self):
        rng = np.random.default_rng(0)
        n = 5
        # Value depends only on coalition size -> all players symmetric.
        by_size = rng.normal(size=n + 1)

        def evaluate(masks):
            return by_size[masks.sum(axis=1)]

        u = CoalitionUtility(evaluate)
        indices = banzhaf_exact(u, n)
        assert max(indices) - min(indices) <= 1e-12

    def test_dummy_player_scores_zero(self):
        values = {0: 1.5, 1: -0.5, 2: 0.0, 3: 2.0}
        u = additive_utility(values)
        assert banzhaf_exact(u, 4)[2] == 0.0

    def test_enumeration_guard(self):
        u = additive_utility({i: 1.0 for i in range(21)})
        with pytest.raises(ValueError):
            banzhaf_exact(u, 21)
        # The 2^n coalitions and two (n, 2^(n-1)) index arrays are built at
        # once, so the limit is 16 players.
        with pytest.raises(ValueError, match="n <= 16"):
            banzhaf_exact(additive_utility({i: 1.0 for i in range(17)}), 17)

    def test_additivity_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            values = {i: float(v) for i, v in enumerate(rng.normal(size=n))}
            u = additive_utility(values)
            i = int(rng.integers(n))
            assert banzhaf_exact(u, n)[i] == pytest.approx(values[i], abs=1e-9)

    def test_one_evaluator_call_over_every_coalition(self):
        seen = []

        def evaluate(masks):
            seen.append(masks.copy())
            return masks.sum(axis=1).astype(float)

        banzhaf_exact(CoalitionUtility(evaluate), 5)
        (table,) = seen
        # 2^n rows: row s holds the players whose bit is set in s, so each
        # coalition is played once.
        assert table.shape == (32, 5) and table.dtype == bool
        assert mask_index(table).tolist() == list(range(32))

    def test_second_call_returns_bit_identical_indices(self):
        u = table_utility(np.random.default_rng(8).normal(size=1 << 6), 6)
        first = banzhaf_exact(u, 6)
        banzhaf_exact(additive_utility({j: float(j) for j in range(6)}), 6)
        assert banzhaf_exact(u, 6).tobytes() == first.tobytes()

    def test_evaluator_writing_its_membership_rows_raises(self):
        def overwrite(masks):
            masks[:, 0] = True
            return masks.sum(axis=1).astype(float)

        with pytest.raises(ValueError, match="read-only"):
            banzhaf_exact(CoalitionUtility(overwrite), 4)
        # A later call still plays every coalition as it should.
        table = np.random.default_rng(9).normal(size=1 << 4)
        expected = [
            reference_exact(lambda c: table[sum(1 << j for j in c)], 4, i) for i in range(4)
        ]
        assert banzhaf_exact(table_utility(table, 4), 4) == pytest.approx(expected, abs=1e-12)


class TestBanzhafMc:
    def test_zero_variance_for_additive_games(self):
        values = {0: 0.25, 1: -1.0, 2: 3.5}
        u = additive_utility(values)
        for i in range(3):
            assert banzhaf_mc(u, 3, samples=5, seeds=[7] * 3)[i] == pytest.approx(
                values[i], abs=1e-12
            )

    def test_single_sample_replays_the_sampler(self):
        table = np.random.default_rng(5).normal(size=1 << 8)
        u = table_utility(table, 8)
        seed, i = 31, 2
        est = banzhaf_mc(u, 8, samples=1, seeds=[seed] * 8)[i]
        rng = np.random.default_rng(seed)
        others = np.array([j for j in range(8) if j != i])
        coalition = others[rng.random(7) < 0.5].tolist()
        expected = u.evaluator(row(8, coalition + [i]))[0] - u.evaluator(row(8, coalition))[0]
        assert est == expected

    def test_many_samples_replay_the_per_sample_sampler(self):
        weights = np.random.default_rng(6).normal(size=40)
        u = CoalitionUtility(
            lambda masks: np.where(masks, weights, 0.0).sum(axis=1) ** 2,
            CoalitionMode.RETRAIN,
        )
        seed, i, samples = 13, 17, 64
        rng = np.random.default_rng(seed)
        others = np.array([j for j in range(40) if j != i])
        total = 0.0
        for _ in range(samples):
            coalition = others[rng.random(39) < 0.5].tolist()
            total += u.evaluator(row(40, coalition + [i]))[0] - u.evaluator(row(40, coalition))[0]
        assert banzhaf_mc(u, 40, samples, [seed] * 40)[i] == total / samples

    def test_close_to_exact_on_fixture_game(self):
        rng = np.random.default_rng(77)
        table = rng.normal(size=1 << 8)
        u = table_utility(table, 8)
        i = 3
        exact = banzhaf_exact(u, 8)[i]
        samples = 10_000
        est = banzhaf_mc(u, 8, samples, [4] * 8)[i]
        # 3 standard errors, with the marginal spread measured by enumeration.
        others = [j for j in range(8) if j != i]
        marginals = []
        for mask in range(1 << 7):
            coalition = [j for b, j in enumerate(others) if mask >> b & 1]
            marginals.append(
                u.evaluator(row(8, coalition + [i]))[0] - u.evaluator(row(8, coalition))[0]
            )
        sigma = float(np.std(marginals))
        assert abs(est - exact) <= 3 * sigma / np.sqrt(samples)

    def test_two_evaluator_calls_over_the_samples(self):
        seen = []

        def evaluate(masks):
            seen.append(masks.copy())
            return masks.sum(axis=1).astype(float)

        banzhaf_mc(CoalitionUtility(evaluate), 6, samples=32, seeds=[3] * 6)
        with_all, without_all = seen
        # n * samples rows: player i's samples are rows 32i..32i+31.
        assert with_all.shape == without_all.shape == (6 * 32, 6)
        for i, (with_i, without) in enumerate(
            zip(with_all.reshape(6, 32, 6), without_all.reshape(6, 32, 6))
        ):
            assert with_i[:, i].all() and not without[:, i].any()
            np.testing.assert_array_equal(
                np.delete(with_i, i, axis=1), np.delete(without, i, axis=1)
            )

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            banzhaf_mc(additive_utility({0: 1.0, 1: 1.0}), 2, samples=0, seeds=[0, 0])

    @pytest.mark.parametrize("seeds", [[], [0], [0, 1, 2]])
    def test_requires_one_seed_per_player(self, seeds):
        with pytest.raises(ValueError, match="one seed per player"):
            banzhaf_mc(additive_utility({0: 1.0, 1: 1.0}), 2, samples=4, seeds=seeds)

    def test_deterministic_given_seed(self):
        table = np.random.default_rng(9).normal(size=1 << 6)
        u = table_utility(table, 6)
        a = banzhaf_mc(u, 6, samples=50, seeds=[12] * 6)
        b = banzhaf_mc(u, 6, samples=50, seeds=[12] * 6)
        assert a.tolist() == b.tolist()


class TestEvaluatorGuard:
    """The primitives take one finite value per membership row, or raise."""

    @staticmethod
    def old_style_table(table):
        # An unported per-coalition evaluator: iterating a matrix yields its
        # rows, so this returns one value per column, not per row.
        def evaluate(coalition):
            mask = 0
            for j in coalition:
                mask |= 1 << j
            return table[mask]

        return CoalitionUtility(evaluate, CoalitionMode.RETRAIN)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda c: float(len(c)),  # one float per call
            lambda masks: np.zeros(len(masks) + 1),
            lambda masks: np.zeros((len(masks), 1)),
            lambda masks: np.where(masks[:, 0], np.nan, 0.0),
            lambda masks: np.full(len(masks), np.inf),
        ],
        ids=["scalar", "one-too-many", "column", "nan", "inf"],
    )
    def test_bad_evaluator_output_raises(self, evaluate):
        u = CoalitionUtility(evaluate)
        with pytest.raises(ValueError, match="per row|for a row"):
            banzhaf_exact(u, 4)
        with pytest.raises(ValueError, match="per row|for a row"):
            banzhaf_mc(u, 4, samples=16, seeds=[0] * 4)

    def test_old_style_evaluator_raises_instead_of_scoring(self):
        u = self.old_style_table(np.random.default_rng(2).normal(size=1 << 8))
        with pytest.raises(ValueError, match="one value per row"):
            banzhaf_exact(u, 8)
        with pytest.raises(ValueError, match="one value per row"):
            banzhaf_mc(u, 8, samples=100, seeds=[1] * 8)


def table_games(max_n):
    """(n, table) pairs: a random value for each of the 2^n coalitions."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=1 << n, max_size=1 << n
            ),
        )
    )


def additive_games(max_n):
    # |v| <= 1 keeps the worst-case rounding gap between two summation
    # orders of up to 40 values (about 2 * 39 * 2^-53 * 40) below 1e-12.
    return st.lists(st.floats(-1, 1), min_size=1, max_size=max_n)


def player_seeds(n):
    return st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)


class TestBatchedMatchesReference:
    """Every player's batched index agrees with the per-coalition one within 1e-12."""

    @settings(max_examples=60, deadline=None)
    @given(game=table_games(8), data=st.data())
    def test_table_games(self, game, data):
        n, table = game
        seeds = data.draw(player_seeds(n))
        samples = data.draw(st.integers(1, 64))

        def evaluate(coalition):
            return table[sum(1 << j for j in coalition)]

        u = table_utility(table, n)
        exact = banzhaf_exact(u, n)
        mc = banzhaf_mc(u, n, samples, seeds)
        assert exact.shape == mc.shape == (n,)
        for i in range(n):
            assert exact[i] == pytest.approx(reference_exact(evaluate, n, i), rel=0, abs=1e-12)
            assert mc[i] == pytest.approx(
                reference_mc(evaluate, n, i, samples, seeds[i]), rel=0, abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(values=additive_games(10))
    def test_additive_games_exact(self, values):
        n = len(values)
        exact = banzhaf_exact(additive_utility(dict(enumerate(values))), n)
        for i in range(n):
            assert exact[i] == pytest.approx(
                reference_exact(lambda c: sum(values[j] for j in c), n, i), rel=0, abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(values=additive_games(40), data=st.data())
    def test_additive_games_mc(self, values, data):
        n = len(values)
        seeds = data.draw(player_seeds(n))
        mc = banzhaf_mc(additive_utility(dict(enumerate(values))), n, 64, seeds)
        for i in range(n):
            assert mc[i] == pytest.approx(
                reference_mc(lambda c: sum(values[j] for j in c), n, i, 64, seeds[i]),
                rel=0, abs=1e-12,
            )


def two_block_exact(u, n):
    """banzhaf_exact's former formula, kept as its bit-level reference:
    player i's 2^(n-1) coalitions of the others are rows 2^(n-1) * i + r of
    two stacked membership matrices (row r holds the others whose bit is set
    in r, players in ascending order, i skipped), with and without i; two
    evaluator calls, and each player's marginals summed in row order."""
    m = 1 << (n - 1)
    bits = (np.arange(m)[:, None] >> np.arange(n - 1) & 1).astype(bool)
    without = np.zeros((n, m, n), dtype=bool)
    for i in range(n):
        without[i][:, [j for j in range(n) if j != i]] = bits
    with_i = without.copy()
    with_i[np.arange(n), :, np.arange(n)] = True

    def evaluate(masks):
        return np.asarray(u.evaluator(masks.reshape(n * m, n)), dtype=float)

    marginals = (evaluate(with_i) - evaluate(without)).reshape(n, m)
    return np.cumsum(marginals, axis=1)[:, -1] / m


class TestExactMatchesTwoBlockFormula:
    """Evaluating each coalition once gives the bits of evaluating every
    player's coalitions with and without it."""

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10))
    def test_additive_games(self, values):
        u = additive_utility(dict(enumerate(values)))
        n = len(values)
        assert banzhaf_exact(u, n).tobytes() == two_block_exact(u, n).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(game=table_games(8))
    def test_table_games(self, game):
        n, table = game
        u = table_utility(table, n)
        assert banzhaf_exact(u, n).tobytes() == two_block_exact(u, n).tobytes()


class TestAdditiveEvaluator:
    @settings(max_examples=100, deadline=None)
    @given(
        # Up to 40 values of magnitude 1e300 sum without overflow.
        values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_equals_the_masked_sum_exactly(self, values, data):
        n = len(values)
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=50))
        masks = np.array(rows, dtype=bool).reshape(len(rows), n)
        got = additive_utility(dict(enumerate(values))).evaluator(masks)
        # A member adds its value, a non-member 0.0 (its product may be -0.0,
        # which compares equal).
        expected = np.where(masks, np.array(values), 0.0).sum(axis=1)
        assert got.tolist() == expected.tolist()


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

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40
        ),
        w1=st.floats(0.0, 1.0),
    )
    def test_arrays_step_with_the_scalar_bits(self, pairs, w1):
        # A round updates every client in one call on its arrays; the
        # multiply and the add each round as the one-client step does.
        params = ReputationParams(w1, 1.0 - w1)
        eps, zetas = np.array(pairs).T
        stepped = update_reputation(eps, zetas, params)
        expected = [update_reputation(e, z, params) for e, z in pairs]
        assert stepped.tobytes() == np.array(expected).tobytes()

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
        assert select_top_k([0.9, 0.1, 0.5], 2) == [0, 2]

    def test_id_tie_break(self):
        assert select_top_k([0.3, 0.3, 0.3], 2) == [0, 1]

    def test_full_population_sorted_by_reputation(self):
        assert select_top_k([0.1, 0.7, 0.4], 3) == [1, 2, 0]

    def test_k_exceeding_population_rejected(self):
        with pytest.raises(ValueError):
            select_top_k([0.0], 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        eps = rng.normal(size=20).tolist()
        a = select_top_k(list(eps), 7)
        b = select_top_k(list(eps), 7)
        assert a == b

