import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flmarket import flsim
from flmarket.flsim import (
    EVAL_ROWS,
    AggregationConfig,
    Aggregator,
    ModelParams,
    PoisonConfig,
    SyntheticDataset,
    _blocks,
    aggregate,
    evaluate_accuracy,
    generate_population,
    init_model,
    local_train,
    poison,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestGeneratePopulation:
    def test_top_types_get_noise_free_data(self):
        datasets, _ = generate_population(3, [1.0, 1.0, 1.0], seed=7)
        for ds in datasets:
            assert np.array_equal(ds.labels, ds.true_labels)

    def test_deterministic(self):
        a, test_a = generate_population(3, [0.2, 0.5, 0.9], seed=11)
        b, test_b = generate_population(3, [0.2, 0.5, 0.9], seed=11)
        for x, y in zip(a + [test_a], b + [test_b]):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_noise_rate_tracks_theta(self):
        datasets, _ = generate_population(2, [0.0, 1.0], seed=1)
        noise = [np.mean(ds.labels != ds.true_labels) for ds in datasets]
        assert noise[0] > noise[1]

    def test_sample_counts_scale_with_theta(self):
        datasets, _ = generate_population(2, [0.0, 1.0], seed=3)
        assert len(datasets[0]) == 200
        assert len(datasets[1]) == 400

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            generate_population(0, [], seed=0)

    def test_test_set_is_clean(self):
        _, test = generate_population(1, [0.5], seed=5)
        assert np.array_equal(test.labels, test.true_labels)


class TestLocalTrain:
    def _tiny_data(self):
        return SyntheticDataset(design=np.array([[1.0, -2.0, 1.0]]), labels=np.array([1]))

    def test_zero_learning_rate_is_identity(self):
        datasets, _ = generate_population(1, [0.8], seed=2)
        cfg = AggregationConfig(learning_rate=0.0)
        weights = np.arange(21, dtype=float)
        out, _ = local_train(weights, [datasets[0]], cfg)
        assert np.array_equal(out[0], weights)

    def test_single_sample_single_step_matches_hand_gradient(self):
        data = self._tiny_data()
        w0 = np.array([0.5, -0.5, 0.1])
        cfg = AggregationConfig(algo=Aggregator.FEDAVG, local_epochs=1, learning_rate=0.3)
        out, _ = local_train(w0.copy(), [data], cfg)
        x_aug = np.array([1.0, -2.0, 1.0])
        grad = (sigmoid(x_aug @ w0) - 1.0) * x_aug
        assert np.allclose(out[0], w0 - 0.3 * grad, atol=1e-12)

    def test_fedprox_pull_strengthens_with_mu(self):
        datasets, _ = generate_population(1, [0.9], seed=4)
        w_global = init_model().weights
        dists = []
        for mu in (0.1, 1.0, 10.0):
            cfg = AggregationConfig(
                algo=Aggregator.FEDPROX, local_epochs=5, learning_rate=0.01, prox_mu=mu
            )
            out, _ = local_train(w_global, [datasets[0]], cfg)
            dists.append(np.linalg.norm(out[0] - w_global))
        assert dists[0] >= dists[1] >= dists[2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            SyntheticDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_diverged_weights_raise_naming_the_clients(self):
        # FedProx steps multiply w - w_global by (1 - lr * mu) = -9 per epoch.
        datasets, _ = generate_population(3, [0.3, 0.6, 1.0], seed=5)
        cfg = AggregationConfig(
            algo=Aggregator.FEDPROX, local_epochs=400, learning_rate=10.0, prox_mu=1.0
        )
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=r"clients \[0, 1, 2\] have non-finite"):
                local_train(init_model().weights, datasets, cfg)
            nan_start = np.full(21, np.nan)
            with pytest.raises(FloatingPointError, match="non-finite weights"):
                local_train(nan_start, datasets, AggregationConfig())

    def test_scaffold_updates_control_variates(self):
        datasets, _ = generate_population(1, [0.9], seed=6)
        cfg = AggregationConfig(algo=Aggregator.SCAFFOLD, local_epochs=3, learning_rate=0.1)
        weights = init_model().weights
        server_variate, variates = np.zeros(len(weights)), np.zeros((1, len(weights)))
        local, proposed = local_train(weights, [datasets[0]], cfg, server_variate, variates)
        # Client 0 proposes one variate update; committing it is the caller's.
        assert proposed is not None
        assert proposed.shape == variates.shape == (1, len(server_variate))
        aggregate([ModelParams(local[0])], [len(datasets[0])], cfg)
        assert not np.any(variates) and not np.any(server_variate)
        # Committing it moves c off zero.
        assert np.any(proposed[0] != 0.0)

    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_local_train_leaves_its_inputs_unchanged(self, algo):
        datasets, labels = mixed_clients(20)
        block, label_block = datasets[0].block, datasets[0].label_block
        cfg, server_variate, variates = train_config(algo, 20)
        weights = 0.1 * np.random.default_rng(8).normal(size=21)
        kept = [a.tobytes() for a in (block, label_block, labels, weights)]
        local, proposed = local_train(weights, datasets, cfg, server_variate, variates, labels)
        assert [a.tobytes() for a in (block, label_block, labels, weights)] == kept
        assert not np.shares_memory(local, weights)
        assert proposed is None or not np.shares_memory(proposed, variates)

    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_epochs_allocate_no_row_sized_array(self, algo):
        """The residual is the only (clients, rows) array a call allocates
        (the labels are the population's block), and the epochs add none,
        however many there are: a call's peak of traced memory is the same
        at 1 epoch as at 30."""
        datasets, labels = mixed_clients(20)
        cfg, server_variate, variates = train_config(algo, 20)
        row_sized = datasets[0].block[:, 0].nbytes
        weights = init_model().weights

        def peak(epochs):
            cfg_e = dataclasses.replace(cfg, local_epochs=epochs)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                local_train(weights, datasets, cfg_e, server_variate, variates, labels)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        peak(30)
        assert peak(30) == peak(1) < 3 * row_sized

    @pytest.mark.parametrize("shape", [(1, 21), (3, 21), (5, 21), (4, 20), (4,)])
    def test_variates_of_another_shape_raise(self, shape):
        # A (1, 21) block once broadcast over all four clients.
        datasets, labels = mixed_clients(20)
        cfg, server_variate, _ = train_config(Aggregator.SCAFFOLD, 20)
        variates = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"got {shape[0]} rows for 4 datasets"):
            local_train(init_model().weights, datasets, cfg, server_variate, variates, labels)

    def test_local_train_leaves_variate_inputs_unchanged(self):
        datasets, _ = mixed_clients(2)
        cfg, server_variate, variates = train_config(Aggregator.SCAFFOLD, 2)
        kept = server_variate.copy(), variates.copy()
        local_train(init_model(2).weights, datasets, cfg, server_variate, variates)
        assert np.array_equal(server_variate, kept[0])
        assert variates.shape == kept[1].shape
        for v, k in zip(variates, kept[1]):
            assert np.array_equal(v, k)


class TestAggregationConfig:
    def test_is_frozen_and_holds_only_hyperparameters(self):
        cfg = AggregationConfig(algo=Aggregator.SCAFFOLD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.learning_rate = 1.0
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "algo", "local_epochs", "learning_rate", "prox_mu"
        ]


def reference_train(w_global, data, cfg, server_variate, c_i, labels=None):
    """The one-client loop that the batched trainer replaced, reading the
    Scaffold state c and this client's c_i from its arguments. Returns the
    local weights and the proposed c_i+ (None unless Scaffold trained). The
    client trains on its row of `labels` if given, else on its own labels."""
    x = data.design
    y = data.labels if labels is None else labels[data.row, 0, : len(data)]
    y = y.astype(float)
    w = w_global.copy()
    lr = cfg.learning_rate
    if cfg.algo is Aggregator.SCAFFOLD:
        c_global = server_variate
    for _ in range(cfg.local_epochs):
        grad = x.T @ (sigmoid(np.clip(x @ w, -40.0, 40.0)) - y) / len(y)
        if cfg.algo is Aggregator.FEDPROX:
            grad = grad + cfg.prox_mu * (w - w_global)
        elif cfg.algo is Aggregator.SCAFFOLD:
            grad = grad + (c_global - c_i)
        w = w - lr * grad
    if cfg.algo is Aggregator.SCAFFOLD and lr > 0.0:
        return w, c_i - c_global + (w_global - w) / (cfg.local_epochs * lr)
    return w, None


def clamped_train(w_global, datasets, cfg, server_variate, variates, labels):
    """The batched epoch that the negated-logit one replaced, kept as an
    oracle: it steps the weights w themselves, clamps the logits to
    [-40, 40] on both sides before negating them, and trains every client
    in one block."""
    x, y = _blocks(datasets, labels)
    n, dim, rows = x.shape
    counts = np.array([len(d) for d in datasets], dtype=float)[:, None]
    w = np.tile(w_global, (n, 1))
    lr = cfg.learning_rate
    if cfg.algo is Aggregator.SCAFFOLD:
        c = np.zeros_like(w_global) if server_variate is None else server_variate
        c_i = np.zeros((n, dim)) if variates is None else variates
    residual = np.empty((n, 1, rows))
    grad_cols = np.empty((n, dim, 1))
    grad = grad_cols[:, :, 0]
    for _ in range(cfg.local_epochs):
        np.matmul(w[:, None, :], x, out=residual)
        np.maximum(residual, -40.0, out=residual)
        np.minimum(residual, 40.0, out=residual)
        np.negative(residual, out=residual)
        np.exp(residual, out=residual)
        residual += 1.0
        np.divide(1.0, residual, out=residual)
        residual -= y
        np.matmul(x, residual.reshape(n, rows, 1), out=grad_cols)
        grad /= counts
        if cfg.algo is Aggregator.FEDPROX:
            grad += (w - w_global) * cfg.prox_mu
        elif cfg.algo is Aggregator.SCAFFOLD:
            grad += c - c_i
        grad *= lr
        w -= grad
    if cfg.algo is Aggregator.SCAFFOLD and lr > 0.0:
        return w, c_i - c + (w_global - w) / (cfg.local_epochs * lr)
    return w, None


def model_bytes(trained):
    weights, proposed = trained
    return weights.tobytes(), None if proposed is None else proposed.tobytes()


def mixed_clients(dim):
    """Clients with different sample counts and one label-flipping poisoner,
    plus the label block to train them on (None: their own labels).

    At 20 features they are one generated population, sharing its blocks,
    and client 1's flipped labels are its row of a copy of the label block;
    at 2 features each is built alone, client 1 with flipped labels.
    """
    flip = PoisonConfig(0.8)
    if dim == 20:
        datasets, _ = generate_population(4, [0.0, 0.4, 0.7, 1.0], seed=21)
        labels = datasets[0].label_block.copy()
        poison(datasets[1].labels, flip, 3, labels[1, 0, : len(datasets[1])])
        return datasets, labels
    rng = np.random.default_rng(21)
    datasets = []
    for i, m in enumerate((3, 17, 8, 30)):
        design = np.hstack([rng.normal(size=(m, dim)), np.ones((m, 1))])
        labels = rng.integers(0, 2, size=m)
        if i == 1:
            labels = poison(labels, flip, 3, np.empty(m))
        datasets.append(SyntheticDataset(design, labels))
    return datasets, None


def train_config(algo, dim):
    """Hyperparameters plus Scaffold state: the server variate c and the
    clients' c_i, one row each, nonzero for clients 0 and 2 (clients 1 and 3
    were never aggregated, so their rows are zeros)."""
    rng = np.random.default_rng(5)
    cfg = AggregationConfig(algo=algo, local_epochs=7, learning_rate=0.4, prox_mu=0.3)
    server_variate = 0.05 * rng.normal(size=dim + 1)
    variates = np.zeros((4, dim + 1))
    for i in (0, 2):
        variates[i] = 0.05 * rng.normal(size=dim + 1)
    return cfg, server_variate, variates


class TestBatchedTrain:
    @pytest.mark.parametrize("dim", [2, 20])
    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_batch_matches_each_client_trained_alone(self, algo, dim):
        datasets, labels = mixed_clients(dim)
        assert len({len(d) for d in datasets}) == len(datasets)
        weights = 0.1 * np.random.default_rng(8).normal(size=dim + 1)
        cfg, server_variate, variates = train_config(algo, dim)
        batch, batch_c = local_train(weights, datasets, cfg, server_variate, variates, labels)
        # Client i trained alone takes its own row of the variates.
        alone = [
            local_train(weights, [d], cfg, server_variate, variates[i : i + 1], labels)
            for i, d in enumerate(datasets)
        ]
        alone = [(w[0], None if c is None else c[0]) for w, c in alone]
        reference = [
            reference_train(weights, d, cfg, server_variate, variates[i], labels)
            for i, d in enumerate(datasets)
        ]
        assert batch.shape == (len(datasets), dim + 1)
        for b, (a, _), (r, _) in zip(batch, alone, reference):
            assert np.allclose(b, a, rtol=0.0, atol=1e-12)
            assert np.allclose(b, r, rtol=0.0, atol=1e-12)
        for other in (alone, reference):
            # The same clients propose the same c_i+, so the same updates c_i+ - c_i.
            assert [batch_c is None] * len(datasets) == [o is None for _, o in other]
            if batch_c is not None:
                for b, (_, o), c_i in zip(batch_c, other, variates):
                    assert np.allclose(b, o, rtol=0.0, atol=1e-12)
                    assert np.allclose(b - c_i, o - c_i, rtol=0.0, atol=1e-12)
        proposed = 0 if batch_c is None else len(batch_c)
        assert proposed == (len(datasets) if algo is Aggregator.SCAFFOLD else 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            local_train(init_model().weights, [], AggregationConfig())

    @pytest.mark.parametrize("saturated", [False, True], ids=["spread", "saturated"])
    @pytest.mark.parametrize("clients_per_block", [1, 3, 4])
    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_trains_the_bits_of_the_clamped_epoch(
        self, algo, clients_per_block, saturated, monkeypatch
    ):
        """Negated logits under one clamp give the weights and variates of
        the two-sided clamp, byte for byte, whatever the client block: one
        client, a ragged last block, or the whole population.

        A spread start puts logits beyond -40 and +40. A saturated start
        puts every logit at -100 on all-zero labels, so every residual is
        the clamped sigmoid(-40) and the step shows the clamp's bits."""
        datasets, labels = mixed_clients(20)
        block = datasets[0].block
        monkeypatch.setattr(flsim, "TRAIN_BLOCK_BYTES", clients_per_block * block[0].nbytes)
        cfg, server_variate, variates = train_config(algo, 20)
        weights = 6.0 * np.random.default_rng(8).normal(size=21)
        if saturated:
            weights = np.r_[np.zeros(20), -100.0]
            labels = np.zeros_like(labels)
        logits = np.concatenate([d.design @ weights for d in datasets])
        assert (logits < -40.0).any() and (logits > 40.0).any() != saturated
        trained = local_train(weights, datasets, cfg, server_variate, variates, labels)
        oracle = clamped_train(weights, datasets, cfg, server_variate, variates, labels)
        assert model_bytes(trained) == model_bytes(oracle)


class TestDesignBlock:
    def test_population_rows_share_one_zero_padded_block(self):
        datasets, test = generate_population(3, [0.0, 1.0, 0.5], seed=19)
        block, label_block = datasets[0].block, datasets[0].label_block
        assert block.shape == (3, 21, 400)
        assert label_block.shape == (3, 1, 400) and label_block.dtype == float
        for i, d in enumerate(datasets):
            assert d.block is block and d.label_block is label_block and d.row == i
            assert np.shares_memory(d.features, block)
            assert np.shares_memory(d.labels, label_block)
            assert np.array_equal(d.design, block[i, :, : len(d)].T)
            assert np.array_equal(d.labels, label_block[i, 0, : len(d)])
            assert np.all(d.design[:, -1] == 1.0)
            assert not np.any(block[i, :, len(d):])
            assert not np.any(label_block[i, 0, len(d):])
        assert np.all(test.design[:, -1] == 1.0)
        assert np.array_equal(test.features, test.design[:, :-1])

    def test_whole_population_trains_on_its_block_and_test_set_is_not_copied(self):
        datasets, test = generate_population(3, [0.0, 1.0, 0.5], seed=19)
        block, label_block = datasets[0].block, datasets[0].label_block
        x, y = _blocks(datasets)
        assert x is block and y is label_block
        # A stand-in label block is used as it is.
        other = label_block.copy()
        assert _blocks(datasets, other)[1] is other
        # Any other batch (a subset, a reordering) is padded into new blocks.
        other[:, 0, :] = 1.0 - other[:, 0, :]
        for batch in (datasets[:2], datasets[::-1]):
            for labels, flipped in ((None, False), (other, True)):
                x, y = _blocks(batch, labels)
                assert not np.shares_memory(x, block)
                assert not np.shares_memory(y, label_block) and not np.shares_memory(y, other)
                for i, d in enumerate(batch):
                    assert np.array_equal(x[i, :, : len(d)].T, d.design)
                    expected = 1.0 - d.labels if flipped else d.labels
                    assert np.array_equal(y[i, 0, : len(d)], expected)
                    assert not np.any(y[i, 0, len(d):])
        # The held-out test set's design is a view of its feature-major
        # block, and its labels are a boolean row.
        assert test.block.shape == (21, len(test)) and test.block.flags.c_contiguous
        assert test.design.base is test.block
        assert test.labels.dtype == bool and test.labels.shape == (len(test),)
        assert np.array_equal(test.labels, test.true_labels)
        assert test.label_block is None


class TestAggregate:
    def test_average_of_identical_models_is_identity(self):
        w = ModelParams(np.array([1.0, 2.0, 3.0]))
        copies = [ModelParams(w.weights.copy()) for _ in range(2)]
        out = aggregate(copies, [10, 20], AggregationConfig())
        assert np.array_equal(out.weights, w.weights)

    def test_weighted_scalar_average(self):
        m0 = ModelParams(np.array([0.0]))
        m1 = ModelParams(np.array([4.0]))
        out = aggregate([m0, m1], [1, 3], AggregationConfig())
        assert out.weights[0] == pytest.approx(3.0, abs=1e-15)

    def test_single_model_identity(self):
        w = ModelParams(np.array([5.0, -1.0]))
        out = aggregate([w], [7], AggregationConfig())
        assert np.array_equal(out.weights, w.weights)

    def test_overflowing_average_raises(self):
        # Finite local weights whose count-weighted sum overflows.
        huge = [ModelParams(np.array([1e308, 0.0])) for _ in range(2)]
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite weights"):
                aggregate(huge, [10, 10], AggregationConfig())

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            aggregate([], [], AggregationConfig())
        with pytest.raises(ValueError):
            aggregate([ModelParams(np.zeros(2))], [1, 2], AggregationConfig())


def accuracy_oracle(w, test):
    """The one-model evaluation the batched one replaced."""
    return int(np.count_nonzero((test.design @ w > 0.0) == test.labels)) / len(test)


class TestEvaluateAccuracy:
    def test_bayes_direction_scores_high_on_own_data(self):
        datasets, test = generate_population(1, [1.0], seed=9)
        # Logistic fit on clean data separates the Gaussian mixture well.
        cfg = AggregationConfig(local_epochs=200, learning_rate=1.0)
        weights, _ = local_train(init_model().weights, [datasets[0]], cfg)
        assert evaluate_accuracy(weights, test)[0] > 0.9

    def test_zero_model_predicts_majority_class_zero(self):
        _, test = generate_population(1, [1.0], seed=10)
        (acc,) = evaluate_accuracy(init_model().weights[None], test)
        assert acc == pytest.approx(np.mean(test.labels == 0), abs=1e-15)
        assert 0.45 < acc < 0.55

    def test_returns_a_builtin_float_equal_to_the_mean(self):
        datasets, test = generate_population(2, [0.6, 0.9], seed=12)
        weights, _ = local_train(init_model().weights, datasets, AggregationConfig(local_epochs=3))
        accs = evaluate_accuracy(weights, test)
        assert len(accs) == 2
        for w, acc in zip(weights, accs):
            # A numpy scalar would be written as np.float64(...) into rounds.csv.
            assert type(acc) is float
            assert acc == np.mean((test.design @ w > 0.0).astype(int) == test.labels)

    def test_inverted_labels_complement_accuracy(self):
        datasets, test = generate_population(1, [1.0], seed=12)
        cfg = AggregationConfig(local_epochs=50, learning_rate=1.0)
        weights, _ = local_train(init_model().weights, [datasets[0]], cfg)
        flipped = dataclasses.replace(test, labels=~test.labels)
        (acc,), (acc_flipped,) = (evaluate_accuracy(weights, t) for t in (test, flipped))
        assert acc + acc_flipped == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        _, test = generate_population(1, [0.3], seed=13)
        models = np.stack([np.full(21, scale) for scale in (-5.0, 0.0, 5.0)])
        for acc in evaluate_accuracy(models, test):
            assert 0.0 <= acc <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3 * EVAL_ROWS),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        zero_rows=st.sets(st.integers(0, 3 * EVAL_ROWS - 1)),
    )
    def test_batch_equals_each_model_evaluated_alone(self, seed, m, scale, zero_rows):
        """Each row scores what the one-model product scores, across the
        products of EVAL_ROWS rows; an all-zero row has every logit at 0,
        so it predicts class 0 everywhere."""
        _, test = generate_population(1, [0.5], seed=31)
        weights = scale * np.random.default_rng(seed).normal(size=(m, 21))
        zero = [i for i in zero_rows if i < m]
        weights[zero] = 0.0
        accs = evaluate_accuracy(weights, test)
        assert accs == [accuracy_oracle(w, test) for w in weights]
        for i in zero:
            assert accs[i] == np.mean(test.labels == 0)


class TestPoison:
    def _data(self):
        datasets, _ = generate_population(1, [1.0], seed=17)
        return datasets[0]

    def test_zero_rate_is_identity(self):
        data = self._data()
        out = poison(data.labels, PoisonConfig(0.0), 1, np.empty(len(data)))
        assert np.array_equal(out, data.labels)

    def test_full_rate_inverts_everything(self):
        data = self._data()
        out = poison(data.labels, PoisonConfig(1.0), 1, np.empty(len(data)))
        assert np.array_equal(out, 1 - data.labels)

    def test_half_rate_binomial_bound(self):
        data = self._data()
        n = len(data)
        out = poison(data.labels, PoisonConfig(0.5), 99, np.empty(n))
        flipped = int(np.sum(out != data.labels))
        sigma = np.sqrt(n * 0.25)
        assert abs(flipped - n / 2) <= 3 * sigma

    def test_deterministic(self):
        data = self._data()
        a = poison(data.labels, PoisonConfig(0.4), 5, np.empty(len(data)))
        b = poison(data.labels, PoisonConfig(0.4), 5, np.empty(len(data)))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.8, 1.0])
    def test_writes_the_flipped_labels_into_out(self, rate):
        """`out` receives what the copying form returned, bit for bit, and
        the clean labels are left as they were."""
        data = self._data()
        kept = data.labels.tobytes()
        out = np.full(len(data), 7.0)
        assert poison(data.labels, PoisonConfig(rate), 11, out) is out
        flips = np.random.default_rng(11).random(len(data)) < rate
        expected = np.where(flips, 1 - data.labels, data.labels).astype(float)
        assert out.tobytes() == expected.tobytes()
        assert data.labels.tobytes() == kept

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            PoisonConfig(1.5)


class TestTrainingSignal:
    def test_honest_federated_rounds_reach_high_accuracy(self):
        # Fixture seed: 5 honest clients, 20 FedAvg rounds.
        thetas = [1.0] * 5
        datasets, test = generate_population(5, thetas, seed=42)
        cfg = AggregationConfig(algo=Aggregator.FEDAVG, local_epochs=5, learning_rate=0.5)
        model = init_model()
        for _ in range(20):
            locals_ = [ModelParams(local_train(model.weights, [ds], cfg)[0][0]) for ds in datasets]
            model = aggregate(locals_, [len(ds) for ds in datasets], cfg)
        assert evaluate_accuracy(model.weights[None], test)[0] > 0.9
