import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flmarket import flsim
from flmarket.flsim import (
    EVAL_ROWS,
    FEATURE_DIM,
    AggregationConfig,
    Aggregator,
    ModelParams,
    PoisonConfig,
    Population,
    aggregate,
    evaluate_accuracy,
    generate_population,
    init_model,
    local_train,
    poison,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def population_of(designs, labels):
    """A population of clients built alone: row i holds the sample-major
    design `designs[i]` and the labels `labels[i]`, zero-padded."""
    counts = np.array([len(d) for d in designs])
    x = np.zeros((len(designs), designs[0].shape[1], counts.max()))
    y = np.zeros((len(designs), 1, counts.max()))
    for i, (design, label) in enumerate(zip(designs, labels)):
        x[i, :, : len(design)] = design.T
        y[i, 0, : len(design)] = label
    return Population(np.ones(len(designs)), counts, x, y)


def clients_of(population):
    """Each client's sample-major design and its labels, from the
    population's blocks."""
    return [
        (population.design[i, :, :m].T, population.labels[i, 0, :m])
        for i, m in enumerate(population.counts.tolist())
    ]


def reference_draws(thetas, seed):
    """What `generate_population` draws, as the generator that built each
    client alone drew it: each client's (sample-major design, noisy labels,
    pre-noise labels), then the test set's."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=20)
    direction /= np.linalg.norm(direction)
    mu = 2.0 * direction

    def draw(n, noise_rate):
        y = rng.integers(0, 2, size=n)
        design = np.ones((n, 21))
        design[:, :-1] = rng.normal(size=(n, 20)) + (2 * y - 1)[:, None] * mu
        flips = rng.random(n) < noise_rate
        return design, np.where(flips, 1 - y, y), y

    clients = [draw(int(round(200 * (1.0 + t))), (1.0 - t) * 0.4) for t in thetas]
    return clients, draw(2000, 0.0)


class TestGeneratePopulation:
    @pytest.mark.parametrize(
        "thetas, seed",
        [([1.0, 0.0, 0.5], 19), ([0.2, 0.5, 0.9], 11), ([0.3], 4242), ([0.95] * 40, 7)],
    )
    def test_population_is_the_reference_draw(self, thetas, seed):
        """Every client's design and labels, and the test set, are the bits
        of the generator that drew each client alone with `rng.normal`."""
        population, test = generate_population(thetas, seed)
        clients, (test_design, test_labels, _) = reference_draws(thetas, seed)
        assert population.thetas.tolist() == thetas
        assert population.counts.tolist() == [len(d) for d, _, _ in clients]
        for (design, labels), (ref_design, ref_labels, _) in zip(clients_of(population), clients):
            assert design.tobytes() == ref_design.tobytes()
            assert labels.tobytes() == ref_labels.astype(float).tobytes()
        assert test.design.T.tobytes() == test_design.tobytes()
        assert test.labels.tobytes() == (test_labels == 1).tobytes()

    def test_top_types_get_noise_free_data(self):
        population, _ = generate_population([1.0, 1.0, 1.0], seed=7)
        clients, _ = reference_draws([1.0, 1.0, 1.0], 7)
        for (_, labels), (_, _, true_labels) in zip(clients_of(population), clients):
            assert np.array_equal(labels, true_labels)

    def test_deterministic(self):
        a, test_a = generate_population([0.2, 0.5, 0.9], seed=11)
        b, test_b = generate_population([0.2, 0.5, 0.9], seed=11)
        for x, y in ((a, b), (test_a, test_b)):
            assert np.array_equal(x.design, y.design)
            assert np.array_equal(x.labels, y.labels)

    def test_noise_rate_tracks_theta(self):
        population, _ = generate_population([0.0, 1.0], seed=1)
        clients, _ = reference_draws([0.0, 1.0], 1)
        noise = [
            np.mean(labels != true_labels)
            for (_, labels), (_, _, true_labels) in zip(clients_of(population), clients)
        ]
        assert noise[0] > noise[1]

    def test_sample_counts_scale_with_theta(self):
        population, _ = generate_population([0.0, 1.0], seed=3)
        assert population.counts.tolist() == [200, 400]

    def test_empty_population_rejected(self):
        # The count is len(thetas), and an empty one is named, not left to
        # numpy's zero-size reduction.
        with pytest.raises(ValueError, match="at least one client: thetas is empty"):
            generate_population([], 0)

    def test_test_set_is_clean(self):
        _, test = generate_population([0.5], seed=5)
        _, (_, _, true_labels) = reference_draws([0.5], 5)
        assert np.array_equal(test.labels, true_labels)


class TestLocalTrain:
    def _tiny_data(self):
        return population_of([np.array([[1.0, -2.0, 1.0]])], [np.array([1])])

    def test_zero_learning_rate_is_identity(self):
        population, _ = generate_population([0.8], seed=2)
        cfg = AggregationConfig(learning_rate=0.0)
        weights = np.arange(21, dtype=float)
        out, _ = local_train(weights, population, cfg, round_num=0)
        assert np.array_equal(out[0], weights)

    def test_single_sample_single_step_matches_hand_gradient(self):
        data = self._tiny_data()
        w0 = np.array([0.5, -0.5, 0.1])
        cfg = AggregationConfig(algo=Aggregator.FEDAVG, local_epochs=1, learning_rate=0.3)
        out, _ = local_train(w0.copy(), data, cfg, round_num=0)
        x_aug = np.array([1.0, -2.0, 1.0])
        grad = (sigmoid(x_aug @ w0) - 1.0) * x_aug
        assert np.allclose(out[0], w0 - 0.3 * grad, atol=1e-12)

    def test_fedprox_pull_strengthens_with_mu(self):
        population, _ = generate_population([0.9], seed=4)
        w_global = init_model().weights
        dists = []
        for mu in (0.1, 1.0, 10.0):
            cfg = AggregationConfig(
                algo=Aggregator.FEDPROX, local_epochs=5, learning_rate=0.01, prox_mu=mu
            )
            out, _ = local_train(w_global, population, cfg, round_num=0)
            dists.append(np.linalg.norm(out[0] - w_global))
        assert dists[0] >= dists[1] >= dists[2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            population_of([np.zeros((0, 3))], [np.zeros(0, dtype=int)])

    def test_diverged_weights_raise_naming_the_clients(self):
        # FedProx steps multiply w - w_global by (1 - lr * mu) = -9 per epoch.
        population, _ = generate_population([0.3, 0.6, 1.0], seed=5)
        cfg = AggregationConfig(
            algo=Aggregator.FEDPROX, local_epochs=400, learning_rate=10.0, prox_mu=1.0
        )
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=r"clients \[0, 1, 2\] have non-finite"):
                local_train(init_model().weights, population, cfg, round_num=0)
            nan_start = np.full(21, np.nan)
            with pytest.raises(FloatingPointError, match="non-finite weights"):
                local_train(nan_start, population, AggregationConfig(), round_num=0)

    def test_scaffold_updates_control_variates(self):
        population, _ = generate_population([0.9], seed=6)
        cfg = AggregationConfig(algo=Aggregator.SCAFFOLD, local_epochs=3, learning_rate=0.1)
        weights = init_model().weights
        server_variate, variates = np.zeros(len(weights)), np.zeros((1, len(weights)))
        local, proposed = local_train(
            weights, population, cfg, server_variate, variates, round_num=0
        )
        # Client 0 proposes one variate update; committing it is the caller's.
        assert proposed is not None
        assert proposed.shape == variates.shape == (1, len(server_variate))
        aggregate([ModelParams(local[0])], population.counts.tolist(), cfg)
        assert not np.any(variates) and not np.any(server_variate)
        # Committing it moves c off zero.
        assert np.any(proposed[0] != 0.0)

    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_local_train_leaves_its_inputs_unchanged(self, algo):
        population = mixed_clients(20)
        block, label_block = population.design, population.labels
        cfg, server_variate, variates = train_config(algo, 20)
        weights = 0.1 * np.random.default_rng(8).normal(size=21)
        kept = [a.tobytes() for a in (block, label_block, weights)]
        local, proposed = local_train(
            weights, population, cfg, server_variate, variates, round_num=0
        )
        assert [a.tobytes() for a in (block, label_block, weights)] == kept
        assert not np.shares_memory(local, weights)
        assert proposed is None or not np.shares_memory(proposed, variates)

    @pytest.mark.parametrize("algo", list(Aggregator))
    def test_epochs_allocate_no_row_sized_array(self, algo):
        """The residual is the only (clients, rows) array a call allocates
        (the labels are the population's block), and the epochs add none,
        however many there are: a call's peak of traced memory at 30 epochs
        is within one weight row (21 doubles) of its peak at 1 epoch. The
        slack absorbs numpy's own bookkeeping, a few bytes a call, which no
        row-sized array fits in."""
        population = mixed_clients(20)
        cfg, server_variate, variates = train_config(algo, 20)
        row_sized = population.design[:, 0].nbytes
        weights = init_model().weights

        def peak(epochs):
            cfg_e = dataclasses.replace(cfg, local_epochs=epochs)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                local_train(weights, population, cfg_e, server_variate, variates, round_num=0)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        peak(30)
        many, one = peak(30), peak(1)
        assert abs(many - one) <= (FEATURE_DIM + 1) * 8
        assert many < 3 * row_sized

    @pytest.mark.parametrize("shape", [(1, 21), (3, 21), (5, 21), (4, 20), (4,)])
    def test_variates_of_another_shape_raise(self, shape):
        # A (1, 21) block once broadcast over all four clients.
        population = mixed_clients(20)
        cfg, server_variate, _ = train_config(Aggregator.SCAFFOLD, 20)
        variates = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"got {shape[0]} rows for 4 clients"):
            local_train(
                init_model().weights, population, cfg, server_variate, variates, round_num=0
            )

    @pytest.mark.parametrize(
        "shape", [(1, 1, 400), (4, 1, 399), (4, 1, 401), (3, 1, 400), (4, 400), (4, 2, 400)]
    )
    def test_labels_of_another_shape_raise(self, shape):
        # A (1, 1, 400) block once trained all four clients on client 0's
        # labels, and one column short failed only inside numpy's broadcast.
        # A population holds only a label block of its design's shape, so
        # no such block reaches training.
        population = mixed_clients(20)
        assert population.labels.shape == (4, 1, 400)
        labels = np.zeros(shape)
        shapes = rf"shape \(4, 1, 400\): got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=shapes):
            dataclasses.replace(population, labels=labels)

    @pytest.mark.parametrize("width", [399, 401, 408])
    def test_a_design_block_not_as_wide_as_the_largest_client_raises(self, width):
        # Training reads counts.max() columns of the block and whole lines of
        # the label block beside it, so the two widths must agree.
        population = mixed_clients(20)
        shapes = rf"largest client, 400 samples: got shape \(4, 21, {width}\)"
        with pytest.raises(ValueError, match=shapes):
            dataclasses.replace(
                population, design=np.zeros((4, 21, width)), labels=np.zeros((4, 1, width))
            )

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_flips_of_another_row_count_raise(self, rows):
        population = mixed_clients(20)
        poisoners = np.array([1, 2])
        flips = np.zeros((rows, 3, 50), dtype=np.uint8)
        shapes = rf"poisoners of shape \(2,\): got shape \({rows}, 3, 50\)"
        with pytest.raises(ValueError, match=shapes):
            dataclasses.replace(population, poisoners=poisoners, flips=flips)

    def test_local_train_leaves_variate_inputs_unchanged(self):
        population = mixed_clients(2)
        cfg, server_variate, variates = train_config(Aggregator.SCAFFOLD, 2)
        kept = server_variate.copy(), variates.copy()
        local_train(
            init_model(2).weights, population, cfg, server_variate, variates, round_num=0
        )
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


def reference_train(w_global, x, y, cfg, server_variate, c_i):
    """The one-client loop that the batched trainer replaced, on the
    client's sample-major (m, d + 1) design `x` and its m labels `y`,
    reading the Scaffold state c and this client's c_i from its arguments.
    Returns the local weights and the proposed c_i+ (None unless Scaffold
    trained)."""
    y = np.asarray(y, dtype=float)
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


def clamped_train(w_global, population, cfg, server_variate, variates):
    """The batched epoch that the negated-logit one replaced, kept as an
    oracle: it steps the weights w themselves, clamps the logits to
    [-40, 40] on both sides before negating them, and trains every client
    in one block."""
    x, y = population.design, population.labels
    n, dim, rows = x.shape
    counts = population.counts.astype(float)[:, None]
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
    """A population of clients with different sample counts, client 1 with
    flipped labels.

    At 20 features it is a generated population whose label block is
    replaced by a copy with client 1's row flipped; at 2 features each
    client is drawn alone and padded into a population, client 1 with
    flipped labels.
    """
    flip = PoisonConfig(0.8)
    if dim == 20:
        population, _ = generate_population([0.0, 0.4, 0.7, 1.0], seed=21)
        labels = population.labels.copy()
        m = population.counts[1]
        poison(population.labels[1, 0, :m], flip, 3, labels[1, 0, :m])
        return dataclasses.replace(population, labels=labels)
    rng = np.random.default_rng(21)
    designs, labels = [], []
    for i, m in enumerate((3, 17, 8, 30)):
        designs.append(np.hstack([rng.normal(size=(m, dim)), np.ones((m, 1))]))
        labels.append(rng.integers(0, 2, size=m))
        if i == 1:
            labels[1] = poison(labels[1], flip, 3, np.empty(m))
    return population_of(designs, labels)


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
        population = mixed_clients(dim)
        clients = clients_of(population)
        assert len(set(population.counts.tolist())) == len(population)
        weights = 0.1 * np.random.default_rng(8).normal(size=dim + 1)
        cfg, server_variate, variates = train_config(algo, dim)
        batch, batch_c = local_train(
            weights, population, cfg, server_variate, variates, round_num=0
        )
        # Client i trained alone, as a population of one, takes its own row
        # of the variates.
        alone = [
            local_train(
                weights, population_of([x], [y]), cfg, server_variate, variates[i : i + 1],
                round_num=0,
            )
            for i, (x, y) in enumerate(clients)
        ]
        alone = [(w[0], None if c is None else c[0]) for w, c in alone]
        reference = [
            reference_train(weights, x, y, cfg, server_variate, variates[i])
            for i, (x, y) in enumerate(clients)
        ]
        assert batch.shape == (len(population), dim + 1)
        for b, (a, _), (r, _) in zip(batch, alone, reference):
            assert np.allclose(b, a, rtol=0.0, atol=1e-12)
            assert np.allclose(b, r, rtol=0.0, atol=1e-12)
        for other in (alone, reference):
            # The same clients propose the same c_i+, so the same updates c_i+ - c_i.
            assert [batch_c is None] * len(population) == [o is None for _, o in other]
            if batch_c is not None:
                for b, (_, o), c_i in zip(batch_c, other, variates):
                    assert np.allclose(b, o, rtol=0.0, atol=1e-12)
                    assert np.allclose(b - c_i, o - c_i, rtol=0.0, atol=1e-12)
        proposed = 0 if batch_c is None else len(batch_c)
        assert proposed == (len(population) if algo is Aggregator.SCAFFOLD else 0)

    def test_empty_batch_rejected(self):
        # local_train takes a population, which holds at least one client.
        with pytest.raises(ValueError, match="at least one client"):
            Population(
                np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 21, 1)), np.zeros((0, 1, 1))
            )

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
        population = mixed_clients(20)
        block = population.design
        monkeypatch.setattr(flsim, "TRAIN_BLOCK_BYTES", clients_per_block * block[0].nbytes)
        cfg, server_variate, variates = train_config(algo, 20)
        weights = 6.0 * np.random.default_rng(8).normal(size=21)
        if saturated:
            weights = np.r_[np.zeros(20), -100.0]
            population = dataclasses.replace(population, labels=np.zeros_like(population.labels))
        logits = np.concatenate([x @ weights for x, _ in clients_of(population)])
        assert (logits < -40.0).any() and (logits > 40.0).any() != saturated
        trained = local_train(weights, population, cfg, server_variate, variates, round_num=0)
        oracle = clamped_train(weights, population, cfg, server_variate, variates)
        assert model_bytes(trained) == model_bytes(oracle)


class TestDesignBlock:
    def test_population_rows_share_one_zero_padded_block(self):
        population, test = generate_population([0.0, 1.0, 0.5], seed=19)
        block, label_block = population.design, population.labels
        assert block.shape == (3, 21, 400)
        assert label_block.shape == (3, 1, 400) and label_block.dtype == float
        for i, m in enumerate(population.counts.tolist()):
            assert np.all(block[i, -1, :m] == 1.0)
            assert not np.any(block[i, :, m:])
            assert not np.any(label_block[i, 0, m:])
        assert np.all(test.design[-1] == 1.0)

    def test_whole_population_trains_on_its_block_and_test_set_is_not_copied(self):
        """The population trains on its blocks as they are, with no copy of
        the design block, and a label block standing in for its own trains
        exactly as a population built from those labels would."""
        population, test = generate_population([0.0, 1.0, 0.5], seed=19)
        cfg = AggregationConfig(local_epochs=3)
        weights = init_model().weights
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trained = local_train(weights, population, cfg, round_num=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < population.design.nbytes / 4
        other = population.labels.copy()
        other[:, 0, :] = 1.0 - other[:, 0, :]
        stand_in_population = dataclasses.replace(population, labels=other)
        flipped = population_of(
            [x for x, _ in clients_of(population)], [y for _, y in clients_of(stand_in_population)]
        )
        stand_in = local_train(weights, stand_in_population, cfg, round_num=0)
        assert model_bytes(stand_in) == model_bytes(local_train(weights, flipped, cfg, round_num=0))
        assert model_bytes(stand_in) != model_bytes(trained)
        # The held-out test set's design is one feature-major block, and its
        # labels are a boolean row.
        assert test.design.shape == (21, len(test)) and test.design.flags.c_contiguous
        assert test.labels.dtype == bool and test.labels.shape == (len(test),)
        _, (_, _, true_labels) = reference_draws([0.0, 1.0, 0.5], 19)
        assert np.array_equal(test.labels, true_labels)

    @pytest.mark.parametrize("widest", [369, 396, 400])
    def test_rows_lie_on_cache_lines_and_products_keep_their_bits(self, widest, monkeypatch):
        """Every design and label row starts a 64-byte line, in a generated
        population, one built by hand and a poisoned round's labels; the
        generated blocks are not copied when a population is rebuilt from
        them. Each epoch's two products read exactly counts.max() columns of
        the population's own block, and give the bytes of the same products
        on contiguous copies. Widths 369, 396 and 400 (1, 4 and 0 mod 8) are
        the workloads' at bench seed 4242; a product over the width padded
        to whole lines would sum in another order."""
        theta = widest / 200 - 1.0
        population, _ = generate_population([0.3, theta, 0.6], seed=23)
        assert population.counts.max() == widest
        poisoned = population.with_poisoners(np.array([1]), PoisonConfig(0.5), 2, lambda r, i: r)
        by_hand = population_of(
            [x for x, _ in clients_of(population)], [y for _, y in clients_of(population)]
        )
        for block in (population.design, population.labels, poisoned.round_labels(1),
                      by_hand.design, by_hand.labels):
            for row in block.reshape(-1, block.shape[-1]):
                assert row.__array_interface__["data"][0] % 64 == 0
        assert by_hand.design.tobytes() == population.design.tobytes()
        assert poisoned.design is population.design
        relabelled = dataclasses.replace(population, labels=by_hand.labels)
        assert relabelled.design is population.design and relabelled.labels is by_hand.labels

        products = []
        matmul = np.matmul

        def spy(a, b, out):
            matmul(a, b, out=out)
            design = a if a.shape[1] == 21 else b
            assert design.shape[2] == widest and np.shares_memory(design, population.design)
            contiguous = matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
            products.append(out.tobytes() == contiguous.tobytes())

        monkeypatch.setattr(np, "matmul", spy)
        cfg, server_variate, variates = train_config(Aggregator.SCAFFOLD, 20)
        weights = 0.1 * np.random.default_rng(8).normal(size=21)
        local_train(weights, population, cfg, server_variate, variates[:3], round_num=0)
        assert len(products) == 2 * cfg.local_epochs and all(products)

    def test_population_is_read_only(self):
        population, _ = generate_population([0.0, 1.0, 0.5], seed=19)
        for array in (population.thetas, population.counts, population.design,
                      population.labels, population.poisoners, population.flips):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


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
    return int(np.count_nonzero((test.design.T @ w > 0.0) == test.labels)) / len(test)


class TestEvaluateAccuracy:
    def test_bayes_direction_scores_high_on_own_data(self):
        population, test = generate_population([1.0], seed=9)
        # Logistic fit on clean data separates the Gaussian mixture well.
        cfg = AggregationConfig(local_epochs=200, learning_rate=1.0)
        weights, _ = local_train(init_model().weights, population, cfg, round_num=0)
        assert evaluate_accuracy(weights, test)[0] > 0.9

    def test_zero_model_predicts_majority_class_zero(self):
        _, test = generate_population([1.0], seed=10)
        (acc,) = evaluate_accuracy(init_model().weights[None], test)
        assert acc == pytest.approx(np.mean(test.labels == 0), abs=1e-15)
        assert 0.45 < acc < 0.55

    def test_returns_a_builtin_float_equal_to_the_mean(self):
        population, test = generate_population([0.6, 0.9], seed=12)
        cfg = AggregationConfig(local_epochs=3)
        weights, _ = local_train(init_model().weights, population, cfg, round_num=0)
        accs = evaluate_accuracy(weights, test)
        assert len(accs) == 2
        for w, acc in zip(weights, accs):
            # A numpy scalar would be written as np.float64(...) into rounds.csv.
            assert type(acc) is float
            assert acc == np.mean((test.design.T @ w > 0.0).astype(int) == test.labels)

    def test_inverted_labels_complement_accuracy(self):
        population, test = generate_population([1.0], seed=12)
        cfg = AggregationConfig(local_epochs=50, learning_rate=1.0)
        weights, _ = local_train(init_model().weights, population, cfg, round_num=0)
        flipped = dataclasses.replace(test, labels=~test.labels)
        (acc,), (acc_flipped,) = (evaluate_accuracy(weights, t) for t in (test, flipped))
        assert acc + acc_flipped == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        _, test = generate_population([0.3], seed=13)
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
        _, test = generate_population([0.5], seed=31)
        weights = scale * np.random.default_rng(seed).normal(size=(m, 21))
        zero = [i for i in zero_rows if i < m]
        weights[zero] = 0.0
        accs = evaluate_accuracy(weights, test)
        assert accs == [accuracy_oracle(w, test) for w in weights]
        for i in zero:
            assert accs[i] == np.mean(test.labels == 0)


class TestPoison:
    def _labels(self):
        """A generated client's clean labels."""
        population, _ = generate_population([1.0], seed=17)
        return population.labels[0, 0, : population.counts[0]]

    def test_zero_rate_is_identity(self):
        labels = self._labels()
        out = poison(labels, PoisonConfig(0.0), 1, np.empty(len(labels)))
        assert np.array_equal(out, labels)

    def test_full_rate_inverts_everything(self):
        labels = self._labels()
        out = poison(labels, PoisonConfig(1.0), 1, np.empty(len(labels)))
        assert np.array_equal(out, 1 - labels)

    def test_half_rate_binomial_bound(self):
        labels = self._labels()
        n = len(labels)
        out = poison(labels, PoisonConfig(0.5), 99, np.empty(n))
        flipped = int(np.sum(out != labels))
        sigma = np.sqrt(n * 0.25)
        assert abs(flipped - n / 2) <= 3 * sigma

    def test_deterministic(self):
        labels = self._labels()
        a = poison(labels, PoisonConfig(0.4), 5, np.empty(len(labels)))
        b = poison(labels, PoisonConfig(0.4), 5, np.empty(len(labels)))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.8, 1.0])
    def test_writes_the_flipped_labels_into_out(self, rate):
        """`out` receives what the copying form returned, bit for bit, and
        the clean labels are left as they were."""
        labels = self._labels()
        kept = labels.tobytes()
        out = np.full(len(labels), 7.0)
        assert poison(labels, PoisonConfig(rate), 11, out) is out
        flips = np.random.default_rng(11).random(len(labels)) < rate
        expected = np.where(flips, 1 - labels, labels).astype(float)
        assert out.tobytes() == expected.tobytes()
        assert labels.tobytes() == kept

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            PoisonConfig(1.5)


class TestTrainingSignal:
    def test_honest_federated_rounds_reach_high_accuracy(self):
        # Fixture seed: 5 honest clients, 20 FedAvg rounds.
        thetas = [1.0] * 5
        population, test = generate_population(thetas, seed=42)
        clients = [population_of([x], [y]) for x, y in clients_of(population)]
        cfg = AggregationConfig(algo=Aggregator.FEDAVG, local_epochs=5, learning_rate=0.5)
        model = init_model()
        for _ in range(20):
            locals_ = [
                ModelParams(local_train(model.weights, c, cfg, round_num=0)[0][0]) for c in clients
            ]
            model = aggregate(locals_, population.counts.tolist(), cfg)
        assert evaluate_accuracy(model.weights[None], test)[0] > 0.9
