"""Desk-scale synthetic federated learning.

Logistic regression on 20-dimensional Gaussian-mixture data. A client's
efficiency theta controls its data quality: label-noise rate
(1 - theta) * 0.4 and sample count 200 * (1 + theta), so high-theta
clients are measurably more valuable to the global model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEATURE_DIM = 20
CLASS_SEPARATION = 4.0  # distance between class means; Bayes accuracy ~0.977
NOISE_SCALE = 0.4
BASE_SAMPLES = 200
TEST_SAMPLES = 2000
# Models per evaluation product. The OpenBLAS that numpy ships hands a
# (rows, 21) @ (21, 2000) product to a second thread from about 24 rows on,
# and that thread then spins between rounds: one product of 41 models a
# round nearly doubled the CPU time of a 40-client grid. Products of at
# most 16 rows stay on the calling thread.
EVAL_ROWS = 16
# Bytes of design block that local training runs its epochs over at a
# time. A block that fits in L2 stays in cache across the epochs: on a Xeon
# with 2 MB of L2 per core, an epoch of clients with about 400 samples each
# cost 4.5 us a client in 1 MB blocks, against 6.7 us in one 2.6 MB block
# of 40 clients and 7.8 us in one 4.1 MB block of 64.
TRAIN_BLOCK_BYTES = 1 << 20


@dataclass
class SyntheticDataset:
    """Samples of one client, or the held-out test set.

    `design` is the biased design matrix: the features plus a last column
    of ones. A generated client's `design` is the view
    `block[row, :, :len(self)].T` and its float 0/1 `labels` the view
    `label_block[row, 0, :len(self)]`, where `block` is a feature-major,
    zero-padded (clients, d + 1, rows) array that holds a whole population
    and `label_block` the (clients, 1, rows) labels beside it, so a round
    trains every client on the two blocks as they are. A generated client's
    `row` is its position in the population. The held-out test set's
    `block` is its own feature-major (d + 1, rows) design, `design` its
    view, and its `labels` a boolean row, so one product with `block`
    evaluates a stack of models. A dataset built on its own has no block
    and keeps its sample-major design.
    """

    design: np.ndarray  # (n, d + 1), last column all ones
    labels: np.ndarray  # (n,) values in {0, 1}
    true_labels: np.ndarray | None = None  # pre-noise labels, for diagnostics
    block: np.ndarray | None = field(default=None, repr=False)
    label_block: np.ndarray | None = field(default=None, repr=False)
    row: int = 0

    def __post_init__(self):
        if len(self.design) < 1:
            raise ValueError("dataset must contain at least one sample")
        if len(self.labels) != len(self.design):
            raise ValueError("labels length must match design rows")

    @property
    def features(self) -> np.ndarray:
        return self.design[:, :-1]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ModelParams:
    weights: np.ndarray  # (d + 1,), last entry is the bias


def init_model(dim: int = FEATURE_DIM) -> ModelParams:
    return ModelParams(np.zeros(dim + 1))


class Aggregator(Enum):
    FEDAVG = "fedavg"
    FEDPROX = "fedprox"
    SCAFFOLD = "scaffold"


@dataclass(frozen=True)
class AggregationConfig:
    """Local-training hyperparameters. The Scaffold control variates are
    round state, held by the caller and passed to `local_train`."""

    algo: Aggregator = Aggregator.FEDAVG
    local_epochs: int = 5
    learning_rate: float = 0.5
    prox_mu: float = 0.0

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be a positive integer")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be nonnegative and finite")
        if not 0.0 <= self.prox_mu < math.inf:
            raise ValueError("prox_mu must be nonnegative and finite")


@dataclass(frozen=True)
class PoisonConfig:
    flip_rate: float

    def __post_init__(self):
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("flip_rate must lie in [0, 1]")


def generate_population(
    n_clients: int, thetas: list[float], seed: int
) -> tuple[list[SyntheticDataset], SyntheticDataset]:
    """Generate per-client training sets plus a clean held-out test set."""
    if n_clients == 0:
        raise ValueError("n_clients must be positive")
    if len(thetas) != n_clients:
        raise ValueError("thetas length must equal n_clients")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=FEATURE_DIM)
    direction /= np.linalg.norm(direction)
    mu = (CLASS_SEPARATION / 2.0) * direction

    def draw(design: np.ndarray, noise_rate: float) -> tuple[np.ndarray, np.ndarray]:
        n = len(design)
        y = rng.integers(0, 2, size=n)
        design[:, :-1] = rng.normal(size=(n, FEATURE_DIM)) + (2 * y - 1)[:, None] * mu
        design[:, -1] = 1.0
        flips = rng.random(n) < noise_rate
        return np.where(flips, 1 - y, y), y

    counts = [int(round(BASE_SAMPLES * (1.0 + theta))) for theta in thetas]
    block = np.zeros((n_clients, FEATURE_DIM + 1, max(counts)))
    label_block = np.zeros((n_clients, 1, max(counts)))
    datasets = []
    for i, (theta, n) in enumerate(zip(thetas, counts)):
        design = block[i, :, :n].T
        label_block[i, 0, :n], y = draw(design, (1.0 - theta) * NOISE_SCALE)
        labels = label_block[i, 0, :n]
        datasets.append(SyntheticDataset(design, labels, y, block, label_block, i))
    test_block = np.empty((FEATURE_DIM + 1, TEST_SAMPLES))
    labels, y = draw(test_block.T, 0.0)
    return datasets, SyntheticDataset(test_block.T, labels == 1, y, test_block)


def _blocks(
    datasets: list[SyntheticDataset], labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The feature-major, zero-padded (n, d + 1, m_max) design block of
    `datasets`, in order, and the (n, 1, m_max) float label block beside it.

    `labels`, if given, is a label block of the datasets' population that
    stands in for its own (a round's poisoned labels). When the datasets
    are exactly the rows of one population block, that block and the label
    block are returned as they are; otherwise their rows are copied and
    padded into new ones.
    """
    block = datasets[0].block
    if (
        block is not None
        and len(datasets) == len(block)
        and all(d.block is block and d.row == i for i, d in enumerate(datasets))
    ):
        return block, datasets[0].label_block if labels is None else labels
    dim = datasets[0].design.shape[1]
    rows = max(len(d) for d in datasets)
    x = np.zeros((len(datasets), dim, rows))
    y = np.zeros((len(datasets), 1, rows))
    for i, d in enumerate(datasets):
        x[i, :, : len(d)] = d.design.T
        y[i, 0, : len(d)] = d.labels if labels is None else labels[d.row, 0, : len(d)]
    return x, y


def local_train(
    weights: np.ndarray, datasets: list[SyntheticDataset], cfg: AggregationConfig,
    server_variate: np.ndarray | None = None, variates: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run local gradient-descent epochs on logistic loss for every client at once.

    Each epoch is two batched matrix-vector products over the feature-major
    (n, d + 1, m_max) design block, -w_i @ X_i and X_i @ r_i; padded columns
    are all zero, bias included, so they add nothing to the gradient. The
    clients train in blocks of at most TRAIN_BLOCK_BYTES of design, each a
    view of the whole block, all epochs of one block before the next; the
    clients are independent, so the block size changes no bit. The epoch
    writes only into buffers allocated once per call, so no epoch allocates
    an array. FedProx adds prox_mu * (w - w_global) to the gradient.
    Scaffold corrects each step with (c - c_i), where c is `server_variate`
    and c_i is row i of `variates`, the c_i of `datasets[i]` (zeros where
    either is None). `labels`, if given, stands in for the label block of
    the datasets' population (see `_blocks`). Every input is only read;
    committing the variates is the caller's. Returns the (n, d + 1) local
    weights, row i trained on `datasets[i]`, and beside them the proposed
    c_i+ (option II), None unless Scaffold trained with a learning rate
    above 0; raises FloatingPointError, naming the clients by position, if
    any trained weight is not finite (a learning rate that diverges), and
    ValueError, naming both row counts, if `variates` is given in any shape
    but (n, d + 1), which numpy would otherwise broadcast.

    The loop keeps the negated weights -w, so the first product gives the
    negated logits -z and sigmoid(z) = 1 / (1 + exp(-z)) needs one clamp,
    -z <= 40. A second clamp, z <= 40, would change no bit: from z of about
    37 on, 1 + exp(-z) already rounds to 1. Negation is exact through every
    product, sum and step, so each weight has the bits of the step
    w -= lr * grad, save that a weight of exactly zero may carry the other
    sign.
    """
    if not datasets:
        raise ValueError("cannot train on zero datasets")
    x, y = _blocks(datasets, labels)
    n, dim, rows = x.shape
    if variates is not None and variates.shape != (n, dim):
        raise ValueError(
            f"variates must hold one c_i row of {dim} per dataset, shape ({n}, {dim}): "
            f"got {variates.shape[0]} rows for {n} datasets, shape {variates.shape}"
        )
    counts = np.array([len(d) for d in datasets], dtype=float)[:, None]
    w_global = weights
    lr = cfg.learning_rate
    prox = cfg.algo is Aggregator.FEDPROX
    correction = None
    if cfg.algo is Aggregator.SCAFFOLD:
        c = np.zeros_like(w_global) if server_variate is None else server_variate
        c_i = np.zeros((n, dim)) if variates is None else variates
        correction = c - c_i

    # The trained negated weights, (n, d + 1), and the epoch buffers of one
    # block of clients, which every block reuses: logits that become
    # residuals, (b, 1, m_max), seen as columns by the second product; the
    # gradient, (b, d + 1); and FedProx's pull.
    nw = np.empty((n, dim))
    np.negative(w_global, out=nw)
    step = min(n, max(1, TRAIN_BLOCK_BYTES // x[0].nbytes))
    residual = np.empty((step, 1, rows))
    grad_cols = np.empty((step, dim, 1))
    pull = np.empty((step, dim))
    # A diverging run overflows here; the finiteness check below names it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            xb, yb, nwb, count = x[block], y[block], nw[block], counts[block]
            b = len(xb)
            res, res_cols = residual[:b], residual[:b].reshape(b, rows, 1)
            grad_b, pull_b = grad_cols[:b], pull[:b]
            grad, nw_rows = grad_b[:, :, 0], nwb[:, None, :]
            shift = None if correction is None else correction[block]
            for _ in range(cfg.local_epochs):
                np.matmul(nw_rows, xb, out=res)
                np.minimum(res, 40.0, out=res)
                np.exp(res, out=res)
                res += 1.0
                np.divide(1.0, res, out=res)
                res -= yb
                np.matmul(xb, res_cols, out=grad_b)
                grad /= count
                if prox:
                    np.add(nwb, w_global, out=pull_b)
                    pull_b *= cfg.prox_mu
                    grad -= pull_b
                elif shift is not None:
                    grad += shift
                grad *= lr
                nwb += grad
    w = np.negative(nw, out=nw)
    if not np.isfinite(w).all():
        diverged = np.flatnonzero(~np.isfinite(w).all(axis=1)).tolist()
        raise FloatingPointError(
            f"local training diverged: clients {diverged} have non-finite weights "
            f"after {cfg.local_epochs} epochs at learning_rate = {lr!r}"
        )

    if cfg.algo is Aggregator.SCAFFOLD and lr > 0.0:
        return w, c_i - c + (w_global - w) / (cfg.local_epochs * lr)
    return w, None


def aggregate(
    models: list[ModelParams], sample_counts: list[int], cfg: AggregationConfig
) -> ModelParams:
    """Sample-count-weighted average of local models, whatever `cfg.algo` is.

    Raises FloatingPointError if the average is not finite, which finite
    local weights of magnitude near the float maximum can overflow to.
    """
    if not models:
        raise ValueError("cannot aggregate zero models")
    if len(models) != len(sample_counts):
        raise ValueError("models and sample_counts must have equal length")
    counts = np.asarray(sample_counts, dtype=float)
    stacked = np.array([m.weights for m in models])
    with np.errstate(over="ignore", invalid="ignore"):
        merged = (counts[:, None] * stacked).sum(axis=0) / counts.sum()
    if not np.isfinite(merged).all():
        raise FloatingPointError(
            f"aggregation diverged: the global model of {len(models)} local models "
            "has non-finite weights"
        )
    return ModelParams(merged)


def evaluate_accuracy(weights: np.ndarray, test: SyntheticDataset) -> list[float]:
    """Test accuracy of each row of an (m, d + 1) stack of weights, as Python
    floats. Products of the stack with the test set's feature-major block
    give every model's logits, and a logit > 0 predicts class 1, so ties at
    the boundary go to class 0."""
    logits = np.empty((len(weights), len(test)))
    for start in range(0, len(weights), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        np.matmul(weights[rows], test.block, out=logits[rows])
    hits = (logits > 0.0) == test.labels
    return [int(np.count_nonzero(row)) / len(test) for row in hits]


def poison(labels: np.ndarray, cfg: PoisonConfig, seed: int, out: np.ndarray) -> np.ndarray:
    """Write the 0/1 `labels` into `out` with each one flipped independently
    with probability cfg.flip_rate, and return `out`. The flips are the
    draws `np.random.default_rng(seed).random(len(labels)) < flip_rate`."""
    flips = np.random.default_rng(seed).random(len(labels)) < cfg.flip_rate
    return np.not_equal(labels, flips, out=out)
