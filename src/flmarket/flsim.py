"""Desk-scale synthetic federated learning.

Logistic regression on 20-dimensional Gaussian-mixture data. A client's
efficiency theta controls its data quality: label-noise rate
(1 - theta) * 0.4 and sample count 200 * (1 + theta), so high-theta
clients are measurably more valuable to the global model.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
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
# Bytes and doubles in a cache line: the unit of `_on_lines`' layout.
LINE_BYTES = 64
LINE_DOUBLES = LINE_BYTES // 8


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _lines_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """`shape` with its last axis rounded up to whole cache lines."""
    *lead, width = shape
    return (*lead, -(-width // LINE_DOUBLES) * LINE_DOUBLES)


def _on_lines(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float array of `shape` laid out on cache lines: its first
    element is 64-byte aligned and every row of its last axis starts a
    line, since the row stride is that axis rounded up to whole lines. It
    is the view of the logical shape, of the first `shape[-1]` columns;
    `_whole_lines` gives the rows with their zero pad columns.

    Products over rows that straddle no line boundary run faster, and a
    product that reads only the logical columns has the bits of the same
    product on a contiguous copy."""
    lines = _lines_shape(shape)
    count = math.prod(lines)
    buffer = np.zeros(count + LINE_DOUBLES - 1)
    start = -_address(buffer) % LINE_BYTES // 8
    return buffer[start : start + count].reshape(lines)[..., : shape[-1]]


def _whole_lines(array: np.ndarray) -> np.ndarray:
    """The rows of an `_on_lines` array with their pad columns: the same
    memory, one contiguous block that an elementwise pass runs over, cut
    from the flat buffer that `array` views, so read-only if that buffer is."""
    lines = _lines_shape(array.shape)
    start = (_address(array) - _address(array.base)) // 8
    return array.base[start : start + math.prod(lines)].reshape(lines)


def _laid_on_lines(array: np.ndarray) -> np.ndarray:
    """`array` itself if it is a view of a flat buffer laid out as
    `_on_lines` lays one out, else a copy that is."""
    lines = _lines_shape(array.shape)
    strides = tuple(8 * math.prod(lines[axis + 1 :]) for axis in range(len(lines)))
    base = array.base
    if (isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == array.dtype == np.float64
            and _address(array) % LINE_BYTES == 0 and array.strides == strides):
        return array
    laid = _on_lines(array.shape)
    laid[...] = array
    return laid


@dataclass(frozen=True, eq=False)
class Population:
    """One seed's clients as arrays, client i in row i of each.

    `design` is the feature-major, zero-padded (n, d + 1, m_max) block of
    biased design matrices, the features plus a last row of ones: the first
    `counts[i]` columns of row i are client i's samples, and its padding is
    all zero, bias included, so it adds nothing to a gradient. `labels` is
    the (n, 1, m_max) block of float 0/1 clean labels beside it, zero in
    the padding. `poisoners` holds the rows of the label-flipping clients,
    and `flips[j, r]` the labels the client in row `poisoners[j]` trains on
    in round r, bit-packed (`numpy.packbits` of its `counts` labels, padded
    with zero bytes to m_max bits): `with_poisoners` packs them, and
    `round_labels` unpacks a round's. Every array is read-only, since the
    cells of a seed share the population. A label block of another shape,
    which numpy would broadcast in training, or flips of other than one row
    per poisoner raise ValueError naming both shapes.

    The design and label blocks are laid out on cache lines (`_on_lines`):
    a block that is not, as one built by hand, is copied into that layout,
    and `generate_population` builds its blocks in it, so they are not
    copied.
    """

    thetas: np.ndarray  # (n,)
    counts: np.ndarray  # (n,) sample counts
    design: np.ndarray
    labels: np.ndarray
    poisoners: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    flips: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), dtype=np.uint8))

    def __post_init__(self):
        if len(self.counts) < 1:
            raise ValueError("a population must hold at least one client")
        if self.counts.min() < 1:
            raise ValueError("every client must hold at least one sample")
        n, _, m = self.design.shape
        if m != self.counts.max():
            raise ValueError(
                f"the design block must be as wide as the largest client, "
                f"{self.counts.max()} samples: got shape {self.design.shape}"
            )
        if self.labels.shape != (n, 1, m):
            raise ValueError(f"labels must have shape {(n, 1, m)}: got shape {self.labels.shape}")
        if len(self.flips) != len(self.poisoners):
            raise ValueError(
                f"flips must hold one row per poisoner, poisoners of shape "
                f"{self.poisoners.shape}: got shape {self.flips.shape}"
            )
        for name in ("design", "labels"):
            block = _laid_on_lines(getattr(self, name))
            block.base.flags.writeable = False
            object.__setattr__(self, name, block)
        for array in (self.thetas, self.counts, self.design, self.labels, self.poisoners,
                      self.flips):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def honest(self) -> np.ndarray:
        """(n,) boolean: whether each client trains on its own labels."""
        mask = np.ones(len(self), dtype=bool)
        mask[self.poisoners] = False
        return mask

    def with_poisoners(
        self, rows: np.ndarray, cfg: PoisonConfig, rounds: int, seed_of: Callable[[int, int], int]
    ) -> Population:
        """This population with the clients in `rows` flipping labels in
        rounds 0..rounds-1: client i's labels of round r are `poison` of its
        clean labels under seed `seed_of(r, i)`, drawn here and packed into
        `flips`."""
        packed = np.zeros((len(rows), rounds, (self.labels.shape[2] + 7) // 8), np.uint8)
        for j, i in enumerate(rows.tolist()):
            clean = self.labels[i, 0, : self.counts[i]]
            flipped = np.empty(len(clean), dtype=bool)
            for r in range(rounds):
                packed[j, r, : (len(clean) + 7) // 8] = np.packbits(
                    poison(clean, cfg, seed_of(r, i), flipped)
                )
        return replace(self, poisoners=rows, flips=packed)

    def round_labels(self, round_num: int) -> np.ndarray:
        """The (n, 1, m_max) label block the clients train on in round
        `round_num`: `labels` itself if no client is a poisoner, else a new
        copy of it on cache lines with the poisoners' rows unpacked from
        their flips of the round. For a poisoned population a round outside
        the rounds its flips were drawn for raises ValueError naming both."""
        if not len(self.poisoners):
            return self.labels
        drawn = self.flips.shape[1]
        if not 0 <= round_num < drawn:
            raise ValueError(
                f"round {round_num} has no flipped labels: the poisoners' flips "
                f"were drawn for rounds 0..{drawn - 1} ({drawn} rounds)"
            )
        labels = _on_lines(self.labels.shape)
        labels[...] = self.labels
        labels[self.poisoners, 0] = np.unpackbits(
            self.flips[:, round_num], axis=1, count=labels.shape[2]
        )
        return labels


@dataclass(frozen=True, eq=False)
class HeldOut:
    """The clean held-out test set: its feature-major (d + 1, m) design, so
    one product evaluates a stack of models, and its m boolean labels.
    `generate_population` lays the design out on cache lines."""

    design: np.ndarray
    labels: np.ndarray

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


def generate_population(thetas: list[float], seed: int) -> tuple[Population, HeldOut]:
    """Generate an honest population of clients, client i of theta
    thetas[i], plus a clean held-out test set."""
    if not len(thetas):
        raise ValueError("a population needs at least one client: thetas is empty")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=FEATURE_DIM)
    direction /= np.linalg.norm(direction)
    mu = (CLASS_SEPARATION / 2.0) * direction

    def draw(design: np.ndarray, noise_rate: float) -> np.ndarray:
        """Fill the sample-major `design` and return its noisy 0/1 labels."""
        n = len(design)
        y = rng.integers(0, 2, size=n)
        # The bits of rng.normal(size=(n, FEATURE_DIM)), offset in place.
        features = rng.standard_normal(size=(n, FEATURE_DIM))
        features += (2 * y - 1)[:, None] * mu
        design[:, :-1] = features
        design[:, -1] = 1.0
        flips = rng.random(n) < noise_rate
        return np.where(flips, 1 - y, y)

    counts = np.array([int(round(BASE_SAMPLES * (1.0 + theta))) for theta in thetas])
    design = _on_lines((len(thetas), FEATURE_DIM + 1, counts.max()))
    labels = _on_lines((len(thetas), 1, counts.max()))
    for i, (theta, m) in enumerate(zip(thetas, counts.tolist())):
        labels[i, 0, :m] = draw(design[i, :, :m].T, (1.0 - theta) * NOISE_SCALE)
    test = _on_lines((FEATURE_DIM + 1, TEST_SAMPLES))
    test_labels = draw(test.T, 0.0) == 1
    population = Population(np.array(thetas, dtype=float), counts, design, labels)
    return population, HeldOut(test, test_labels)


def local_train(
    weights: np.ndarray, population: Population, cfg: AggregationConfig,
    server_variate: np.ndarray | None = None, variates: np.ndarray | None = None, *,
    round_num: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run local gradient-descent epochs on logistic loss for every client at once.

    Each epoch is two batched matrix-vector products over the population's
    feature-major (n, d + 1, m_max) design block, -w_i @ X_i and X_i @ r_i;
    padded columns are all zero, bias included, so they add nothing to the
    gradient. The block's rows lie on cache lines (`Population`); the
    products read their m_max = counts.max() logical columns and no pad
    column, since a product over a wider, zero-padded row sums in another
    order and changes bits. The five elementwise steps run over whole,
    contiguous rows of the residual and the label block, pad columns
    included. The clients train in blocks of at most TRAIN_BLOCK_BYTES of
    design, each a view of the whole block, all epochs of one block before
    the next; the clients are independent, so the block size changes no
    bit. The epoch writes only into buffers allocated once per call, so no
    epoch allocates an array. FedProx adds prox_mu * (w - w_global) to the
    gradient. Scaffold corrects each step with (c - c_i), where c is
    `server_variate` and c_i is row i of `variates`, client i's (zeros where
    either is None). The clients train on their labels of round
    `round_num` (`Population.round_labels`), a poisoner's flipped ones. Every
    input is only read; committing the variates is the caller's. Returns the
    (n, d + 1) local weights, row i client i's, and beside them the proposed
    c_i+ (option II), None unless Scaffold trained with a learning rate
    above 0; raises FloatingPointError, naming the clients by row, if any
    trained weight is not finite (a learning rate that diverges), and
    ValueError, naming both shapes, if `variates` is given in any shape but
    (n, d + 1), which numpy would otherwise broadcast.

    The loop keeps the negated weights -w, so the first product gives the
    negated logits -z and sigmoid(z) = 1 / (1 + exp(-z)) needs one clamp,
    -z <= 40. A second clamp, z <= 40, would change no bit: from z of about
    37 on, 1 + exp(-z) already rounds to 1. Negation is exact through every
    product, sum and step, so each weight has the bits of the step
    w -= lr * grad, save that a weight of exactly zero may carry the other
    sign.
    """
    x, y = population.design, _whole_lines(population.round_labels(round_num))
    n, dim, rows = x.shape
    if variates is not None and variates.shape != (n, dim):
        raise ValueError(
            f"variates must hold one c_i row of {dim} per client, shape ({n}, {dim}): "
            f"got {variates.shape[0]} rows for {n} clients, shape {variates.shape}"
        )
    counts = population.counts.astype(float)[:, None]
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
    # residuals, (b, 1, m_max) on cache lines, seen as columns by the second
    # product, and their whole lines, which the elementwise steps run over
    # (the pad columns stay finite, and no product reads them); the
    # gradient, (b, d + 1); and FedProx's pull.
    nw = np.empty((n, dim))
    np.negative(w_global, out=nw)
    step = min(n, max(1, TRAIN_BLOCK_BYTES // x[0].nbytes))
    residual = _on_lines((step, 1, rows))
    lines = _whole_lines(residual)
    grad_cols = np.empty((step, dim, 1))
    pull = np.empty((step, dim))
    # A diverging run overflows here; the finiteness check below names it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            xb, yb, nwb, count = x[block], y[block], nw[block], counts[block]
            b = len(xb)
            logits, res_cols = residual[:b], residual[:b].transpose(0, 2, 1)
            res = lines[:b]
            grad_b, pull_b = grad_cols[:b], pull[:b]
            grad, nw_rows = grad_b[:, :, 0], nwb[:, None, :]
            shift = None if correction is None else correction[block]
            for _ in range(cfg.local_epochs):
                np.matmul(nw_rows, xb, out=logits)
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


def evaluate_accuracy(weights: np.ndarray, test: HeldOut) -> list[float]:
    """Test accuracy of each row of an (m, d + 1) stack of weights, as Python
    floats. Products of the stack with the test set's feature-major design
    give every model's logits, and a logit > 0 predicts class 1, so ties at
    the boundary go to class 0."""
    logits = np.empty((len(weights), len(test)))
    for start in range(0, len(weights), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        np.matmul(weights[rows], test.design, out=logits[rows])
    hits = (logits > 0.0) == test.labels
    return [int(np.count_nonzero(row)) / len(test) for row in hits]


def poison(labels: np.ndarray, cfg: PoisonConfig, seed: int, out: np.ndarray) -> np.ndarray:
    """Write the 0/1 `labels` into `out` with each one flipped independently
    with probability cfg.flip_rate, and return `out`. The flips are the
    draws `np.random.default_rng(seed).random(len(labels)) < flip_rate`."""
    flips = np.random.default_rng(seed).random(len(labels)) < cfg.flip_rate
    return np.not_equal(labels, flips, out=out)
