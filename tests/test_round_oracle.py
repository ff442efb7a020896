"""A round oracle that shares no code with `run_round`.

`reference_round` plays one round of one cell from the definitions, in
plain loops: each client trains alone (`reference_train`), the selected
local models are averaged by an explicit sample-weighted sum, test hits are
counted sample by sample, each client's Banzhaf index is the mean of its
marginals over every subset of the others (`itertools`), reputations step
by w1 * epsilon + w2 * zeta, and the records go into a list-backed chain
hashed with `hashlib.blake2s`, which is read under the cell's trust policy.
Only the population's data and the ledger's tamper log are taken from the
package.

Selections, the records' rounds and client ids, and the chain's digests
(BLAKE2s of each stored record's fields and the digest before it) must
match exactly; weights, accuracies, zetas and epsilons must agree within
1e-12, since the batched epoch and the coalition table sum in another
order.
"""

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_flsim import reference_train

from flmarket.auction import _fresh_state, _model_tree, build_population, run_round
from flmarket.config import ExperimentConfig
from flmarket.flsim import AggregationConfig, Aggregator
from flmarket.ledger import TRUST_POLICIES, TamperConfig, tamper_attack

TOL = 1e-12


def client_data(population):
    """Each client's (theta, sample-major design, clean 0/1 labels, whether
    it poisons), in id order."""
    return [
        (theta, population.design[i, :, :m].T, population.labels[i, 0, :m],
         i in population.poisoners.tolist())
        for i, (theta, m) in enumerate(zip(population.thetas.tolist(), population.counts.tolist()))
    ]


def held_out(test):
    """The held-out test set's sample-major design and its 0/1 labels."""
    return test.design.T, test.labels


def blake2s_digest(rnd, client, zeta, eps, prev):
    """A record's digest: BLAKE2s-256 of its little-endian (round, client,
    zeta, epsilon) payload followed by the digest before it."""
    return hashlib.blake2s(struct.pack("<qqdd", rnd, client, zeta, eps) + prev).digest()


@dataclass
class ReferenceCell:
    """One cell's state, kept from the definitions: its model, Scaffold
    variates and a list-backed chain of [round, client, zeta, epsilon,
    prev digest, digest] records (digests only when `chained`)."""

    clients: list
    test: tuple
    agg: AggregationConfig
    lam: float
    delta: float
    w1: float
    w2: float
    k: int
    policy: str
    chained: bool
    seed: int
    flip_rate: float
    weights: np.ndarray = field(init=False)
    server_variate: np.ndarray = field(init=False)
    variates: list = field(init=False)
    chain: list = field(init=False, default_factory=list)

    def __post_init__(self):
        dim = len(self.test[0][0])
        self.weights = np.zeros(dim)
        self.server_variate = np.zeros(dim)
        self.variates = [np.zeros(dim) for _ in self.clients]

    def intact(self, idx):
        if not self.chained:
            return True
        rnd, client, zeta, eps, prev, digest = self.chain[idx]
        before = self.chain[idx - 1][5] if idx else bytes(32)
        return prev == before and digest == blake2s_digest(rnd, client, zeta, eps, prev)

    def read(self, client, policy):
        """The client's reputation under `policy`: 0 for an unknown client;
        under "zero", its newest epsilon if every record of it is intact and
        0 otherwise; under "last_valid", the epsilon of its newest intact
        record, or 0 if none is."""
        mine = [i for i, rec in enumerate(self.chain) if rec[1] == client]
        if not mine:
            return 0.0
        if policy == "zero":
            return self.chain[mine[-1]][3] if all(self.intact(i) for i in mine) else 0.0
        for i in reversed(mine):
            if self.intact(i):
                return self.chain[i][3]
        return 0.0

    def append(self, rnd, client, zeta, eps):
        prev = self.chain[-1][5] if self.chain else bytes(32)
        digest = blake2s_digest(rnd, client, zeta, eps, prev) if self.chained else b""
        self.chain.append([rnd, client, zeta, eps, prev, digest])


def accuracy(weights, test):
    """The share of test samples whose logit's sign (> 0 is class 1)
    matches their label, counted one sample at a time."""
    design, labels = test
    hits = 0
    for logit, label in zip((design @ weights).tolist(), labels.tolist()):
        hits += (logit > 0.0) == bool(label)
    return hits / len(labels)


def banzhaf(values):
    """Each player's mean marginal v(S + i) - v(S) over every subset S of
    the others, in the additive game v(S) = sum of its members' values."""
    n = len(values)
    zetas = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        total = 0.0
        for size in range(n):
            for subset in itertools.combinations(others, size):
                total += sum(values[j] for j in subset + (i,)) - sum(values[j] for j in subset)
        zetas.append(total / 2 ** (n - 1))
    return zetas


def realized(cell, accuracies, start):
    """Each client's realized value, lam * q - q^2 / (1 + delta * theta),
    of its accuracy gain q over `start`."""
    values = []
    for (theta, *_), acc in zip(cell.clients, accuracies):
        q = acc - start
        values.append(cell.lam * q - q * q / (1.0 + cell.delta * theta))
    return values


def reference_round(cell, rnd):
    """Play round `rnd` of `cell` and return what it played: the selection,
    the start accuracy, each client's local weights, proposed variate and
    accuracy, the new global weights and accuracy, the zetas and the new
    epsilons."""
    n = len(cell.clients)
    eps_prev = [cell.read(i, cell.policy) for i in range(n)]
    selected = sorted(range(n), key=lambda i: (-eps_prev[i], i))[: min(cell.k, n)]
    start = accuracy(cell.weights, cell.test)
    local, proposed = [], []
    for i, (theta, design, labels, poisoner) in enumerate(cell.clients):
        if poisoner:
            draw_seed = (cell.seed * 1_000_003 + rnd * 10_007 + i) % (1 << 63)
            flips = np.random.default_rng(draw_seed).random(len(labels)) < cell.flip_rate
            labels = [1 - y if f else y for y, f in zip(labels.tolist(), flips.tolist())]
        w, c = reference_train(
            cell.weights, design, labels, cell.agg, cell.server_variate, cell.variates[i]
        )
        local.append(w)
        proposed.append(c)
    counts = [len(cell.clients[i][2]) for i in selected]
    merged = sum(m * local[i] for m, i in zip(counts, selected)) / sum(counts)
    if proposed[0] is not None:
        step = sum(proposed[i] - cell.variates[i] for i in selected) / n
        cell.server_variate = cell.server_variate + step
        for i in selected:
            cell.variates[i] = proposed[i]
    local_acc = [accuracy(w, cell.test) for w in local]
    zetas = banzhaf(realized(cell, local_acc, start))
    epsilons = [cell.w1 * e + cell.w2 * z for e, z in zip(eps_prev, zetas)]
    for i in range(n):
        cell.append(rnd, i, zetas[i], epsilons[i])
    cell.weights = merged
    return dict(
        selected=selected, start=start, local=local, local_acc=local_acc, merged=merged,
        accuracy=accuracy(merged, cell.test), zetas=zetas, epsilons=epsilons,
    )


def close(a, b):
    return np.allclose(a, b, rtol=0.0, atol=TOL)


@st.composite
def round_cases(draw):
    n = draw(st.integers(1, 6))
    aggregation = draw(st.sampled_from(list(Aggregator)))
    config = ExperimentConfig(
        n_clients=n,
        k_values=[draw(st.integers(1, n))],
        rounds=draw(st.integers(1, 5)),
        seeds=[draw(st.integers(0, 50))],
        aggregation=aggregation,
        local_epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        prox_mu=draw(st.sampled_from([0.0, 0.5])) if aggregation is Aggregator.FEDPROX else 0.0,
        w1=(w1 := draw(st.sampled_from([0.25, 0.5, 0.9]))),
        w2=1.0 - w1,
        theta_min=0.2,
        theta_max=1.0,
        poison_count=draw(st.integers(0, n)),
        poison_flip_rate=draw(st.sampled_from([0.5, 0.8, 1.0])),
        trust_policy=draw(st.sampled_from(TRUST_POLICIES)),
    )
    config.validate()
    mode = draw(st.sampled_from(["chained", "vulnerable"]))
    tampered = draw(st.sets(st.integers(0, config.rounds - 1)))
    alpha, beta = draw(st.sampled_from([0.2, 0.5, 1.0])), draw(st.sampled_from([1.5, 3.0]))
    return config, mode, tampered, TamperConfig(alpha, beta, config.seeds[0])


class TestRoundOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=round_cases())
    def test_run_round_plays_the_reference_round(self, case):
        config, mode, tampered, tamper = case
        seed, k, n = config.seeds[0], config.k_values[0], config.n_clients
        population, test = build_population(config, seed)
        state = _fresh_state(config, _model_tree(config, population, test), mode)
        cell = ReferenceCell(
            client_data(population), held_out(test),
            AggregationConfig(config.aggregation, config.local_epochs, config.learning_rate,
                              config.prox_mu),
            config.lam, config.delta, config.w1, config.w2, k, config.trust_policy,
            mode == "chained", seed, config.poison_flip_rate,
        )
        for rnd in range(config.rounds):
            node, start = state.node, len(state.ledger.records)
            rep = run_round(state, k)
            ref = reference_round(cell, rnd)
            assert rep.selected == ref["selected"]
            assert rep.round == rnd
            assert math.isclose(node.accuracy, ref["start"], rel_tol=0.0, abs_tol=TOL)
            assert close(node.local_weights, ref["local"])
            local_acc = [accuracy(w, cell.test) for w in node.local_weights]
            assert close(local_acc, ref["local_acc"])
            assert close(state.node.weights, ref["merged"])
            assert math.isclose(rep.accuracy_global, ref["accuracy"], rel_tol=0.0, abs_tol=TOL)
            # Each client's zeta values its local model's gain over the
            # node the round started from.
            assert close(node.zetas, realized(cell, local_acc, node.accuracy))
            assert close(node.zetas, ref["zetas"])
            assert rep.epsilons.shape == (n,)
            assert close(rep.epsilons, ref["epsilons"])
            assert close(state.node.server_variate, cell.server_variate)
            assert close(state.node.variates, cell.variates)
            # The round's records: fields in order, and on the chain each
            # digest is BLAKE2s of the record's fields and the digest before.
            records = state.ledger.records
            new, mine = records[start:], cell.chain[start:]
            assert [(r.round, r.client_id) for r in new] == [(m[0], m[1]) for m in mine]
            assert close([r.zeta for r in new], [m[2] for m in mine])
            assert close([r.epsilon for r in new], [m[3] for m in mine])
            if mode == "chained":
                prev = records[start - 1].record_hash if start else bytes(32)
                for r in new:
                    digest = blake2s_digest(r.round, r.client_id, r.zeta, r.epsilon, prev)
                    assert (r.prev_hash, r.record_hash) == (prev, digest)
                    prev = digest
            if rnd in tampered:
                for idx, client, _, _ in tamper_attack(state.ledger, tamper):
                    assert cell.chain[idx][1] == client
                    cell.chain[idx][3] *= tamper.beta
            for policy in TRUST_POLICIES:
                reads = state.ledger.read(range(n), policy)
                assert close(reads, [cell.read(i, policy) for i in range(n)])
