"""Tamper-evident reputation storage.

HashChainLedger is an append-only log where each record's BLAKE2s-256
digest covers the previous record's digest, so any in-place edit of a past
record is detectable. The digest was SHA-256 of the same bytes before, so a
ledger file saved with SHA-256 digests reads as tampered at index 0.
PlainStore is the deliberately vulnerable comparison: same interface, no
integrity checking. Both index each client's record positions and share one
read path, which judges a record by the store's `_intact`, so a read touches
only the records of the clients it reads. A read takes a sequence of client
ids and returns one reputation per client, the epsilon a cell reads under
a trust policy (`read`, which picks `read_last_valid` or `read_reputation`);
a client with no record reads 0.0. `read_last_valid` re-hashes from each
client's newest record back to the first intact one (one hash when nothing
was edited), and only `read_reputation` re-hashes each client's whole
history. On the chain, `verify` and both reads judge a record by one
integrity check, `_sound`; the plain store takes every record as intact.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

GENESIS_HASH = bytes(32)
_PAYLOAD = struct.Struct("<qqdd")  # round, client_id, zeta, epsilon (LE)
RECORD_SIZE = _PAYLOAD.size + 32 + 32  # payload + prev_hash + record_hash


@dataclass(slots=True)
class ReputationRecord:
    round: int
    client_id: int
    zeta: float
    epsilon: float
    prev_hash: bytes = GENESIS_HASH
    record_hash: bytes = b""

    def _digested(self) -> bytes:
        """The bytes a digest covers: the packed payload, then `prev_hash`."""
        return _PAYLOAD.pack(self.round, self.client_id, self.zeta, self.epsilon) + self.prev_hash

    def compute_hash(self) -> bytes:
        """BLAKE2s-256 of `_digested()`.

        The module's one digest path: `append` and the integrity check
        `_sound`, which `verify` and both reads go through, hash here. Files
        saved when this was SHA-256 of the same bytes read as tampered at
        index 0.
        """
        return hashlib.blake2s(self._digested()).digest()

    def to_bytes(self) -> bytes:
        return self._digested() + self.record_hash

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ReputationRecord":
        if len(raw) != RECORD_SIZE:
            raise ValueError(f"record must be {RECORD_SIZE} bytes, got {len(raw)}")
        rnd, client, zeta, eps = _PAYLOAD.unpack(raw[: _PAYLOAD.size])
        prev_hash = raw[_PAYLOAD.size : _PAYLOAD.size + 32]
        record_hash = raw[_PAYLOAD.size + 32 :]
        return cls(rnd, client, zeta, eps, prev_hash, record_hash)


@dataclass(frozen=True)
class TamperConfig:
    alpha: float  # fraction of clients attacked
    beta: float  # multiplicative inflation applied to stored epsilon
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")


class _IndexedStore:
    """Records plus, per client, the positions of its records in `records`.

    Only `_push` fills the index, so it is a hint that an edit made through
    `records` cannot redirect: a read still looks at the record now stored at
    each of the client's positions. Positions past the end of `records` are
    dropped, so a truncated tail reads as if it had never been appended.
    """

    def __init__(self):
        self.records: list[ReputationRecord] = []
        self._positions: dict[int, list[int]] = {}
        self._end = 0  # len(records) when the index was last brought up to date

    def __len__(self) -> int:
        return len(self.records)

    def _drop_truncated(self) -> None:
        n = len(self.records)
        if n < self._end:
            for client_id, positions in list(self._positions.items()):
                del positions[bisect.bisect_left(positions, n) :]
                if not positions:
                    del self._positions[client_id]
        self._end = n

    def _push(self, record: ReputationRecord) -> ReputationRecord:
        """Append a record and index it; rounds never decrease."""
        self._drop_truncated()
        if self.records and record.round < self.records[-1].round:
            raise ValueError(
                f"round {record.round} precedes latest stored round {self.records[-1].round}"
            )
        self._positions.setdefault(record.client_id, []).append(len(self.records))
        self.records.append(record)
        self._end += 1
        return record

    def client_ids(self) -> list[int]:
        self._drop_truncated()
        return sorted(self._positions)

    def _indexed(self, client_ids) -> list[tuple[int, list[int]]]:
        """Each client of `client_ids` with the positions of its records,
        oldest first (none for a client with no record), from one sync of
        the index. The lists are the index's own: read them, do not change
        them."""
        self._drop_truncated()
        return [(c, self._positions.get(c, [])) for c in client_ids]

    def read(self, client_ids, policy: str) -> list[float]:
        """Each client's reputation under the trust `policy`: its
        `read_last_valid` under "last_valid", its `read_reputation` under
        "zero". Both are called through `self`, so a method rebound in the
        class is the one called."""
        if policy == TRUST_LAST_VALID:
            return self.read_last_valid(client_ids)
        if policy == TRUST_ZERO:
            return self.read_reputation(client_ids)
        raise ValueError(f"unknown trust policy {policy!r}")

    def read_reputation(self, client_ids) -> list[float]:
        """Each client's newest stored epsilon if every record of it is
        intact (the store's `_intact`), else 0.0; each read checks all of
        them, oldest first, up to the first that fails."""
        return [
            self.records[positions[-1]].epsilon
            if positions and all(self._intact(i, c) for i in positions) else 0.0
            for c, positions in self._indexed(client_ids)
        ]

    def read_last_valid(self, client_ids) -> list[float]:
        """Each client's epsilon from its newest intact record, or 0.0 if
        none is."""
        return [
            next((self.records[i].epsilon for i in reversed(positions) if self._intact(i, c)), 0.0)
            for c, positions in self._indexed(client_ids)
        ]


class HashChainLedger(_IndexedStore):
    """Append-only hash-chained store for reputation records."""

    def append(self, round: int, client_id: int, zeta: float, epsilon: float) -> ReputationRecord:
        prev_hash = self.records[-1].record_hash if self.records else GENESIS_HASH
        record = ReputationRecord(round, client_id, zeta, epsilon, prev_hash)
        record.record_hash = record.compute_hash()
        return self._push(record)

    def _sound(self, idx: int) -> bool:
        """The ledger's one integrity check: whether the record at `idx`
        links to the stored digest of the record before it (the genesis
        digest at index 0) and matches its own digest."""
        rec = self.records[idx]
        expected_prev = self.records[idx - 1].record_hash if idx else GENESIS_HASH
        return rec.prev_hash == expected_prev and rec.record_hash == rec.compute_hash()

    def verify(self) -> int | None:
        """Index of the first record failing the integrity check, or None."""
        return next((i for i in range(len(self.records)) if not self._sound(i)), None)

    def _intact(self, idx: int, client_id: int) -> bool:
        """Whether the record at `idx` is still the client's and passes the
        integrity check."""
        return self.records[idx].client_id == client_id and self._sound(idx)

    # Bound in the class itself: `benchmarks/tracer.py` times these reads
    # by rebinding them in the class that it names.
    read_reputation = _IndexedStore.read_reputation
    read_last_valid = _IndexedStore.read_last_valid

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", len(self.records)))
            for rec in self.records:
                fh.write(rec.to_bytes())

    @classmethod
    def load(cls, path) -> "HashChainLedger":
        with open(path, "rb") as fh:
            raw = fh.read()
        ledger = cls()
        if not raw:  # empty file is an empty (valid) chain
            return ledger
        if len(raw) < 8:
            raise ValueError("ledger file truncated: missing record count")
        (count,) = struct.unpack("<q", raw[:8])
        if count < 0:
            raise ValueError(f"ledger file corrupt: negative record count {count}")
        body = raw[8:]
        if len(body) != count * RECORD_SIZE:
            raise ValueError(
                f"ledger file corrupt: expected {count * RECORD_SIZE} record bytes, "
                f"got {len(body)}"
            )
        for i in range(count):
            ledger._push(
                ReputationRecord.from_bytes(body[i * RECORD_SIZE : (i + 1) * RECORD_SIZE])
            )
        return ledger


class PlainStore(_IndexedStore):
    """Vulnerable comparison store: identical record layout, no hashing, so
    tampering is undetectable by design."""

    def append(self, round: int, client_id: int, zeta: float, epsilon: float) -> ReputationRecord:
        return self._push(ReputationRecord(round, client_id, zeta, epsilon))

    def _intact(self, idx: int, client_id: int) -> bool:
        """With no digests, every record reads as intact."""
        return True

    read_reputation = _IndexedStore.read_reputation  # as in HashChainLedger


# The store behind each ledger mode a config may name.
STORES = {"chained": HashChainLedger, "vulnerable": PlainStore}

# The trust policies a config may name: "zero" reads a client with any
# tampered record as reputationless, "last_valid" falls back to its newest
# intact record.
TRUST_ZERO = "zero"
TRUST_LAST_VALID = "last_valid"
TRUST_POLICIES = (TRUST_ZERO, TRUST_LAST_VALID)


@functools.lru_cache(maxsize=4)
def _tie_break(seed: int, n: int) -> tuple[int, ...]:
    """tamper_attack's tie-break ranks of n clients in id order, a
    permutation of range(n) drawn from `seed`: fixed for a cell, whose
    client set stops changing after its first round, so drawn once per
    (seed, n), and a tuple, so no caller can change a later call's."""
    return tuple(np.random.default_rng(seed).permutation(n).tolist())


def tamper_attack(store, cfg: TamperConfig) -> list[tuple[int, int, float, float]]:
    """Inflate the latest stored epsilon of the lowest-reputation clients.

    Models self-interested cheating: the ceil(alpha * n) clients with the
    lowest stored epsilon — the ones with the most to gain — multiply their
    latest record's epsilon by beta. Mutates records in place without
    recomputing hashes; returns a log of (record index, client id,
    old epsilon, new epsilon) mutations. Ties in epsilon are broken by a
    seed-determined shuffle.
    """
    if len(store.records) == 0:
        raise ValueError("cannot attack an empty store")
    clients = store.client_ids()
    n_attacked = math.ceil(cfg.alpha * len(clients))
    tie_break = dict(zip(clients, _tie_break(cfg.seed, len(clients))))
    records = store.records
    # A client ranks by its last record, the epsilon an intact read reports.
    last = {c: store._positions[c][-1] for c in clients}
    ranked = sorted(clients, key=lambda c: (records[last[c]].epsilon, tie_break[c]))
    attacked = sorted(ranked[:n_attacked])
    log = []
    for client in attacked:
        idx = last[client]
        rec = records[idx]
        old = rec.epsilon
        rec.epsilon = old * cfg.beta
        log.append((idx, client, old, rec.epsilon))
    return log
