"""Tamper-evident reputation storage.

HashChainLedger is an append-only log where each record's SHA-256 digest
covers the previous record's digest, so any in-place edit of a past record
is detectable. PlainStore is the deliberately vulnerable comparison: same
interface, no integrity checking.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

GENESIS_HASH = bytes(32)
_PAYLOAD = struct.Struct("<qqdd")  # round, client_id, zeta, epsilon (LE)
RECORD_SIZE = _PAYLOAD.size + 32 + 32  # payload + prev_hash + record_hash


@dataclass
class ReputationRecord:
    round: int
    client_id: int
    zeta: float
    epsilon: float
    prev_hash: bytes = GENESIS_HASH
    record_hash: bytes = b""

    def payload(self) -> bytes:
        """Canonical serialization of everything the digest covers."""
        return (
            _PAYLOAD.pack(self.round, self.client_id, self.zeta, self.epsilon)
            + self.prev_hash
        )

    def compute_hash(self) -> bytes:
        return hashlib.sha256(self.payload()).digest()

    def to_bytes(self) -> bytes:
        return self.payload() + self.record_hash

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
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")


class UnknownClientError(KeyError):
    pass


class HashChainLedger:
    """Append-only hash-chained store for reputation records."""

    def __init__(self):
        self.records: list[ReputationRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, round: int, client_id: int, zeta: float, epsilon: float) -> ReputationRecord:
        if self.records and round < self.records[-1].round:
            raise ValueError(
                f"round {round} precedes latest chained round {self.records[-1].round}"
            )
        prev_hash = self.records[-1].record_hash if self.records else GENESIS_HASH
        record = ReputationRecord(round, client_id, zeta, epsilon, prev_hash)
        record.record_hash = record.compute_hash()
        self.records.append(record)
        return record

    def verify(self) -> int | None:
        """Index of the first record failing digest or linkage checks, or None."""
        expected_prev = GENESIS_HASH
        for idx, rec in enumerate(self.records):
            if rec.prev_hash != expected_prev or rec.record_hash != rec.compute_hash():
                return idx
            expected_prev = rec.record_hash
        return None

    def client_ids(self) -> list[int]:
        return sorted({rec.client_id for rec in self.records})

    def _client_indices(self, client_id: int) -> list[int]:
        idxs = [i for i, rec in enumerate(self.records) if rec.client_id == client_id]
        if not idxs:
            raise UnknownClientError(client_id)
        return idxs

    def _record_intact(self, idx: int) -> bool:
        rec = self.records[idx]
        expected_prev = self.records[idx - 1].record_hash if idx else GENESIS_HASH
        return rec.prev_hash == expected_prev and rec.record_hash == rec.compute_hash()

    def read_reputation(self, client_id: int) -> tuple[float, bool]:
        """Latest stored epsilon plus whether the client's records verify."""
        idxs = self._client_indices(client_id)
        trusted = all(self._record_intact(i) for i in idxs)
        return self.records[idxs[-1]].epsilon, trusted

    def read_last_valid(self, client_id: int) -> float | None:
        """Epsilon from the client's most recent record that still verifies,
        or None if every record of the client is tampered."""
        for i in reversed(self._client_indices(client_id)):
            if self._record_intact(i):
                return self.records[i].epsilon
        return None

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
        body = raw[8:]
        if len(body) != count * RECORD_SIZE:
            raise ValueError(
                f"ledger file corrupt: expected {count * RECORD_SIZE} record bytes, "
                f"got {len(body)}"
            )
        for i in range(count):
            ledger.records.append(
                ReputationRecord.from_bytes(body[i * RECORD_SIZE : (i + 1) * RECORD_SIZE])
            )
        return ledger

    def export_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(
                    json.dumps(
                        {
                            "round": rec.round,
                            "client_id": rec.client_id,
                            "zeta": rec.zeta,
                            "epsilon": rec.epsilon,
                            "prev_hash": rec.prev_hash.hex(),
                            "record_hash": rec.record_hash.hex(),
                        }
                    )
                    + "\n"
                )


class PlainStore:
    """Vulnerable comparison store: identical record layout, no hashing, so
    tampering is undetectable by design."""

    def __init__(self):
        self.records: list[ReputationRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, round: int, client_id: int, zeta: float, epsilon: float) -> ReputationRecord:
        record = ReputationRecord(round, client_id, zeta, epsilon)
        self.records.append(record)
        return record

    def client_ids(self) -> list[int]:
        return sorted({rec.client_id for rec in self.records})

    def read_reputation(self, client_id: int) -> tuple[float, bool]:
        idxs = [i for i, rec in enumerate(self.records) if rec.client_id == client_id]
        if not idxs:
            raise UnknownClientError(client_id)
        return self.records[idxs[-1]].epsilon, True


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
    rng = np.random.default_rng(cfg.seed)
    tie_break = {c: t for c, t in zip(clients, rng.permutation(len(clients)))}
    latest = {
        c: max(
            (rec for rec in store.records if rec.client_id == c),
            key=lambda rec: rec.round,
        ).epsilon
        for c in clients
    }
    ranked = sorted(clients, key=lambda c: (latest[c], tie_break[c]))
    attacked = sorted(ranked[:n_attacked])
    log = []
    for client in attacked:
        idx = max(i for i, rec in enumerate(store.records) if rec.client_id == client)
        rec = store.records[idx]
        old = rec.epsilon
        rec.epsilon = old * cfg.beta
        log.append((idx, client, old, rec.epsilon))
    return log
