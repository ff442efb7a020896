import contextlib
import copy
import hashlib
import io
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flmarket.cli import main
from flmarket.ledger import (
    GENESIS_HASH,
    RECORD_SIZE,
    HashChainLedger,
    TRUST_LAST_VALID,
    TRUST_POLICIES,
    TRUST_ZERO,
    PlainStore,
    ReputationRecord,
    TamperConfig,
    _tie_break,
    tamper_attack,
)


def build_chain(n_records=10, n_clients=5):
    ledger = HashChainLedger()
    for idx in range(n_records):
        ledger.append(
            round=idx // n_clients,
            client_id=idx % n_clients,
            zeta=0.01 * idx,
            epsilon=0.1 + 0.01 * idx,
        )
    return ledger


class TestAppend:
    def test_genesis_prev_hash_is_all_zeros(self):
        ledger = HashChainLedger()
        rec = ledger.append(0, 0, 0.1, 0.2)
        assert rec.prev_hash == GENESIS_HASH == bytes(32)

    def test_append_then_verify_ok(self):
        assert build_chain(20).verify() is None

    def test_identical_payloads_get_distinct_hashes(self):
        ledger = HashChainLedger()
        a = ledger.append(0, 1, 0.5, 0.5)
        b = ledger.append(0, 1, 0.5, 0.5)
        assert a.record_hash != b.record_hash
        assert b.prev_hash == a.record_hash

    def test_decreasing_round_rejected(self):
        ledger = HashChainLedger()
        ledger.append(3, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ledger.append(2, 0, 0.0, 0.0)

    def test_append_determinism(self):
        a, b = build_chain(30), build_chain(30)
        assert [r.record_hash for r in a.records] == [r.record_hash for r in b.records]


class TestDigestFormat:
    """Known answers for the on-disk format, computed without compute_hash."""

    def test_record_hash_is_blake2s_of_payload_then_prev_hash(self):
        ledger = HashChainLedger()
        first = ledger.append(0, 3, 0.25, -0.5)
        second = ledger.append(1, 3, 0.125, 0.75)
        assert first.record_hash == hashlib.blake2s(
            struct.pack("<qqdd", 0, 3, 0.25, -0.5) + bytes(32)
        ).digest()
        assert second.record_hash == hashlib.blake2s(
            struct.pack("<qqdd", 1, 3, 0.125, 0.75) + first.record_hash
        ).digest()
        assert first.record_hash.hex() == (
            "fa798404c24a0f6477c4f718ac3421e35baa4dc99b25d1bf54987cfbe3b3dc85"
        )

    def test_record_size(self):
        # 32 payload bytes (round, client id, zeta, epsilon), then two digests.
        assert RECORD_SIZE == 96
        assert len(build_chain(1).records[0].to_bytes()) == RECORD_SIZE

    def test_sha256_chain_reads_as_tampered_at_index_zero(self, tmp_path, capsys):
        # A file written when the digest was SHA-256 of the same bytes.
        prev, raw = GENESIS_HASH, b""
        for i in range(6):
            payload = struct.pack("<qqdd", i // 3, i % 3, 0.01 * i, 0.1 * i)
            digest = hashlib.sha256(payload + prev).digest()
            raw += payload + prev + digest
            prev = digest
        path = tmp_path / "sha256.bin"
        path.write_bytes(struct.pack("<q", 6) + raw)
        assert main(["verify-ledger", str(path)]) == 1
        assert capsys.readouterr().out == "tampered at index 0\n"


class TestVerify:
    def test_clean_chain_of_100(self):
        assert build_chain(100).verify() is None

    def test_single_field_edit_is_located(self):
        ledger = build_chain(100)
        ledger.records[42].epsilon += 1e-9
        assert ledger.verify() == 42

    def test_truncating_the_tail_is_not_detected(self):
        # Hash chaining alone cannot detect suffix removal.
        ledger = build_chain(50)
        del ledger.records[40:]
        assert ledger.verify() is None
        assert len(ledger) == 40

    def test_prev_hash_edit_is_located(self):
        ledger = build_chain(20)
        raw = bytearray(ledger.records[7].prev_hash)
        raw[0] ^= 0x01
        ledger.records[7].prev_hash = bytes(raw)
        assert ledger.verify() == 7

    def test_detection_completeness_random_byte_mutations(self):
        # 1000 random single-byte flips anywhere in a 200-record chain must
        # all be reported at an index <= the mutated record's index.
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            ledger = build_chain(200, n_clients=20)
            idx = int(rng.integers(200))
            raw = bytearray(ledger.records[idx].to_bytes())
            raw[int(rng.integers(RECORD_SIZE))] ^= 1 << int(rng.integers(8))
            ledger.records[idx] = ReputationRecord.from_bytes(bytes(raw))
            reported = ledger.verify()
            assert reported is not None
            assert reported <= idx


class TestTamperAttack:
    def test_alpha_zero_is_a_noop(self):
        ledger = build_chain(20)
        log = tamper_attack(ledger, TamperConfig(alpha=0.0, beta=2.0, seed=1))
        assert log == []
        assert ledger.verify() is None

    def test_full_attack_hits_every_client(self):
        ledger = build_chain(25, n_clients=5)
        log = tamper_attack(ledger, TamperConfig(alpha=1.0, beta=2.0, seed=3))
        assert len(log) == 5
        assert ledger.verify() == min(idx for idx, *_ in log)

    def test_beta_one_rewrites_identical_bytes(self):
        ledger = build_chain(20)
        tamper_attack(ledger, TamperConfig(alpha=1.0, beta=1.0, seed=4))
        assert ledger.verify() is None

    def test_seed_determinism(self):
        log_a = tamper_attack(build_chain(30, 10), TamperConfig(0.5, 3.0, seed=8))
        log_b = tamper_attack(build_chain(30, 10), TamperConfig(0.5, 3.0, seed=8))
        assert log_a == log_b

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            tamper_attack(HashChainLedger(), TamperConfig(0.5, 2.0))

    @pytest.mark.parametrize("store_cls", [HashChainLedger, PlainStore])
    def test_ranks_by_the_epsilon_a_read_reports(self, store_cls):
        store = store_cls()
        store.append(0, 0, 0.0, 0.5)
        store.append(0, 1, 0.0, 0.1)  # client 1's first record in round 0 ...
        store.append(0, 1, 0.0, 0.9)  # ... and its later one, which a read reports
        assert store.read_reputation([1]) == [0.9]
        log = tamper_attack(store, TamperConfig(alpha=0.5, beta=2.0, seed=0))
        assert log == [(0, 0, 0.5, 1.0)]

    def test_a_cell_draws_its_tie_break_once(self):
        # A cell's ledger holds the same clients after its first round, so
        # every attack of the cell ranks ties by the one permutation.
        _tie_break.cache_clear()
        cfg = TamperConfig(alpha=0.5, beta=2.0, seed=77)
        store = HashChainLedger()
        for round_num in range(5):
            for client in range(6):
                store.append(round_num, client, 0.0, 0.0)  # every epsilon ties
            expected = oracle_tamper(copy.deepcopy(store.records), cfg)
            assert tamper_attack(store, cfg) == expected
        assert _tie_break.cache_info()[:2] == (4, 1)  # hits, misses
        assert isinstance(_tie_break(77, 6), tuple)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TamperConfig(alpha=1.5, beta=2.0)
        with pytest.raises(ValueError):
            TamperConfig(alpha=0.5, beta=0.0)


class TestReadReputation:
    def test_honest_chain_is_trusted(self):
        ledger = build_chain(20)
        for policy in TRUST_POLICIES:
            assert ledger.read([2], policy) == [ledger.records[17].epsilon]

    def test_tampered_client_is_untrusted_on_chain(self):
        ledger = build_chain(20, n_clients=5)
        tamper_attack(ledger, TamperConfig(alpha=1.0, beta=2.0, seed=1))
        assert ledger.read_reputation([0]) == [0.0]

    def test_vulnerable_store_returns_inflated_value_as_trusted(self):
        store = PlainStore()
        store.append(0, 0, 0.1, 0.5)
        tamper_attack(store, TamperConfig(alpha=1.0, beta=2.0, seed=1))
        for policy in TRUST_POLICIES:
            assert store.read([0], policy) == [1.0]

    def test_stores_agree_absent_attacks(self):
        chained, plain = HashChainLedger(), PlainStore()
        for r in range(4):
            for c in range(3):
                chained.append(r, c, 0.1 * r, 0.2 * r + c)
                plain.append(r, c, 0.1 * r, 0.2 * r + c)
        for policy in TRUST_POLICIES:
            assert chained.read(range(3), policy) == plain.read(range(3), policy) == [
                0.2 * 3 + c for c in range(3)
            ]

    def test_unknown_client_reads_zero(self):
        for policy in TRUST_POLICIES:
            assert build_chain(5).read([99, 0, 99], policy) == [0.0, 0.1, 0.0]

    def test_unknown_policy_is_named(self):
        with pytest.raises(ValueError, match="unknown trust policy 'none'"):
            build_chain(5).read([0], "none")

    def test_last_valid_falls_back_to_previous_record(self):
        ledger = HashChainLedger()
        ledger.append(0, 0, 0.1, 0.3)
        ledger.append(1, 0, 0.1, 0.4)
        ledger.records[1].epsilon *= 5.0
        assert ledger.read_reputation([0]) == [0.0]
        assert ledger.read_last_valid([0]) == [0.3]

    def test_plain_last_valid_returns_the_edited_newest_record(self):
        store = PlainStore()
        store.append(0, 0, 0.1, 0.3)
        store.append(1, 0, 0.1, 0.4)
        store.records[1].epsilon *= 5.0
        assert store.read_last_valid([0]) == [2.0]
        assert store.read_reputation([0]) == [2.0]

    def test_plain_unknown_client_reads_zero(self):
        store = PlainStore()
        store.append(0, 0, 0.1, 0.3)
        for policy in TRUST_POLICIES:
            assert store.read([99], policy) == [0.0]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ledger = build_chain(30)
        path = tmp_path / "chain.bin"
        ledger.save(path)
        loaded = HashChainLedger.load(path)
        assert loaded.verify() is None
        assert [r.to_bytes() for r in loaded.records] == [
            r.to_bytes() for r in ledger.records
        ]

    def test_empty_file_is_an_empty_chain(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(HashChainLedger.load(path)) == 0

    def test_truncated_file_rejected(self, tmp_path):
        ledger = build_chain(5)
        path = tmp_path / "chain.bin"
        ledger.save(path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError):
            HashChainLedger.load(path)

    def test_negative_record_count_is_named(self, tmp_path, capsys):
        path = tmp_path / "chain.bin"
        path.write_bytes(struct.pack("<q", -(2**63) + 1))
        with pytest.raises(ValueError, match="negative record count -9223372036854775807"):
            HashChainLedger.load(path)
        assert main(["verify-ledger", str(path)]) == 1
        assert capsys.readouterr().err == (
            "format error: ledger file corrupt: negative record count -9223372036854775807\n"
        )


class NoIterList(list):
    """A record list that fails any whole-list scan."""

    def __iter__(self):
        raise AssertionError("records were scanned")


class TestClientIndex:
    @pytest.mark.parametrize("store_cls", [HashChainLedger, PlainStore])
    def test_reads_and_attack_never_scan_the_records(self, store_cls):
        store = store_cls()
        for idx in range(30):
            store.append(idx // 5, idx % 5, 0.01 * idx, 0.1 + 0.01 * idx)
        store.records = NoIterList(store.records)
        assert store.client_ids() == [0, 1, 2, 3, 4]
        for policy in TRUST_POLICIES:
            assert store.read([3, 7], policy) == [store.records[28].epsilon, 0.0]
        log = tamper_attack(store, TamperConfig(alpha=0.4, beta=2.0, seed=5))
        assert [idx for idx, *_ in log] == [25, 26]
        if store_cls is HashChainLedger:
            assert store.read([0, 3], TRUST_ZERO) == [0.0, store.records[28].epsilon]
            assert store.read([0], TRUST_LAST_VALID) == [store.records[20].epsilon]

    def test_rewritten_client_id_makes_the_original_client_untrusted(self):
        ledger = build_chain(20, n_clients=5)
        ledger.records[7].client_id = 3  # was client 2's record
        assert ledger.read_reputation([2]) == [0.0]
        assert ledger.read_last_valid([2]) == [ledger.records[17].epsilon]
        assert ledger.verify() == 7

    def test_append_after_truncation_indexes_only_live_records(self):
        ledger = build_chain(20, n_clients=5)
        del ledger.records[12:]
        ledger.append(3, 4, 0.0, 0.9)  # lands at position 12
        assert ledger.client_ids() == [0, 1, 2, 3, 4]
        assert ledger.read_reputation([4, 2]) == [0.9, ledger.records[7].epsilon]
        assert ledger.verify() is None

    def test_plain_store_rejects_a_decreasing_round(self):
        store = PlainStore()
        store.append(3, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            store.append(2, 0, 0.0, 0.0)


# -- The whole-ledger scans the per-client index replaced, kept as an oracle --

def _oracle_intact(records, idx):
    rec = records[idx]
    expected_prev = records[idx - 1].record_hash if idx else GENESIS_HASH
    return rec.prev_hash == expected_prev and rec.record_hash == rec.compute_hash()


def _oracle_indices(records, client_id):
    return [i for i, rec in enumerate(records) if rec.client_id == client_id]


def oracle_read(records, client_id, chained):
    """(newest epsilon, whether every record is intact), or None for a
    client with no record."""
    idxs = _oracle_indices(records, client_id)
    if not idxs:
        return None
    trusted = not chained or all(_oracle_intact(records, i) for i in idxs)
    return records[idxs[-1]].epsilon, trusted


def oracle_verify(records):
    for i in range(len(records)):
        if not _oracle_intact(records, i):
            return i
    return None


def oracle_read_last_valid(records, client_id, chained):
    """Epsilon of the newest intact record, or None if none is."""
    for i in reversed(_oracle_indices(records, client_id)):
        if not chained or _oracle_intact(records, i):
            return records[i].epsilon
    return None


def oracle_policy_read(records, client_id, chained, policy):
    """A scan oracle's answer mapped to the float a cell reads under
    `policy`: 0.0 for a client with no record, for an untrusted one under
    "zero", and for one with no intact record under "last_valid"."""
    if policy == "last_valid":
        eps = oracle_read_last_valid(records, client_id, chained)
        return 0.0 if eps is None else eps
    found = oracle_read(records, client_id, chained)
    return found[0] if found is not None and found[1] else 0.0


def oracle_tamper(records, cfg):
    if len(records) == 0:
        raise ValueError("cannot attack an empty store")
    clients = sorted({rec.client_id for rec in records})
    n_attacked = math.ceil(cfg.alpha * len(clients))
    rng = np.random.default_rng(cfg.seed)
    tie_break = {c: t for c, t in zip(clients, rng.permutation(len(clients)))}
    latest = {c: [rec for rec in records if rec.client_id == c][-1].epsilon for c in clients}
    ranked = sorted(clients, key=lambda c: (latest[c], tie_break[c]))
    log = []
    for client in sorted(ranked[:n_attacked]):
        idx = max(i for i, rec in enumerate(records) if rec.client_id == client)
        rec = records[idx]
        old = rec.epsilon
        rec.epsilon = old * cfg.beta
        log.append((idx, client, old, rec.epsilon))
    return log


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _hash_calls(fn, *args):
    """(outcome, number of compute_hash calls) of fn(*args)."""
    with mock.patch.object(
        ReputationRecord, "compute_hash", autospec=True,
        side_effect=ReputationRecord.compute_hash,
    ) as counted:
        return _outcome(fn, *args), counted.call_count


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
CLIENT_ID_BYTES = range(8, 16)  # client_id inside a serialized record

appends = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 1), FINITE, FINITE), min_size=1, max_size=40
)
edits = st.lists(
    st.one_of(
        st.tuples(st.just("epsilon"), st.integers(0, 39), FINITE),
        st.tuples(st.just("zeta"), st.integers(0, 39), FINITE),
        st.tuples(st.just("round"), st.integers(0, 39), st.integers(-5, 50)),
        st.tuples(st.just("prev_hash"), st.integers(0, 39), st.binary(min_size=32, max_size=32)),
        st.tuples(st.just("record_hash"), st.integers(0, 39), st.binary(min_size=32, max_size=32)),
        st.tuples(
            st.just("flip"), st.integers(0, 39),
            st.integers(0, RECORD_SIZE - 1).filter(lambda b: b not in CLIENT_ID_BYTES),
            st.integers(0, 7),
        ),
        st.tuples(st.just("truncate"), st.integers(0, 40)),
    ),
    max_size=6,
)


def _apply(records, edit):
    kind, idx, *rest = edit
    if kind == "truncate":
        del records[idx:]
    elif idx >= len(records):
        return
    elif kind == "flip":  # a plain record has no digest: pad it to the chained layout
        raw = bytearray(records[idx].to_bytes().ljust(RECORD_SIZE, b"\0"))
        raw[rest[0]] ^= 1 << rest[1]
        records[idx] = ReputationRecord.from_bytes(bytes(raw))
    else:
        setattr(records[idx], kind, rest[0])


class TestIndexMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(
        store_cls=st.sampled_from([HashChainLedger, PlainStore]),
        appends=appends,
        edits=edits,
        later=st.lists(st.tuples(st.integers(0, 4), st.integers(-1, 2)), max_size=4),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        seed=st.integers(0, 3),
    )
    def test_reads_and_attack_match_the_scan(
        self, store_cls, appends, edits, later, alpha, seed
    ):
        store = store_cls()
        rnd = 0
        for client, step, zeta, eps in appends:
            rnd += step
            store.append(rnd, client, zeta, eps)
        for edit in edits:
            _apply(store.records, edit)
        for client, step in later:  # appends after the edits
            last = store.records[-1].round if store.records else 0
            before = [r.to_bytes() for r in store.records]
            if _outcome(store.append, last + step, client, 0.5, 0.5) is ValueError:
                assert step < 0
                assert [r.to_bytes() for r in store.records] == before
        chained = store_cls is HashChainLedger
        records = store.records
        if chained:
            assert _hash_calls(store.verify) == _hash_calls(oracle_verify, records)
        # One call reads clients 0..5, some never appended; it hashes as
        # many records as the scan of each client alone.
        for policy in TRUST_POLICIES:
            reads, hashes = _hash_calls(store.read, range(6), policy)
            alone = [
                _hash_calls(oracle_policy_read, records, client, chained, policy)
                for client in range(6)
            ]
            assert reads == [value for value, _ in alone]
            assert hashes == sum(count for _, count in alone)
        assert store.client_ids() == sorted({rec.client_id for rec in records})
        oracle_records = copy.deepcopy(records)
        cfg = TamperConfig(alpha=alpha, beta=3.0, seed=seed)
        assert _outcome(tamper_attack, store, cfg) == _outcome(
            oracle_tamper, oracle_records, cfg
        )
        assert [r.to_bytes() for r in records] == [r.to_bytes() for r in oracle_records]


class TestLoadPath:
    def _tampered_chain(self):
        ledger = build_chain(30, n_clients=4)
        tamper_attack(ledger, TamperConfig(alpha=0.5, beta=2.0, seed=2))
        ledger.records[5].epsilon += 1.0
        return ledger

    def test_load_round_trip_gives_the_same_reads(self, tmp_path):
        ledger = self._tampered_chain()
        path = tmp_path / "chain.bin"
        ledger.save(path)
        loaded = HashChainLedger.load(path)
        assert loaded.client_ids() == ledger.client_ids() == [0, 1, 2, 3]
        for policy in TRUST_POLICIES:
            assert loaded.read(range(5), policy) == ledger.read(range(5), policy)
        assert loaded.verify() == ledger.verify() == 5

    def test_decreasing_round_is_a_format_error(self, tmp_path, capsys):
        ledger = HashChainLedger()
        ledger.append(5, 0, 0.1, 0.2)
        # A correctly hashed and linked record whose round goes back.
        rec = ReputationRecord(2, 1, 0.1, 0.3, ledger.records[0].record_hash)
        rec.record_hash = rec.compute_hash()
        ledger.records.append(rec)
        assert ledger.verify() is None
        path = tmp_path / "chain.bin"
        ledger.save(path)
        with pytest.raises(ValueError, match="round 2 precedes"):
            HashChainLedger.load(path)
        assert main(["verify-ledger", str(path)]) == 1
        assert "format error" in capsys.readouterr().err


def _valid_file(n_records):
    ledger = build_chain(n_records, n_clients=3)
    return struct.pack("<q", len(ledger)) + b"".join(r.to_bytes() for r in ledger.records)


@st.composite
def ledger_files(draw):
    """Valid files, their truncations, trailing bytes, rewritten counts and
    random bodies."""
    raw = _valid_file(draw(st.integers(0, 4)))
    kind = draw(st.sampled_from(["valid", "truncated", "trailing", "count", "body"]))
    if kind == "truncated":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "trailing":
        return raw + draw(st.binary(min_size=1, max_size=200))
    if kind == "count":
        count = draw(st.one_of(st.integers(-(2**63), -1), st.integers(0, 8),
                               st.integers(2**40, 2**63 - 1)))
        return struct.pack("<q", count) + raw[8:]
    if kind == "body":
        n = draw(st.integers(0, 4))
        body = draw(st.binary(min_size=n * RECORD_SIZE, max_size=n * RECORD_SIZE))
        return struct.pack("<q", n) + body
    return raw


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoadFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(ledger_files(), st.binary(max_size=400)))
    def test_load_raises_value_error_or_loads(self, fuzz_dir, raw):
        path = fuzz_dir / "chain.bin"
        path.write_bytes(raw)
        try:
            ledger = HashChainLedger.load(path)
        except ValueError:
            expected = 1
        else:
            expected = 0 if ledger.verify() is None else 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["verify-ledger", str(path)]) == expected
        assert "Traceback" not in err.getvalue()
