"""The store's binary snapshot record: what it holds, what a write costs, and
that any byte string yields a snapshot or a :class:`SnapshotCorruptError`.

A snapshot file only reaches the decoder once its sha256 matches the
manifest's, so the damaged inputs below call :func:`decode_snapshot`
directly — the same as handing ``load_snapshot`` a tampered file with the
digest recomputed, which a few cases do end to end.
"""

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.state.account import AccountData
from repro.chain.blockchain import Blockchain
from repro.state.statedb import StateDB, StateSnapshot, genesis_snapshot
from repro.store import DiskStore, encode_header, recover
from repro.store.errors import SnapshotCorruptError
from repro.store.snapshots import (
    ACCOUNT,
    COUNT,
    FORMAT_VERSION,
    HEADER,
    MAGIC,
    decode_snapshot,
    load_snapshot,
    snapshot_chunks,
    write_snapshot,
)
from repro.workload.universe import build_universe

pytestmark = pytest.mark.store

HOLDER = address_from_int(0x77)
CONTRACT = address_from_int(0x88)


def _state():
    return genesis_snapshot(
        {
            HOLDER: AccountData(balance=5 * 10**18, nonce=3),
            CONTRACT: AccountData(code=b"\x60\x00", storage={1: 42, 2**200: 7}),
        }
    )


def _raw(snapshot=None):
    return b"".join(snapshot_chunks(_state() if snapshot is None else snapshot))


def _record(address, nonce=0, balance=0, code=b"", slots=()):
    """One account record, written as given: no sorting, no filtering."""
    return b"".join(
        (
            ACCOUNT.pack(address, nonce, balance.to_bytes(32, "big"), len(code)),
            code,
            COUNT.pack(len(slots)),
            b"".join(key.to_bytes(32, "big") for key, _ in slots),
            b"".join(value.to_bytes(32, "big") for _, value in slots),
        )
    )


def _file(*records, count=None):
    """A file holding ``records``; the header counts them unless told
    otherwise and records the valid state's root, so a structural check
    must refuse it."""
    header = HEADER.pack(
        MAGIC, FORMAT_VERSION, _state().state_root(), len(records) if count is None else count
    )
    return header + b"".join(records)


def _decodes_or_corrupt(raw):
    """The contract: a snapshot, or ``SnapshotCorruptError`` (``None``);
    any other exception fails the calling test by propagating."""
    try:
        snapshot = decode_snapshot(raw)
    except SnapshotCorruptError:
        return None
    assert isinstance(snapshot, StateSnapshot)
    return snapshot


def _load(tmp_path, raw, *, root=None, base=None):
    (tmp_path / "snap").write_bytes(raw)
    return load_snapshot(
        str(tmp_path),
        "snap",
        expect_sha256=hashlib.sha256(raw).hexdigest(),
        expect_root=root if root is not None else _state().state_root(),
        base=base,
    )


def _later_state():
    """``_state()`` a block later: one slot changed, ``HOLDER`` untouched."""
    db = StateDB(_state())
    db.set_storage(CONTRACT, 1, 43)
    return db.commit()


class TestRoundTrip:
    def test_the_valid_file_decodes_to_the_same_state(self):
        state = _state()
        rebuilt = decode_snapshot(_raw(state))
        assert rebuilt.state_root() == state.state_root()
        assert dict(rebuilt.accounts) == dict(state.accounts)

    def test_zero_slots_round_trip(self):
        """A genesis drops zero-valued slots, and with them an account of
        nothing else; what is left round-trips."""
        state = genesis_snapshot(
            {
                CONTRACT: AccountData(code=b"\x60\x00", storage={1: 42, 2: 0}),
                HOLDER: AccountData(storage={3: 0}),
            }
        )
        assert dict(state.accounts[CONTRACT].storage) == {1: 42}
        assert HOLDER not in state.accounts
        rebuilt = decode_snapshot(_raw(state))
        assert rebuilt.state_root() == state.state_root()
        assert dict(rebuilt.accounts) == dict(state.accounts)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(1, 2**160 - 1),
            st.tuples(
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**256 - 1),
                st.binary(max_size=8),
                st.dictionaries(st.integers(0, 2**256 - 1), st.integers(0, 2**256 - 1), max_size=6),
            ),
            max_size=6,
        )
    )
    def test_any_state_round_trips(self, raw_alloc):
        state = genesis_snapshot(
            {
                address_from_int(key): AccountData(nonce, balance, code, storage)
                for key, (nonce, balance, code, storage) in raw_alloc.items()
            }
        )
        rebuilt = decode_snapshot(_raw(state))
        assert rebuilt.state_root() == state.state_root()
        assert dict(rebuilt.accounts) == dict(state.accounts)


class TestWriteCost:
    def test_a_write_holds_a_fraction_of_the_file(self, tmp_path):
        """The JSON document this record replaced was built whole before
        it was written: on the default universe's genesis that peaked at
        ~5x the file's size.  A streamed write holds one ~32 KiB chunk, or
        one large account's record, at a time."""
        genesis = build_universe().genesis
        genesis.state_root()  # a committed state's root is already known
        tracemalloc.start()
        try:
            name, digest = write_snapshot(str(tmp_path), 0, genesis, fsync=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        raw = (tmp_path / name).read_bytes()
        assert digest == hashlib.sha256(raw).hexdigest()
        assert peak < len(raw) / 4, (peak, len(raw))
        rebuilt = load_snapshot(
            str(tmp_path), name, expect_sha256=digest, expect_root=genesis.state_root()
        )
        assert dict(rebuilt.accounts) == dict(genesis.accounts)


@pytest.mark.robustness
class TestDamagedFiles:
    def test_every_truncation_is_refused(self):
        raw = _raw()
        for end in range(len(raw)):
            with pytest.raises(SnapshotCorruptError):
                decode_snapshot(raw[:end])

    def test_every_bit_flip_is_refused(self):
        """With the digest recomputed, the recorded root still commits to
        every byte: a flip breaks the shape or moves a root."""
        raw = _raw()
        for index in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[index] ^= 1 << bit
                with pytest.raises(SnapshotCorruptError):
                    decode_snapshot(bytes(flipped))

    def test_a_changed_balance_with_its_digest_is_refused_by_the_root(self, tmp_path):
        raw = bytearray(_raw())
        balance_at = HEADER.size + 20 + 8  # HOLDER sorts first
        assert raw[balance_at + 31] != 0xFF
        raw[balance_at + 31] += 1
        with pytest.raises(SnapshotCorruptError, match="rebuilds to root"):
            _load(tmp_path, bytes(raw))

    def test_a_valid_file_for_another_height_is_refused(self, tmp_path):
        with pytest.raises(SnapshotCorruptError, match="manifest expects"):
            _load(tmp_path, _raw(), root=bytes(32))

    @pytest.mark.parametrize(
        "raw, why",
        [
            (b"", "unsupported format"),
            (b'{"format": "repro-state-snapshot"}', "unsupported format"),
            (b"RPSNAPSX" + _raw()[8:], "unsupported format"),
            (_raw()[:8] + (FORMAT_VERSION + 1).to_bytes(4, "big") + _raw()[12:], "version 2"),
            (_raw() + b"\x00", "1 trailing bytes"),
        ],
        ids=["empty", "json", "magic", "version", "trailing"],
    )
    def test_header_and_framing(self, raw, why):
        with pytest.raises(SnapshotCorruptError, match=why):
            decode_snapshot(raw)

    @pytest.mark.parametrize(
        "records, why",
        [
            ((_record(HOLDER, balance=1), _record(HOLDER, balance=1)), "out of order or repeated"),
            ((_record(CONTRACT, balance=1), _record(HOLDER, balance=1)), "out of order or repeated"),
            ((_record(CONTRACT, code=b"\x00", slots=((1, 5), (1, 5))),), "slots .* out of order"),
            ((_record(CONTRACT, code=b"\x00", slots=((2, 5), (1, 5))),), "slots .* out of order"),
            ((_record(HOLDER),), "is empty"),
            ((_record(CONTRACT, code=b"\x00", slots=((1, 5), (2, 0))),), "holds zero"),
        ],
        ids=[
            "repeated-address", "descending-address", "repeated-slot", "descending-slot", "empty-account",
            "zero-slot",
        ],
    )
    def test_records_in_one_form_only(self, records, why):
        with pytest.raises(SnapshotCorruptError, match=why):
            decode_snapshot(_file(*records))

    @pytest.mark.parametrize(
        "raw",
        [
            _file(count=2**32 - 1) + bytes(12),  # 60 bytes
            _file(_record(CONTRACT)[: ACCOUNT.size - 4] + (2**32 - 1).to_bytes(4, "big")),
            _file(_record(CONTRACT, code=b"\x00")[: -COUNT.size] + (2**32 - 1).to_bytes(4, "big")),
        ],
        ids=["accounts", "code-length", "slots"],
    )
    def test_a_huge_count_fails_at_once(self, raw):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(SnapshotCorruptError, match="past the end|cannot fit"):
                decode_snapshot(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(raw) < 200
        assert peak < 64 * 1024
        assert time.perf_counter() - started < 1.0


@pytest.mark.robustness
class TestDamagedFilesOverABase:
    """A file loaded over a base re-hashes only what differs from it; a
    tampered file with its digest refreshed still fails a root check."""

    def test_the_valid_file_loads_over_its_genesis(self, tmp_path):
        later = _later_state()
        loaded = _load(tmp_path, _raw(later), root=later.state_root(), base=_state())
        assert loaded.state_root() == later.state_root()
        assert dict(loaded.accounts) == dict(later.accounts)

    def test_a_changed_slot_put_back_to_genesis_is_refused(self, tmp_path):
        later = _later_state()
        raw = _raw(later)
        changed, genesis_value = (43).to_bytes(32, "big"), (42).to_bytes(32, "big")
        assert raw.count(changed) == 1
        with pytest.raises(SnapshotCorruptError, match="rebuilds to root"):
            _load(
                tmp_path,
                raw.replace(changed, genesis_value),
                root=later.state_root(),
                base=_state(),
            )

    def test_a_genesis_account_left_out_is_refused(self, tmp_path):
        """The base holds ``HOLDER`` as the file's state does, so only its
        delete moves the root away from the one the file records."""
        later = _later_state()
        raw = _raw(later)
        holder = _record(HOLDER, nonce=3, balance=5 * 10**18)  # sorts first
        assert raw[HEADER.size :].startswith(holder)
        header = HEADER.pack(MAGIC, FORMAT_VERSION, later.state_root(), len(later.accounts) - 1)
        with pytest.raises(SnapshotCorruptError, match="rebuilds to root"):
            _load(
                tmp_path,
                header + raw[HEADER.size + len(holder) :],
                root=later.state_root(),
                base=_state(),
            )


def _other_genesis(genesis):
    """A genesis that differs from ``genesis`` in every account."""
    return genesis_snapshot(
        {
            address: AccountData(data.nonce, data.balance + 1, data.code, {**data.storage, 2**100: 1})
            for address, data in genesis.accounts.items()
        }
    )


@pytest.mark.robustness
@pytest.mark.parametrize("interval", [0, 2], ids=["genesis-snapshot", "height-4-snapshot"])
@pytest.mark.parametrize("other", ["empty", "every-account-changed"])
def test_recovery_under_another_genesis_reaches_the_same_head(
    tmp_path, small_universe, build_chain, interval, other
):
    """The base only decides what is re-hashed: every snapshot file holds a
    whole state, so a directory recovered with a genesis other than its own
    rebuilds the same states and reaches the same head."""
    genesis = small_universe.genesis
    store = DiskStore(str(tmp_path), fsync=False, snapshot_interval=interval)
    chain = Blockchain(genesis, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis)
    for block, post_state in build_chain(5):
        chain.add_block(block, post_state)
    store.close()
    base = genesis_snapshot({}) if other == "empty" else _other_genesis(genesis)
    result = recover(str(tmp_path), base, fsync=False)
    result.log.close()
    assert result.chain.head.hash == chain.head.hash
    assert result.chain.head.header.state_root == chain.head.header.state_root


@pytest.mark.robustness
class TestEveryByteString:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400))
    def test_random_bytes(self, raw):
        _decodes_or_corrupt(raw)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400))
    def test_random_bytes_behind_a_valid_header(self, tail):
        _decodes_or_corrupt(_raw()[: HEADER.size] + tail)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_splices_of_a_valid_file(self, data):
        raw = _raw()
        start = data.draw(st.integers(0, len(raw)))
        end = data.draw(st.integers(start, len(raw)))
        _decodes_or_corrupt(raw[:start] + data.draw(st.binary(max_size=80)) + raw[end:])


@pytest.mark.robustness
def test_a_corrupt_file_through_the_store_names_it(tmp_path):
    raw = _file(_record(HOLDER))
    with pytest.raises(SnapshotCorruptError, match="snapshot snap: account .* is empty"):
        _load(tmp_path, raw)
