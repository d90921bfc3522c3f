"""Tests for the multi-version store, the keyed speculative views and the
rw-set recording rule they share with ``RecordingState``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.evm.interpreter import EVM, ExecutionContext
from repro.exec import tasks
from repro.exec.tasks import BlockSTMView
from repro.state.access import (
    RecordingState,
    balance_key,
    code_key,
    nonce_key,
    storage_key,
)
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.state.versioned import MultiVersionStore, OCCStateView
from repro.txpool.transaction import Transaction

A1 = address_from_int(1)
A2 = address_from_int(2)


def make_store():
    base = genesis_snapshot(
        {A1: AccountData(balance=100), A2: AccountData(balance=50, storage={3: 9})}
    )
    return MultiVersionStore(base)


class TestMultiVersionStore:
    def test_version_zero_reads_base(self):
        store = make_store()
        assert store.read_at(balance_key(A1), 0) == 100
        assert store.read_at(storage_key(A2, 3), 0) == 9
        assert store.read_at(storage_key(A2, 99), 0) == 0

    def test_versioned_reads(self):
        store = make_store()
        store.apply({balance_key(A1): 90}, 1)
        store.apply({balance_key(A1): 80}, 2)
        assert store.read_at(balance_key(A1), 0) == 100
        assert store.read_at(balance_key(A1), 1) == 90
        assert store.read_at(balance_key(A1), 2) == 80
        assert store.read_at(balance_key(A1), 7) == 80  # future snapshot sees latest

    def test_latest_version(self):
        store = make_store()
        assert store.latest_version(balance_key(A1)) == 0
        store.apply({balance_key(A1): 90}, 1)
        assert store.latest_version(balance_key(A1)) == 1
        assert store.latest_version(balance_key(A2)) == 0

    def test_out_of_order_commit_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.apply({balance_key(A1): 90}, 2)
        store.apply({}, 1)
        with pytest.raises(ValueError):
            store.apply({}, 1)

    def test_final_values(self):
        store = make_store()
        store.apply({balance_key(A1): 90}, 1)
        store.apply({balance_key(A1): 80, storage_key(A2, 3): 10}, 2)
        finals = store.final_values()
        assert finals[balance_key(A1)] == 80
        assert finals[storage_key(A2, 3)] == 10

    def test_hot_key_reads_at_every_snapshot_version(self):
        # one key written every third commit, another on every commit
        store = make_store()
        hot = storage_key(A2, 3)
        for version in range(1, 40):
            writes = {balance_key(A1): version}
            if version % 3 == 0:
                writes[hot] = 100 + version
            store.apply(writes, version)
        for snapshot in range(0, 42):
            seen = min(snapshot, 39)
            assert store.read_at(hot, snapshot) == (9 if seen < 3 else 100 + seen // 3 * 3)
            assert store.read_at(balance_key(A1), snapshot) == (100 if seen == 0 else seen)
        assert store.key_versions()[hot] == list(range(3, 40, 3))
        assert store.latest_version(hot) == 39
        assert store.latest_version(storage_key(A2, 99)) == 0
        assert store.final_values()[hot] == 139


class TestOCCStateView:
    def test_reads_at_snapshot_version(self):
        store = make_store()
        store.apply({balance_key(A1): 90}, 1)
        old_view = OCCStateView(store, 0)
        new_view = OCCStateView(store, 1)
        assert old_view.get_balance(A1) == 100
        assert new_view.get_balance(A1) == 90

    def test_read_your_own_write(self):
        view = OCCStateView(make_store(), 0)
        view.set_storage(A2, 3, 77)
        assert view.get_storage(A2, 3) == 77

    def test_writes_invisible_to_other_views(self):
        store = make_store()
        v1 = OCCStateView(store, 0)
        v2 = OCCStateView(store, 0)
        v1.set_balance(A1, 1)
        assert v2.get_balance(A1) == 100

    def test_journal_revert(self):
        view = OCCStateView(make_store(), 0)
        view.set_balance(A1, 60)
        mark = view.snapshot()
        view.set_balance(A1, 10)
        view.set_storage(A2, 3, 0)
        view.revert_to(mark)
        assert view.get_balance(A1) == 60
        assert view.get_storage(A2, 3) == 9

    def test_buffered_writes_exposed(self):
        view = OCCStateView(make_store(), 0)
        view.set_balance(A1, 60)
        view.set_storage(A2, 3, 1)
        writes = view.buffered_writes
        assert writes[balance_key(A1)] == 60
        assert writes[storage_key(A2, 3)] == 1

    def test_negative_balance_rejected(self):
        view = OCCStateView(make_store(), 0)
        with pytest.raises(ValueError):
            view.sub_balance(A1, 101)

    def test_nonce_and_code(self):
        view = OCCStateView(make_store(), 0)
        assert view.get_nonce(A1) == 0
        view.increment_nonce(A1)
        assert view.get_nonce(A1) == 1
        view.set_code(A2, b"\x01\x02")
        assert view.get_code(A2) == b"\x01\x02"

    def test_account_exists(self):
        view = OCCStateView(make_store(), 0)
        assert view.account_exists(A1)
        assert not view.account_exists(address_from_int(999))


def recorders(version=0):
    """The two recording forms: the keyed view (records as it buffers, one
    layer) and ``RecordingState`` over an address-keyed ``StateDB``."""
    store = make_store()
    return [OCCStateView(store, version), RecordingState(StateDB(store.base), version=version)]


class TestRecordingState:
    """The rw-set recording rule, on both implementations of it."""

    def test_reads_recorded_with_version(self):
        for version in (0, 4):
            for rec in recorders(version):
                rec.get_balance(A1)
                rec.get_storage(A2, 3)
                assert rec.rw.reads[balance_key(A1)] == version
                assert rec.rw.reads[storage_key(A2, 3)] == version

    def test_writes_recorded(self):
        for rec in recorders():
            rec.set_storage(A2, 3, 5)
            assert rec.rw.writes[storage_key(A2, 3)] == 5

    def test_read_after_own_write_not_recorded(self):
        for rec in recorders():
            rec.set_storage(A2, 3, 5)
            rec.get_storage(A2, 3)
            assert storage_key(A2, 3) not in rec.rw.reads

    def test_read_before_write_recorded_once(self):
        for rec in recorders():
            rec.get_storage(A2, 3)
            rec.set_storage(A2, 3, 5)
            rec.get_storage(A2, 3)
            assert storage_key(A2, 3) in rec.rw.reads
            assert rec.rw.writes[storage_key(A2, 3)] == 5

    def test_add_balance_records_read_and_write(self):
        for rec in recorders():
            rec.add_balance(A1, 10)
            assert balance_key(A1) in rec.rw.reads
            assert rec.rw.writes[balance_key(A1)] == 110

    def test_conflict_detection_between_rwsets(self):
        for rec1, rec2, rec3 in zip(recorders(), recorders(), recorders()):
            rec1.get_storage(A2, 3)
            rec2.set_storage(A2, 3, 1)
            assert rec1.rw.conflicts_with(rec2.rw)
            assert rec2.rw.conflicts_with(rec1.rw)

            rec3.get_balance(A1)
            assert not rec3.rw.conflicts_with(rec2.rw)

    def test_touched_addresses(self):
        for rec in recorders():
            rec.get_balance(A1)
            rec.set_storage(A2, 3, 1)
            assert rec.rw.touched_addresses() == frozenset({A1, A2})

    def test_freeze_round_trip(self):
        for rec in recorders():
            rec.get_balance(A1)
            rec.set_storage(A2, 3, 1)
            frozen = rec.rw.freeze()
            assert balance_key(A1) in frozen.read_keys()
            assert storage_key(A2, 3) in frozen.write_keys()
            assert hash(frozen) == hash(rec.rw.freeze())

    def test_reverted_write_still_hides_later_reads(self):
        # writes survive reverts in the rw-set, so the key stays "ours"
        for rec in recorders():
            mark = rec.snapshot()
            rec.set_storage(A2, 3, 5)
            rec.revert_to(mark)
            assert rec.get_storage(A2, 3) == 9
            assert storage_key(A2, 3) not in rec.rw.reads
            assert rec.rw.writes[storage_key(A2, 3)] == 5

    def test_account_exists_records_the_nonce_key_only(self):
        for rec in recorders():
            rec.account_exists(A1)
            assert list(rec.rw.reads) == [nonce_key(A1)]

    def test_code_is_recorded_as_a_short_int(self):
        for rec in recorders():
            rec.set_code(A1, b"\x60\x01" * 20)
            assert rec.rw.writes[code_key(A1)] == int.from_bytes(b"\x60\x01" * 4, "big")
            assert rec.get_code(A1) == b"\x60\x01" * 20


# --------------------------------------------------------------------- #
# the keyed view against the validator's recording path                 #
# --------------------------------------------------------------------- #

A3 = address_from_int(3)
ADDRESSES = [A1, A2, A3]
addresses = st.sampled_from(ADDRESSES)
slots = st.integers(0, 4)
small = st.integers(0, 100)

#: one StateDB-interface call: (method, args).  Amounts are small against
#: the 10**6 base balances, so no sequence drives a balance negative (the
#: two paths refuse that at different moments).
calls = st.one_of(
    st.tuples(st.sampled_from(["get_balance", "get_nonce", "get_code", "account_exists"]), st.tuples(addresses)),
    st.tuples(st.just("get_storage"), st.tuples(addresses, slots)),
    st.tuples(st.sampled_from(["add_balance", "sub_balance", "set_nonce"]), st.tuples(addresses, small)),
    st.tuples(st.just("set_balance"), st.tuples(addresses, st.integers(10**5, 10**6))),
    st.tuples(st.sampled_from(["increment_nonce", "create_account"]), st.tuples(addresses)),
    st.tuples(st.just("set_code"), st.tuples(addresses, st.binary(max_size=12))),
    st.tuples(st.just("set_storage"), st.tuples(addresses, slots, small)),
    st.tuples(st.just("snapshot"), st.just(())),
    st.tuples(st.just("revert_to"), st.tuples(st.integers(0, 5))),
)


def rich_base():
    return genesis_snapshot(
        {
            A1: AccountData(balance=10**6, nonce=2),
            A2: AccountData(balance=10**6, storage={3: 9, 4: 1}, code=b"\x00\x01"),
            A3: AccountData(balance=10**6),
        }
    )


class TestKeyedViewAgainstRecordingState:
    """``RecordingState(StateDB(base))`` is the validator's recording path
    and an independent implementation: the keyed views must produce the same
    read keys (in order), the same recorded writes and the same values."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(calls, max_size=40))
    def test_same_rwset_and_values(self, sequence):
        base = rich_base()
        reference = RecordingState(StateDB(base))
        views = [
            OCCStateView(MultiVersionStore(base), 0),
            BlockSTMView(base, {}, {}, 0),
        ]
        # run the reference once, remembering every returned value
        expected, ref_marks = [], []
        for method, args in sequence:
            expected.append(self._apply(reference, ref_marks, method, args))
        for view in views:
            marks, got = [], []
            for method, args in sequence:
                got.append(self._apply(view, marks, method, args))
            assert got == expected
            assert list(view.reads) == list(reference.rw.reads)
            assert view.writes == reference.rw.writes
            for key, value in view.buffered_writes.items():
                assert value == self._current(reference, key)

    @staticmethod
    def _apply(state, marks, method, args):
        if method == "snapshot":
            marks.append(state.snapshot())
            return None
        if method == "revert_to":
            if not marks:
                return None
            index = args[0] % len(marks)
            state.revert_to(marks[index])
            del marks[index:]
            return None
        value = getattr(state, method)(*args)
        # existence is approximated by the keyed views (no explicit flag)
        return None if method == "account_exists" else value

    @staticmethod
    def _current(reference, key):
        db = reference._inner
        kind, address, slot = key
        if kind == "storage":
            return db.get_storage(address, slot)
        return getattr(db, "get_" + kind)(address)


class TestKeyBudget:
    def test_plain_transfer_is_four_state_calls(self, monkeypatch):
        """The propose path's envelope: a plain transfer through
        ``speculate`` makes four calls on its view — the one sender call, the
        depth-0 journal mark, the one transfer call and the recipient's code
        read — where the parent made eight interface calls (four of them the
        sender prologue) plus the mark.  Keys are plain tuples built inside
        each call."""
        interface = [
            "account_exists", "get_balance", "get_nonce", "get_code", "get_storage",
            "set_balance", "add_balance", "sub_balance", "set_nonce", "increment_nonce",
            "set_code", "set_storage", "create_account", "charge_sender", "transfer",
            "snapshot", "revert_to",
        ]
        made_calls = []

        def counted(name):
            inner = getattr(OCCStateView, name)

            def method(self, *args):
                made_calls.append(name)
                return inner(self, *args)

            return method

        counting_view = type("CountingView", (OCCStateView,), {n: counted(n) for n in interface})
        monkeypatch.setattr(tasks, "OCCStateView", counting_view)

        store = MultiVersionStore(rich_base())
        receiver = address_from_int(77)  # no code: a plain value transfer
        tx = Transaction(
            sender=A1, to=receiver, value=5, data=b"", gas_limit=21_000, gas_price=2, nonce=2
        )
        outcome = tasks.speculate(EVM(), store, tx, ExecutionContext(), 0)
        monkeypatch.undo()

        assert outcome.invalid is None and outcome.result.success
        assert outcome.writes[balance_key(receiver)] == 5
        assert made_calls == ["charge_sender", "snapshot", "transfer", "get_code"]
