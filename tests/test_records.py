"""The fixed-shape records are immutable, validated and memoised.

``Transaction.hash``, ``Receipt.encode()`` and the structural sharing of
snapshots all rest on one property: a record, once built, never changes.
These tests pin that property (and the validation and equality rules that
ride on the constructors) independently of *how* the records are built.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.chain.block import BlockHeader, Receipt, TxProfileEntry
from repro.common.types import address, hash32
from repro.evm.interpreter import Log
from repro.simcore.costmodel import TraceCosts
from repro.state.access import ReadWriteSet
from repro.state.account import AccountData
from repro.txpool.transaction import Transaction

A, B = address(b"\x01" * 20), address(b"\x02" * 20)
H = hash32(b"\x07" * 32)


def _tx(**overrides):
    fields = dict(sender=A, to=B, value=5, data=b"\x01\x02", gas_limit=21_000, gas_price=3, nonce=4)
    fields.update(overrides)
    return Transaction(**fields)


def _receipt():
    return Receipt(H, True, 21_000, 42_000, 1, (Log(A, (1, 2), b"data"),))


RECORDS = {
    "Transaction": _tx,
    "Receipt": _receipt,
    "AccountData": lambda: AccountData(nonce=1, balance=2, code=b"\x00", storage={1: 2}),
    "Log": lambda: Log(A, (1,), b""),
    "TraceCosts": lambda: TraceCosts({"base": 3}, gas_used=9),
    "TxProfileEntry": lambda: TxProfileEntry(H, ReadWriteSet().freeze(), 21_000, True),
    "BlockHeader": lambda: BlockHeader(H, 1, H, H, H, 0, 30_000_000, A, 12),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestImmutable:
    def test_assignment_and_deletion_raise(self, name):
        record = RECORDS[name]()
        for field in dataclasses.fields(record):
            before = getattr(record, field.name)
            with pytest.raises(AttributeError):
                setattr(record, field.name, before)
            with pytest.raises(AttributeError):
                delattr(record, field.name)
            assert getattr(record, field.name) is before

    def test_no_new_attributes(self, name):
        with pytest.raises(AttributeError):
            RECORDS[name]().not_a_field = 1

    def test_equal_by_value_and_survives_a_copy(self, name):
        record = RECORDS[name]()
        assert record == RECORDS[name]() and record is not RECORDS[name]()
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        assert name in repr(record) or name == "Transaction"  # Tx(...) is its own repr


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [dict(value=-1), dict(gas_price=-1), dict(nonce=-1), dict(gas_limit=0), dict(gas_limit=-5)],
    )
    def test_transaction_rejects(self, bad):
        with pytest.raises(ValueError):
            _tx(**bad)

    @pytest.mark.parametrize("bad", [dict(nonce=-1), dict(balance=-1)])
    def test_account_rejects(self, bad):
        with pytest.raises(ValueError):
            AccountData(**bad)
        with pytest.raises(ValueError):
            dataclasses.replace(AccountData(nonce=1, balance=1), **bad)


class TestTransaction:
    def test_equality_and_hash_ignore_tag(self):
        plain, tagged = _tx(), _tx(tag="swap")
        assert plain == tagged and hash(plain) == hash(tagged)
        assert plain.hash == tagged.hash
        assert len({plain, tagged}) == 1
        assert plain != _tx(nonce=5) and plain.hash != _tx(nonce=5).hash

    def test_hash_is_computed_once(self):
        tx = _tx()
        assert tx.hash is tx.hash
        # a tx that has hashed still equals, and pickles to, one that has not
        assert tx == _tx()

    def test_create_has_no_recipient(self):
        assert _tx(to=None).is_create and not _tx().is_create
        assert _tx(to=None).hash != _tx().hash


class TestAccountData:
    def test_with_returns_a_new_object(self):
        base = AccountData(nonce=1, balance=10, storage={1: 1})
        richer = dataclasses.replace(base, balance=11)
        assert richer is not base and base.balance == 10 and richer.balance == 11
        assert richer.nonce == 1 and richer.storage is base.storage
        assert AccountData() == AccountData(0, 0, b"", {}) and AccountData().is_empty()


class TestReceipt:
    def test_encode_is_computed_once(self):
        receipt = _receipt()
        assert receipt.encode() is receipt.encode()
        assert receipt.encode() == _receipt().encode()
        assert receipt == _receipt()  # the memo is not part of the value
