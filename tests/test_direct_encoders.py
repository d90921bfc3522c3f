"""The direct encoders against the generic ones.

Each fixed-shape record composes its bytes from ``rlp_string`` / ``rlp_int``
/ ``rlp_list`` and constant prefixes instead of walking a nested list
through ``rlp_encode``'s type dispatch; ``Transaction.hash`` emits its
preimage without the recursive ``hash_of``.  The generic forms stay the
general API — and are the oracle here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Receipt
from repro.common.hashing import Hash32, hash_of, keccak
from repro.common.rlp import rlp_decode, rlp_encode, rlp_int, rlp_list, rlp_string
from repro.common.types import Address
from repro.evm.interpreter import Log
from repro.state.account import AccountData, encode_account
from repro.state.trie import _extension, _leaf, _node_rlp, hp_encode
from repro.store.codec import encode_transaction
from repro.txpool.transaction import Transaction

u256 = st.one_of(st.sampled_from([0, 1, 0x7F, 0x80, 2**255, 2**256 - 1]), st.integers(0, 2**256 - 1))
addresses = st.binary(min_size=20, max_size=20).map(Address)
hashes = st.binary(min_size=32, max_size=32).map(Hash32)
payloads = st.one_of(st.sampled_from([b"", b"\x00", b"\x7f", b"\x80", b"\xab" * 100]), st.binary(max_size=80))
logs = st.builds(Log, addresses, st.lists(u256, max_size=4).map(tuple), payloads)
transactions = st.builds(
    Transaction,
    sender=addresses,
    to=st.one_of(st.none(), addresses),
    value=u256,
    data=payloads,
    gas_limit=st.integers(1, 2**64),
    gas_price=u256,
    nonce=st.integers(0, 2**64),
    tag=st.sampled_from(["", "swap", "naïve-tag"]),
)


class TestDirectEncoders:
    @given(hashes, st.booleans(), u256, u256, st.integers(0, 300), st.lists(logs, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_receipt(self, tx_hash, success, gas_used, cumulative, log_count, log_list):
        receipt = Receipt(tx_hash, success, gas_used, cumulative, log_count, tuple(log_list))
        assert receipt.encode() == rlp_encode(
            [
                bytes(tx_hash),
                1 if success else 0,
                gas_used,
                cumulative,
                log_count,
                [
                    [bytes(log.address), [t.to_bytes(32, "big") for t in log.topics], log.data]
                    for log in log_list
                ],
            ]
        )

    @given(st.integers(0, 2**64), u256, hashes, st.one_of(st.just(b""), st.binary(min_size=1, max_size=40)))
    @settings(max_examples=150, deadline=None)
    def test_account(self, nonce, balance, storage_root, code):
        account = AccountData(nonce=nonce, balance=balance, code=code)
        assert encode_account(account, storage_root) == rlp_encode(
            [nonce, balance, bytes(storage_root), bytes(account.code_hash)]
        )

    @given(transactions)
    @settings(max_examples=200, deadline=None)
    def test_transaction_hash_and_wire_form(self, tx):
        assert tx.hash == hash_of(
            bytes(tx.sender),
            bytes(tx.to) if tx.to is not None else None,
            tx.value,
            tx.data,
            tx.gas_limit,
            tx.gas_price,
            tx.nonce,
        )
        assert encode_transaction(tx) == rlp_encode(
            [
                bytes(tx.sender),
                bytes(tx.to) if tx.to is not None else b"",
                tx.value,
                tx.data,
                tx.gas_limit,
                tx.gas_price,
                tx.nonce,
                tx.tag,
            ]
        )

    @given(
        st.binary(max_size=65).map(lambda raw: bytes(b & 0x0F for b in raw)),
        st.one_of(st.sampled_from([1, 30, 31, 32, 33, 54, 55, 56, 57, 255, 256]).map(lambda n: b"\xee" * n), payloads),
    )
    @settings(max_examples=200, deadline=None)
    def test_trie_leaf_and_extension(self, path, value):
        """A node is born with its reference: its RLP when that is under 32
        bytes, else ``0xa0 || keccak(RLP)``."""

        def reference(rlp):
            return rlp if len(rlp) < 32 else b"\xa0" + bytes(keccak(rlp))

        leaf = _leaf(path, value or b"\x01")
        rlp = rlp_encode([hp_encode(path, True), value or b"\x01"])
        assert (_node_rlp(leaf), leaf[1]) == (rlp, reference(rlp))
        if path:
            # the child rides as a 32-byte reference once its RLP reaches 32
            # bytes, inline (as the list it is) below that
            child = bytes(keccak(rlp)) if len(rlp) >= 32 else rlp_decode(rlp)
            extension = _extension(path, leaf)
            rlp = rlp_encode([hp_encode(path, False), child])
            assert (_node_rlp(extension), extension[1]) == (rlp, reference(rlp))

    @pytest.mark.parametrize("n", [0, 1, 2, 55, 56, 57, 255, 256, 257, 65535, 65536])
    def test_length_prefixes_at_every_boundary(self, n):
        """The prefix tables end at 256 bytes; the yellow-paper forms do not."""
        data = b"\xaa" * n
        if n < 56:
            prefix = bytes([0x80 + n])
        else:
            raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
            prefix = bytes([0xB7 + len(raw)]) + raw
        assert rlp_string(data) == prefix + data == rlp_encode(data)
        assert rlp_decode(rlp_string(data)) == data
        as_list = bytes([prefix[0] + 0x40]) + prefix[1:] + data
        assert rlp_list([data[: n // 2], data[n // 2 :]]) == as_list

    @given(u256)
    def test_rlp_int(self, value):
        assert rlp_int(value) == rlp_encode(value)
        assert int.from_bytes(rlp_decode(rlp_int(value)), "big") == value
        with pytest.raises(ValueError):
            rlp_int(-1 - value)
