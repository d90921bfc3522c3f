"""Codec round trips: headers, transactions, receipts, blocks, digests."""

import pytest

from repro.chain.block import BlockHeader
from repro.common.hashing import Hash32
from repro.common.types import Address
from repro.store.codec import (
    chain_digest,
    decode_block,
    decode_header,
    decode_transaction,
    encode_block,
    encode_header,
    encode_transaction,
    verify_roundtrip,
)
from repro.txpool.transaction import Transaction

pytestmark = pytest.mark.store


def _header(**overrides):
    base = dict(
        parent_hash=Hash32(b"\x01" * 32),
        number=7,
        state_root=Hash32(b"\x02" * 32),
        transactions_root=Hash32(b"\x03" * 32),
        receipts_root=Hash32(b"\x04" * 32),
        gas_used=12345,
        gas_limit=30_000_000,
        coinbase=Address(b"\x05" * 20),
        timestamp=1_700_000_000,
        proposer_id="node-1",
        extra=b"hello",
        logs_bloom=bytes(256),
    )
    base.update(overrides)
    return BlockHeader(**base)


class TestHeaderCodec:
    def test_round_trip_preserves_hash(self):
        header = _header()
        assert decode_header(encode_header(header)) == header

    def test_zero_length_extra_and_empty_proposer(self):
        header = _header(extra=b"", proposer_id="")
        decoded = decode_header(encode_header(header))
        assert decoded.extra == b""
        assert decoded.proposer_id == ""
        assert decoded.hash == header.hash

    def test_zero_valued_integers(self):
        header = _header(number=0, gas_used=0, timestamp=0)
        decoded = decode_header(encode_header(header))
        assert (decoded.number, decoded.gas_used, decoded.timestamp) == (0, 0, 0)

    def test_wrong_field_count_rejected(self):
        from repro.common.rlp import rlp_encode

        with pytest.raises(ValueError):
            decode_header(rlp_encode([b"\x01" * 32, 7]))


class TestTransactionCodec:
    def test_transfer_round_trip(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=Address(b"\xbb" * 20),
            value=10**18,
            data=b"\x00\x01",
            gas_limit=21_000,
            gas_price=30,
            nonce=4,
            tag="payment",
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded == tx
        assert decoded.hash == tx.hash

    def test_create_round_trip_none_to(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=None,
            value=0,
            data=b"\x60\x00",
            gas_limit=100_000,
            gas_price=1,
            nonce=0,
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded.to is None
        assert decoded.hash == tx.hash

    def test_empty_data_and_zero_value(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=Address(b"\xbb" * 20),
            value=0,
            data=b"",
            gas_limit=21_000,
            gas_price=0,
            nonce=0,
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded.data == b""
        assert decoded.value == 0


class TestBlockCodec:
    def test_sealed_block_round_trip(self, build_chain):
        block, _ = build_chain(1)[0]
        decoded = decode_block(encode_block(block))
        assert decoded.header.hash == block.header.hash
        assert [t.hash for t in decoded.transactions] == [
            t.hash for t in block.transactions
        ]
        assert [r.encode() for r in decoded.receipts] == [
            r.encode() for r in block.receipts
        ]

    def test_profile_dropped_on_decode(self, build_chain):
        block, _ = build_chain(1)[0]
        assert block.profile is not None  # proposer blocks carry one
        assert decode_block(encode_block(block)).profile is None

    def test_verify_roundtrip_clean_block(self, build_chain):
        block, _ = build_chain(1)[0]
        assert verify_roundtrip(block, encode_block(block)) is None

    def test_receipt_section_is_the_concatenated_receipt_encodings(self, build_chain):
        """One wire layout: what the receipts root commits to is, byte for
        byte, what the block log stores."""
        from repro.common.rlp import rlp_list
        from repro.store.codec import decode_receipt, encode_receipt

        for block, _ in build_chain(2):
            assert any(r.logs for r in block.receipts), "want receipts with logs"
            body = b"".join(r.encode() for r in block.receipts)
            assert encode_block(block).endswith(rlp_list([body]))
            for receipt in block.receipts:
                assert encode_receipt(receipt) == receipt.encode()
                assert decode_receipt(receipt.encode()) == receipt

    def test_verify_roundtrip_reports_a_foreign_payload(self, build_chain):
        (first, _), (second, _) = build_chain(2)
        assert "header hash" in verify_roundtrip(first, encode_block(second))

    def test_encode_is_deterministic(self, build_chain):
        block, _ = build_chain(1)[0]
        assert encode_block(block) == encode_block(block)


class TestChainDigest:
    def test_digest_detects_any_difference(self, build_chain):
        blocks = [b for b, _ in build_chain(3)]
        assert chain_digest(blocks) == chain_digest(blocks)
        assert chain_digest(blocks) != chain_digest(blocks[:-1])
        assert chain_digest(blocks) != chain_digest(list(reversed(blocks)))

    def test_skip_compares_suffixes(self, build_chain):
        blocks = [b for b, _ in build_chain(3)]
        assert chain_digest(blocks, skip=1) == chain_digest(blocks[1:])
