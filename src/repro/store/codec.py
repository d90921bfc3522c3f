"""Canonical RLP codec for blocks, headers, transactions and receipts.

This is the block-log record format: one block encodes to one RLP list
``[header, transactions, receipts]`` and decodes back to structures whose
hashes — header hash, transaction hashes, receipt encodings — are
*byte-identical* to the originals.  That identity is what the
kill-and-resume differential in ``tests/test_store_service.py`` asserts
(and ``tests/test_store_codec.py`` holds ``decode_block(encode_block(b))
== b`` as a property; the log is appended without a self-check), and it
hinges on two conventions:

* integers ride through :mod:`repro.common.rlp` big-endian with no
  leading zeros (zero is the empty string), so ``decode(encode(0))`` is
  ``b""`` and ``int.from_bytes`` maps it back to ``0``;
* zero-length byte fields (``extra=b""``, an empty ``proposer_id``)
  encode to the canonical empty string ``0x80`` and decode to ``b""`` —
  the property test in ``tests/test_common_rlp.py`` pins this round trip
  over seeded random headers.

Execution profiles are deliberately *not* persisted: a profile only helps
a validator schedule a block it has not executed yet, and every block in
the log has already been committed.  Decoded blocks carry
``profile=None`` (the validator's pre-execution fallback path).
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import Any, List, Sequence

from repro.chain.block import Block, BlockHeader, Receipt
from repro.common.rlp import rlp_decode, rlp_decode_first, rlp_encode, rlp_int, rlp_list, rlp_string
from repro.common.types import address, hash32
from repro.evm.interpreter import Log
from repro.txpool.transaction import Transaction

__all__ = [
    "encode_header",
    "decode_header",
    "encode_transaction",
    "decode_transaction",
    "encode_receipt",
    "decode_receipt",
    "encode_block",
    "decode_block",
    "peek_block_number",
    "chain_digest",
]


# The decoder yields exact ``bytes`` and lists, nothing else.  A record's
# fields are checked a list at a time: its length, then the types of all of
# its byte-string fields in one scan, so a field is used as it comes.

#: ``_ONLY_BYTES(types)``: every type is ``bytes``
_ONLY_BYTES = frozenset((bytes,)).issuperset


def _as_list(item: Any) -> List[Any]:
    if type(item) is not list:
        raise ValueError(f"expected list, decoded {type(item).__name__}")
    return item


def _fields(item: Any, count: int, what: str) -> List[Any]:
    """``item`` as a list of exactly ``count`` fields."""
    items = _as_list(item)
    if len(items) != count:
        raise ValueError(f"{what} wants {count} fields, got {len(items)}")
    return items


def _all_bytes(items: Sequence[Any]) -> Sequence[bytes]:
    """``items``, once every one is a byte string."""
    if not _ONLY_BYTES(map(type, items)):
        wrong = next(item for item in items if type(item) is not bytes)
        raise ValueError(f"expected bytes, decoded {type(wrong).__name__}")
    return items


# --------------------------------------------------------------------------- #
# header
# --------------------------------------------------------------------------- #

_HEADER_FIELDS = 12


def header_to_items(header: BlockHeader) -> List[Any]:
    """The header as an RLP item list (field order is the wire format)."""
    return [
        header.parent_hash,
        header.number,
        header.state_root,
        header.transactions_root,
        header.receipts_root,
        header.gas_used,
        header.gas_limit,
        header.coinbase,
        header.timestamp,
        header.proposer_id,
        header.extra,
        header.logs_bloom,
    ]


def encode_header(header: BlockHeader) -> bytes:
    return rlp_encode(header_to_items(header))


def header_from_items(item: Any) -> BlockHeader:
    (
        parent_hash, number, state_root, transactions_root, receipts_root, gas_used,
        gas_limit, coinbase, timestamp, proposer_id, extra, logs_bloom,
    ) = _all_bytes(_fields(item, _HEADER_FIELDS, "header"))
    return BlockHeader(
        parent_hash=hash32(parent_hash),
        number=int.from_bytes(number, "big"),
        state_root=hash32(state_root),
        transactions_root=hash32(transactions_root),
        receipts_root=hash32(receipts_root),
        gas_used=int.from_bytes(gas_used, "big"),
        gas_limit=int.from_bytes(gas_limit, "big"),
        coinbase=address(coinbase),
        timestamp=int.from_bytes(timestamp, "big"),
        proposer_id=proposer_id.decode("utf-8"),
        extra=extra,
        logs_bloom=logs_bloom,
    )


def decode_header(data: bytes) -> BlockHeader:
    return header_from_items(rlp_decode(data))


# --------------------------------------------------------------------------- #
# transactions
# --------------------------------------------------------------------------- #


def encode_transaction(tx: Transaction) -> bytes:
    """``rlp([sender, to, value, data, gas_limit, gas_price, nonce, tag])``.
    ``to=None`` (contract creation) rides as the empty string — an address
    is always exactly 20 bytes (prefix ``0x94``), so that is unambiguous."""
    return rlp_list(
        (
            b"\x94" + tx.sender,
            b"\x94" + tx.to if tx.to is not None else b"\x80",
            rlp_int(tx.value),
            rlp_string(tx.data),
            rlp_int(tx.gas_limit),
            rlp_int(tx.gas_price),
            rlp_int(tx.nonce),
            rlp_string(tx.tag.encode("utf-8")),
        )
    )


def tx_from_items(item: Any) -> Transaction:
    sender, to, value, data, gas_limit, gas_price, nonce, tag = _all_bytes(
        _fields(item, 8, "transaction")
    )
    return Transaction(
        address(sender),
        address(to) if to else None,
        int.from_bytes(value, "big"),
        data,
        int.from_bytes(gas_limit, "big"),
        int.from_bytes(gas_price, "big"),
        int.from_bytes(nonce, "big"),
        tag.decode("utf-8"),
    )


def decode_transaction(data: bytes) -> Transaction:
    return tx_from_items(rlp_decode(data))


# --------------------------------------------------------------------------- #
# receipts (with logs — the receipt root commits to event data)
# --------------------------------------------------------------------------- #


def encode_receipt(receipt: Receipt) -> bytes:
    """``Receipt.encode`` owns the wire layout (it is what the receipts
    root commits to); the log stores those same bytes."""
    return receipt.encode()


def log_from_items(item: Any) -> Log:
    emitter, topics, data = _fields(item, 3, "log")
    _all_bytes((emitter, data))
    words = _all_bytes(_as_list(topics))
    return Log(address(emitter), tuple(map(int.from_bytes, words, repeat("big"))), data)


def receipt_from_items(item: Any) -> Receipt:
    items = _fields(item, 6, "receipt")
    tx_hash, success, gas_used, cumulative_gas, log_count = _all_bytes(items[:5])
    return Receipt(
        hash32(tx_hash),
        bool(int.from_bytes(success, "big")),
        int.from_bytes(gas_used, "big"),
        int.from_bytes(cumulative_gas, "big"),
        int.from_bytes(log_count, "big"),
        tuple(map(log_from_items, _as_list(items[5]))),
    )


def decode_receipt(data: bytes) -> Receipt:
    return receipt_from_items(rlp_decode(data))


# --------------------------------------------------------------------------- #
# blocks
# --------------------------------------------------------------------------- #


def encode_block(block: Block) -> bytes:
    """One log record's payload: ``[header, [tx...], [receipt...]]``."""
    return rlp_list(
        (
            encode_header(block.header),
            rlp_list([encode_transaction(tx) for tx in block.transactions]),
            rlp_list([r.encode() for r in block.receipts]),
        )
    )


def decode_block(data: bytes) -> Block:
    header, transactions, receipts = _fields(rlp_decode(data), 3, "block")
    return Block(
        header=header_from_items(header),
        transactions=tuple(map(tx_from_items, _as_list(transactions))),
        receipts=tuple(map(receipt_from_items, _as_list(receipts))),
        profile=None,
    )


def peek_block_number(data: bytes) -> int:
    """The height of the block ``data`` encodes, read from its header alone
    (compaction wants one integer per record, not every transaction and
    receipt).  Raises ``ValueError``, as :func:`decode_block` would, unless
    ``data`` starts with a well-formed header."""
    return header_from_items(rlp_decode_first(data)).number


def chain_digest(blocks: Sequence[Block], *, skip: int = 0) -> str:
    """SHA-256 over the canonical encodings of ``blocks[skip:]``.

    The byte-identity witness the kill-and-resume differential compares:
    two chains agree on headers, transactions and receipts iff their
    digests match.  ``skip`` lets a compacted chain be compared against a
    full reference over the suffix both hold.
    """
    digest = hashlib.sha256()
    for block in blocks[skip:]:
        payload = encode_block(block)
        digest.update(len(payload).to_bytes(8, "big"))
        digest.update(payload)
    return digest.hexdigest()

