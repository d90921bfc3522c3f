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
  ``b""`` and :func:`_as_int` maps it back to ``0``;
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
from typing import Any, List, Sequence, Tuple

from repro.chain.block import Block, BlockHeader, Receipt
from repro.common.hashing import Hash32
from repro.common.rlp import rlp_decode, rlp_decode_first, rlp_encode, rlp_int, rlp_list, rlp_string
from repro.common.types import Address
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


def _as_int(data: bytes) -> int:
    """Decode a canonical RLP integer payload (empty string = zero)."""
    return int.from_bytes(data, "big")


def _as_bytes(item: Any) -> bytes:
    if not isinstance(item, (bytes, bytearray)):
        raise ValueError(f"expected bytes, decoded {type(item).__name__}")
    return bytes(item)


def _as_list(item: Any) -> List[Any]:
    if not isinstance(item, list):
        raise ValueError(f"expected list, decoded {type(item).__name__}")
    return item


# --------------------------------------------------------------------------- #
# header
# --------------------------------------------------------------------------- #

_HEADER_FIELDS = 12


def header_to_items(header: BlockHeader) -> List[Any]:
    """The header as an RLP item list (field order is the wire format)."""
    return [
        bytes(header.parent_hash),
        header.number,
        bytes(header.state_root),
        bytes(header.transactions_root),
        bytes(header.receipts_root),
        header.gas_used,
        header.gas_limit,
        bytes(header.coinbase),
        header.timestamp,
        header.proposer_id,
        header.extra,
        header.logs_bloom,
    ]


def encode_header(header: BlockHeader) -> bytes:
    return rlp_encode(header_to_items(header))


def header_from_items(items: Sequence[Any]) -> BlockHeader:
    if len(items) != _HEADER_FIELDS:
        raise ValueError(f"header wants {_HEADER_FIELDS} fields, got {len(items)}")
    return BlockHeader(
        parent_hash=Hash32(_as_bytes(items[0])),
        number=_as_int(_as_bytes(items[1])),
        state_root=Hash32(_as_bytes(items[2])),
        transactions_root=Hash32(_as_bytes(items[3])),
        receipts_root=Hash32(_as_bytes(items[4])),
        gas_used=_as_int(_as_bytes(items[5])),
        gas_limit=_as_int(_as_bytes(items[6])),
        coinbase=Address(_as_bytes(items[7])),
        timestamp=_as_int(_as_bytes(items[8])),
        proposer_id=_as_bytes(items[9]).decode("utf-8"),
        extra=_as_bytes(items[10]),
        logs_bloom=_as_bytes(items[11]),
    )


def decode_header(data: bytes) -> BlockHeader:
    return header_from_items(_as_list(rlp_decode(data)))


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


def tx_from_items(items: Sequence[Any]) -> Transaction:
    if len(items) != 8:
        raise ValueError(f"transaction wants 8 fields, got {len(items)}")
    to_bytes = _as_bytes(items[1])
    return Transaction(
        sender=Address(_as_bytes(items[0])),
        to=Address(to_bytes) if to_bytes else None,
        value=_as_int(_as_bytes(items[2])),
        data=_as_bytes(items[3]),
        gas_limit=_as_int(_as_bytes(items[4])),
        gas_price=_as_int(_as_bytes(items[5])),
        nonce=_as_int(_as_bytes(items[6])),
        tag=_as_bytes(items[7]).decode("utf-8"),
    )


def decode_transaction(data: bytes) -> Transaction:
    return tx_from_items(_as_list(rlp_decode(data)))


# --------------------------------------------------------------------------- #
# receipts (with logs — the receipt root commits to event data)
# --------------------------------------------------------------------------- #


def encode_receipt(receipt: Receipt) -> bytes:
    """``Receipt.encode`` owns the wire layout (it is what the receipts
    root commits to); the log stores those same bytes."""
    return receipt.encode()


def receipt_from_items(items: Sequence[Any]) -> Receipt:
    if len(items) != 6:
        raise ValueError(f"receipt wants 6 fields, got {len(items)}")
    logs: List[Log] = []
    for raw in _as_list(items[5]):
        fields = _as_list(raw)
        if len(fields) != 3:
            raise ValueError(f"log wants 3 fields, got {len(fields)}")
        logs.append(
            Log(
                address=Address(_as_bytes(fields[0])),
                topics=tuple(
                    _as_int(_as_bytes(t)) for t in _as_list(fields[1])
                ),
                data=_as_bytes(fields[2]),
            )
        )
    return Receipt(
        tx_hash=Hash32(_as_bytes(items[0])),
        success=bool(_as_int(_as_bytes(items[1]))),
        gas_used=_as_int(_as_bytes(items[2])),
        cumulative_gas=_as_int(_as_bytes(items[3])),
        log_count=_as_int(_as_bytes(items[4])),
        logs=tuple(logs),
    )


def decode_receipt(data: bytes) -> Receipt:
    return receipt_from_items(_as_list(rlp_decode(data)))


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
    items = _as_list(rlp_decode(data))
    if len(items) != 3:
        raise ValueError(f"block wants 3 fields, got {len(items)}")
    header = header_from_items(_as_list(items[0]))
    transactions: Tuple[Transaction, ...] = tuple(
        tx_from_items(_as_list(raw)) for raw in _as_list(items[1])
    )
    receipts: Tuple[Receipt, ...] = tuple(
        receipt_from_items(_as_list(raw)) for raw in _as_list(items[2])
    )
    return Block(
        header=header,
        transactions=transactions,
        receipts=receipts,
        profile=None,
    )


def peek_block_number(data: bytes) -> int:
    """The height of the block ``data`` encodes, read from its header alone
    (compaction wants one integer per record, not every transaction and
    receipt).  Raises ``ValueError``, as :func:`decode_block` would, unless
    ``data`` starts with a well-formed header."""
    return header_from_items(_as_list(rlp_decode_first(data))).number


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

