"""Block structures: headers, bodies, receipts and block profiles."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from repro.common.hashing import Hash32, hash_of
from repro.common.records import record
from repro.common.rlp import rlp_int, rlp_list, rlp_string
from repro.common.types import Address
from repro.evm.interpreter import Log, TxResult
from repro.state.access import FrozenRWSet
from repro.state.trie import index_root
from repro.txpool.transaction import Transaction

__all__ = [
    "BlockHeader",
    "Block",
    "Receipt",
    "TxProfileEntry",
    "BlockProfile",
    "build_receipts",
    "transactions_root",
    "receipts_root",
]


@dataclass(frozen=True)
class BlockHeader:
    """Header committing to parent, contents and post-state."""

    parent_hash: Hash32
    number: int
    state_root: Hash32
    transactions_root: Hash32
    receipts_root: Hash32
    gas_used: int
    gas_limit: int
    coinbase: Address
    timestamp: int
    proposer_id: str = ""  # which node proposed (fork bookkeeping)
    extra: bytes = b""
    #: 2048-bit logs bloom over every log the block's transactions emitted
    logs_bloom: bytes = b"\x00" * 256

    @cached_property
    def hash(self) -> Hash32:
        return hash_of(
            self.parent_hash,
            self.number,
            self.state_root,
            self.transactions_root,
            self.receipts_root,
            self.gas_used,
            self.gas_limit,
            self.coinbase,
            self.timestamp,
            self.proposer_id,
            self.extra,
            self.logs_bloom,
        )


@record
class Receipt:
    """Per-transaction outcome included in the block's receipt trie.

    Carries the transaction's logs (Ethereum receipts do), so the receipt
    root commits to event data and the validator can rebuild the header's
    logs bloom from them."""

    tx_hash: Hash32
    success: bool
    gas_used: int
    cumulative_gas: int
    log_count: int
    logs: Tuple[Log, ...] = ()
    _encoded: Optional[bytes] = field(default=None, compare=False, repr=False, init=False)

    def encode(self) -> bytes:
        """The receipt's wire form: the receipts-trie value and, spliced
        verbatim, its entry in a block-log record.  Computed once per
        (immutable) receipt: ``rlp([tx_hash, success, gas_used,
        cumulative_gas, log_count, [[address, [topic...], data]...]])``,
        a topic being a 32-byte word."""
        encoded = self._encoded
        if encoded is None:
            logs = [
                rlp_list(
                    (
                        b"\x94" + log.address,
                        rlp_list([b"\xa0" + topic.to_bytes(32, "big") for topic in log.topics]),
                        rlp_string(log.data),
                    )
                )
                for log in self.logs
            ]
            encoded = rlp_list(
                (
                    b"\xa0" + self.tx_hash,
                    b"\x01" if self.success else b"\x80",
                    rlp_int(self.gas_used),
                    rlp_int(self.cumulative_gas),
                    rlp_int(self.log_count),
                    rlp_list(logs),
                )
            )
            object.__setattr__(self, "_encoded", encoded)
        return encoded


@record
class TxProfileEntry:
    """One transaction's execution details published by the proposer."""

    tx_hash: Hash32
    rw: FrozenRWSet
    gas_used: int
    success: bool


@dataclass(frozen=True)
class BlockProfile:
    """The proposer's execution profile for a block (§4.2).

    Validators use it twice: the scheduler derives the dependency graph
    from the read/write footprints without pre-executing, and the applier
    checks re-executed rw-sets against it (§4.4)."""

    entries: Tuple[TxProfileEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def build_receipts(
    transactions: Sequence[Transaction], results: Iterable[TxResult]
) -> Tuple[Receipt, ...]:
    """The receipts of ``transactions`` executed with ``results``, in block
    order — what the proposer seals and what every checker re-derives."""
    receipts = []
    cumulative = 0
    for tx, result in zip(transactions, results):
        cumulative += result.gas_used
        receipts.append(
            Receipt(
                tx_hash=tx.hash,
                success=result.success,
                gas_used=result.gas_used,
                cumulative_gas=cumulative,
                log_count=len(result.logs),
                logs=tuple(result.logs),
            )
        )
    return tuple(receipts)


def transactions_root(transactions: Sequence[Transaction]) -> Hash32:
    """Trie root over the block's transactions, keyed by index (yellow paper)."""
    return index_root([tx.hash for tx in transactions])


def receipts_root(receipts: Sequence[Receipt]) -> Hash32:
    return index_root([receipt.encode() for receipt in receipts])


@dataclass(frozen=True)
class Block:
    """A sealed block: header, ordered transactions, receipts, profile.

    ``profile`` may be ``None`` for blocks from proposers that do not
    publish execution details; the validator then falls back to building
    the dependency graph by pre-execution (slower preparation phase)."""

    header: BlockHeader
    transactions: Tuple[Transaction, ...]
    receipts: Tuple[Receipt, ...] = ()
    profile: Optional[BlockProfile] = None

    @property
    def hash(self) -> Hash32:
        return self.header.hash

    @property
    def number(self) -> int:
        return self.header.number

    def __len__(self) -> int:
        return len(self.transactions)

    def validate_structure(self) -> None:
        """Internal consistency: tx root, profile alignment.  Shipped
        receipts are not checked here: only execution can confirm them
        (:meth:`~repro.core.applier.Applier.verify_block`)."""
        if transactions_root(self.transactions) != self.header.transactions_root:
            raise ValueError("transactions root mismatch")
        if self.profile is not None and len(self.profile) != len(self.transactions):
            raise ValueError("profile entry count mismatch")
        if self.profile is not None:
            for tx, entry in zip(self.transactions, self.profile.entries):
                if tx.hash != entry.tx_hash:
                    raise ValueError("profile entry order mismatch")
