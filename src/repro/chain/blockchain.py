"""The block store: canonical chain, forks, uncles, per-block state.

The chain keeps a fixed window of heights resident: the post-state of
every known block in the last :data:`RESIDENT_HEIGHTS` heights below the
head — canonical or not — which is what the validator pipeline needs to
execute same-height fork blocks concurrently against their common parent
state (paper §4.3, Figure 5).  A height that leaves the window is final:
its blocks, states and tx-index entries are dropped, a block whose parent
left is refused as an unknown parent, and queries below the window return
``None``.  History below the window is not queryable in memory; the block
log of an attached store is durability, not a read path.

Fork choice is longest-chain with first-seen tie-breaking (Ethereum PoW's
effective behaviour for equal difficulty).  Siblings displaced from the
canonical chain are tracked as uncle candidates (§3.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.hashing import Hash32
from repro.common.types import Address
from repro.chain.block import Block, BlockHeader, Receipt, receipts_root, transactions_root
from repro.state.statedb import StateSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evm.interpreter import Log
    from repro.store.backend import StorageBackend

__all__ = ["Blockchain", "ChainError", "RESIDENT_HEIGHTS"]

GENESIS_PARENT = Hash32(b"\x00" * 32)

#: Heights kept resident below the head (the head's height plus this many
#: more).  Larger than ``DEFAULT_CHAIN_PARAMS.max_uncle_depth`` so every
#: uncle a proposer may still include stays resident.
RESIDENT_HEIGHTS = 8


class ChainError(Exception):
    """Structural chain violation (unknown parent, number gap, duplicate)."""


class Blockchain:
    """Stores blocks and their post-state snapshots; tracks the canonical head."""

    def __init__(
        self,
        genesis_state: StateSnapshot,
        *,
        store: Optional["StorageBackend"] = None,
    ) -> None:
        genesis_header = BlockHeader(
            parent_hash=GENESIS_PARENT,
            number=0,
            state_root=genesis_state.state_root(),
            transactions_root=transactions_root(()),
            receipts_root=receipts_root(()),
            gas_used=0,
            gas_limit=30_000_000,
            coinbase=Address(b"\x00" * 20),
            timestamp=0,
            proposer_id="genesis",
        )
        self._seed(Block(genesis_header, ()), genesis_state, store)

    def _seed(
        self,
        base: Block,
        base_state: StateSnapshot,
        store: Optional["StorageBackend"],
    ) -> None:
        """Initialise all indices with ``base`` as the oldest known block."""
        self.genesis = base
        self._blocks: Dict[Hash32, Block] = {base.hash: base}
        self._states: Dict[Hash32, StateSnapshot] = {base.hash: base_state}
        self._by_height: Dict[int, List[Hash32]] = {base.number: [base.hash]}
        # tx hash -> (block hash, index) for canonical-and-fork lookup
        self._tx_index: Dict[Hash32, List[tuple]] = {}
        self._arrival: Dict[Hash32, int] = {base.hash: 0}
        self._arrival_counter = 1
        self._head: Hash32 = base.hash
        #: oldest resident height — the genesis or snapshot height at
        #: first, then advanced as the head leaves it RESIDENT_HEIGHTS
        #: behind (history below it is not resident in memory)
        self.base_height: int = base.number
        #: uncles and canonical transactions of heights below the base
        self._final_uncles = 0
        self._final_txs = 0
        self._store: Optional["StorageBackend"] = store

    @classmethod
    def from_checkpoint(
        cls,
        header: BlockHeader,
        state: StateSnapshot,
        *,
        store: Optional["StorageBackend"] = None,
    ) -> "Blockchain":
        """Bootstrap a chain view from a durable ``(header, state)`` pair.

        Used by :mod:`repro.store.recovery` when restarting from a
        snapshot taken at height > 0: the checkpoint block becomes the
        oldest resident block (``genesis`` here means *base of the
        in-memory view*, not height 0).  Queries below the checkpoint
        return ``None`` rather than walking off the resident window, and
        :meth:`uncle_count` / :meth:`canonical_tx_count` start from zero
        at it.
        """
        if state.state_root() != header.state_root:
            raise ChainError("checkpoint state does not match header root")
        self = cls.__new__(cls)
        self._seed(Block(header, ()), state, store)
        return self

    def attach_store(self, store: Optional["StorageBackend"]) -> None:
        """Set the storage backend notified on every future insertion."""
        self._store = store

    # ------------------------------------------------------------------ #
    # queries                                                            #
    # ------------------------------------------------------------------ #

    @property
    def head(self) -> Block:
        return self._blocks[self._head]

    @property
    def head_state(self) -> StateSnapshot:
        return self._states[self._head]

    def block(self, block_hash: Hash32) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def state_at(self, block_hash: Hash32) -> Optional[StateSnapshot]:
        return self._states.get(block_hash)

    def blocks_at_height(self, number: int) -> List[Block]:
        return [self._blocks[h] for h in self._by_height.get(number, [])]

    def height(self) -> int:
        return self.head.number

    def __contains__(self, block_hash: Hash32) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def canonical_chain(self) -> List[Block]:
        """Resident canonical blocks, from the base height to head inclusive."""
        chain: List[Block] = []
        cursor: Optional[Block] = self.head
        while cursor is not None:
            chain.append(cursor)
            if cursor.header.parent_hash == GENESIS_PARENT and cursor.number == 0:
                break
            cursor = self._blocks.get(cursor.header.parent_hash)
        chain.reverse()
        return chain

    def canonical_hash_at(self, number: int) -> Optional[Hash32]:
        cursor: Optional[Block] = self.head
        if cursor is None or number > cursor.number:
            return None
        while cursor is not None and cursor.number > number:
            # .get: no block below the base height is resident
            cursor = self._blocks.get(cursor.header.parent_hash)
        return cursor.hash if cursor is not None else None

    def uncles_at(self, number: int) -> List[Block]:
        """Known same-height siblings of the canonical block (§3.4)."""
        canonical = self.canonical_hash_at(number)
        return [
            self._blocks[h]
            for h in self._by_height.get(number, [])
            if h != canonical
        ]

    def get_logs(
        self,
        *,
        address: Optional[bytes] = None,
        topic: Optional[int] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> List[Tuple[int, int, Log]]:
        """Query logs on the resident canonical chain (eth_getLogs).

        Uses each header's logs bloom to skip blocks that definitely do
        not match — the standard light-scan path.  Returns
        ``(block_number, tx_index, log)`` tuples in chain order.
        """
        from repro.chain.bloom import Bloom

        if to_block is None:
            to_block = self.head.number
        matches: List[Tuple[int, int, Log]] = []
        for block in self.canonical_chain():
            number = block.number
            if number < from_block or number > to_block:
                continue
            if address is not None or topic is not None:
                bloom = Bloom.from_bytes(block.header.logs_bloom)
                if address is not None and not bloom.might_contain(address):
                    continue
                if topic is not None and not bloom.might_contain(
                    topic.to_bytes(32, "big")
                ):
                    continue
            for tx_index, receipt in enumerate(block.receipts):
                for log in receipt.logs:
                    if address is not None and log.address != address:
                        continue
                    if topic is not None and topic not in log.topics:
                        continue
                    matches.append((number, tx_index, log))
        return matches

    def find_transaction(self, tx_hash: Hash32) -> Optional[Tuple[Block, int, Optional[Receipt]]]:
        """Locate a transaction on the *canonical* chain.

        Returns ``(block, index, receipt_or_None)`` or ``None`` if the
        transaction is unknown or only lives on non-canonical branches
        (the eth_getTransactionByHash contract).
        """
        locations = self._tx_index.get(tx_hash)
        if not locations:
            return None
        for block_hash, index in locations:
            block = self._blocks[block_hash]
            if self.canonical_hash_at(block.number) == block_hash:
                receipt = block.receipts[index] if block.receipts else None
                return block, index, receipt
        return None

    def uncle_count(self) -> int:
        """Fork siblings seen above the chain's base, resident or not: over
        the whole run from genesis, but only since the checkpoint for a
        chain bootstrapped by :meth:`from_checkpoint` (the store's manifest
        does not carry earlier totals)."""
        return self._final_uncles + sum(
            len(hashes) - 1 for hashes in self._by_height.values()
        )

    def canonical_tx_count(self) -> int:
        """Transactions on the canonical chain above its base, counted from
        the same point as :meth:`uncle_count`."""
        return self._final_txs + sum(len(b) for b in self.canonical_chain())

    # ------------------------------------------------------------------ #
    # insertion                                                          #
    # ------------------------------------------------------------------ #

    def add_block(self, block: Block, post_state: StateSnapshot) -> bool:
        """Insert a validated block with its post-state.

        Returns True if the block became the new canonical head.  The
        caller (a validator) is responsible for having *verified* the
        block — the chain checks only structural linkage and that the
        provided state matches the header's root.
        """
        if block.hash in self._blocks:
            raise ChainError(f"duplicate block {block.hash.hex()[:12]}")
        parent = self._blocks.get(block.header.parent_hash)
        if parent is None:
            raise ChainError("unknown parent")
        if block.number != parent.number + 1:
            raise ChainError(
                f"number gap: parent {parent.number}, block {block.number}"
            )
        if post_state.state_root() != block.header.state_root:
            raise ChainError("post-state root does not match header")

        self._blocks[block.hash] = block
        self._states[block.hash] = post_state
        self._by_height.setdefault(block.number, []).append(block.hash)
        for index, tx in enumerate(block.transactions):
            self._tx_index.setdefault(tx.hash, []).append((block.hash, index))
        self._arrival[block.hash] = self._arrival_counter
        self._arrival_counter += 1

        # fork choice: longest chain, earliest arrival breaks ties.
        # Persist before publishing: if the store raises (disk full, I/O
        # error) the head is unchanged, so disk never trails the
        # advertised canonical chain — the block stays resident as a
        # non-canonical sibling until the caller retries or aborts.
        became_head = block.number > self.head.number
        if self._store is not None:
            self._store.on_block(block, post_state, head=became_head)
        if became_head:
            self._head = block.hash
            while block.number - self.base_height > RESIDENT_HEIGHTS:
                self._drop_base()
        return became_head

    def _drop_base(self) -> None:
        """Finalise the base height: fold its totals, drop its blocks."""
        number = self.base_height
        canonical = self.canonical_hash_at(number)
        hashes = self._by_height.pop(number)
        self._final_uncles += len(hashes) - 1
        tx_index = self._tx_index
        for block_hash in hashes:
            block = self._blocks.pop(block_hash)
            if block_hash == canonical:
                self._final_txs += len(block)
            del self._states[block_hash]
            del self._arrival[block_hash]
            for index, tx in enumerate(block.transactions):
                locations = tx_index[tx.hash]
                locations.remove((block_hash, index))
                if not locations:
                    del tx_index[tx.hash]
        self.base_height = number + 1
