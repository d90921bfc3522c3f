"""Chain-layer tests: block structures, roots, fork handling, uncles."""

import pytest

from repro.chain.block import (
    Block,
    BlockHeader,
    BlockProfile,
    Receipt,
    TxProfileEntry,
    receipts_root,
    transactions_root,
)
from repro.chain.blockchain import Blockchain, ChainError, GENESIS_PARENT
from repro.common.hashing import hash_of
from repro.common.types import address_from_int, hash32
from repro.state.access import ReadWriteSet
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.transaction import Transaction

A1 = address_from_int(1)
COINBASE = address_from_int(0xBB)


def make_tx(nonce=0):
    return Transaction(A1, address_from_int(2), 1, b"", 21000, 1, nonce)


def make_header(parent, state_root, txs=(), number=None):
    return BlockHeader(
        parent_hash=parent.hash if isinstance(parent, (Block, BlockHeader)) else parent,
        number=(
            number
            if number is not None
            else (parent.number + 1 if isinstance(parent, (Block, BlockHeader)) else 1)
        ),
        state_root=state_root,
        transactions_root=transactions_root(txs),
        receipts_root=receipts_root(()),
        gas_used=0,
        gas_limit=30_000_000,
        coinbase=COINBASE,
        timestamp=12,
    )


@pytest.fixture()
def base_state():
    return genesis_snapshot({A1: AccountData(balance=10**18)})


@pytest.fixture()
def chain(base_state):
    return Blockchain(base_state)


class TestHeaderAndRoots:
    def test_header_hash_deterministic(self, base_state):
        h1 = make_header(GENESIS_PARENT, base_state.state_root())
        h2 = make_header(GENESIS_PARENT, base_state.state_root())
        assert h1.hash == h2.hash

    def test_header_hash_sensitive_to_fields(self, base_state):
        import dataclasses

        h1 = make_header(GENESIS_PARENT, base_state.state_root())
        h2 = dataclasses.replace(h1, timestamp=13)
        assert h1.hash != h2.hash

    def test_transactions_root_order_sensitive(self):
        t1, t2 = make_tx(0), make_tx(1)
        assert transactions_root([t1, t2]) != transactions_root([t2, t1])

    def test_empty_roots_stable(self):
        assert transactions_root(()) == transactions_root([])
        assert receipts_root(()) == receipts_root([])

    def test_receipts_root_covers_status(self):
        r_ok = Receipt(hash_of(b"t"), True, 21000, 21000, 0)
        r_bad = Receipt(hash_of(b"t"), False, 21000, 21000, 0)
        assert receipts_root([r_ok]) != receipts_root([r_bad])


class TestBlockStructure:
    def test_validate_structure_passes_for_consistent_block(self, base_state):
        t = make_tx()
        header = make_header(GENESIS_PARENT, base_state.state_root(), [t])
        block = Block(header, (t,))
        block.validate_structure()

    def test_tx_root_mismatch_detected(self, base_state):
        t = make_tx()
        header = make_header(GENESIS_PARENT, base_state.state_root(), [])
        block = Block(header, (t,))
        with pytest.raises(ValueError, match="transactions root"):
            block.validate_structure()

    def test_profile_alignment_checked(self, base_state):
        t = make_tx()
        header = make_header(GENESIS_PARENT, base_state.state_root(), [t])
        wrong_entry = TxProfileEntry(
            tx_hash=hash_of(b"other"),
            rw=ReadWriteSet().freeze(),
            gas_used=21000,
            success=True,
        )
        block = Block(header, (t,), profile=BlockProfile((wrong_entry,)))
        with pytest.raises(ValueError, match="order mismatch"):
            block.validate_structure()

    def test_profile_count_checked(self, base_state):
        t = make_tx()
        header = make_header(GENESIS_PARENT, base_state.state_root(), [t])
        block = Block(header, (t,), profile=BlockProfile(()))
        with pytest.raises(ValueError, match="count"):
            block.validate_structure()


def child_block(chain, parent_block, base_state, nudge=0):
    """Build an empty child block whose post-state equals the parent state."""
    state = chain.state_at(parent_block.hash)
    header = BlockHeader(
        parent_hash=parent_block.hash,
        number=parent_block.number + 1,
        state_root=state.state_root(),
        transactions_root=transactions_root(()),
        receipts_root=receipts_root(()),
        gas_used=0,
        gas_limit=30_000_000,
        coinbase=COINBASE,
        timestamp=12 + nudge,
    )
    return Block(header, ()), state


class TestBlockchain:
    def test_genesis_is_head(self, chain):
        assert chain.head.number == 0
        assert chain.height() == 0
        assert len(chain) == 1

    def test_add_block_advances_head(self, chain, base_state):
        block, state = child_block(chain, chain.genesis, base_state)
        assert chain.add_block(block, state) is True
        assert chain.head is block

    def test_duplicate_rejected(self, chain, base_state):
        block, state = child_block(chain, chain.genesis, base_state)
        chain.add_block(block, state)
        with pytest.raises(ChainError, match="duplicate"):
            chain.add_block(block, state)

    def test_unknown_parent_rejected(self, chain, base_state):
        orphan_header = make_header(hash32(b"\x11" * 32), base_state.state_root())
        with pytest.raises(ChainError, match="unknown parent"):
            chain.add_block(Block(orphan_header, ()), base_state)

    def test_wrong_state_root_rejected(self, chain, base_state):
        block, state = child_block(chain, chain.genesis, base_state)
        db = StateDB(state)
        db.add_balance(A1, 1)
        wrong = db.commit()
        with pytest.raises(ChainError, match="root"):
            chain.add_block(block, wrong)

    def test_fork_same_height_first_seen_wins(self, chain, base_state):
        b1, s1 = child_block(chain, chain.genesis, base_state, nudge=0)
        b2, s2 = child_block(chain, chain.genesis, base_state, nudge=1)
        assert chain.add_block(b1, s1) is True
        assert chain.add_block(b2, s2) is False  # same height, not new head
        assert chain.head is b1
        assert len(chain.blocks_at_height(1)) == 2

    def test_uncles_tracked(self, chain, base_state):
        b1, s1 = child_block(chain, chain.genesis, base_state, nudge=0)
        b2, s2 = child_block(chain, chain.genesis, base_state, nudge=1)
        chain.add_block(b1, s1)
        chain.add_block(b2, s2)
        assert chain.canonical_hash_at(1) == b1.hash
        assert [b.hash for b in chain.blocks_at_height(1)] == [b1.hash, b2.hash]
        assert chain.uncle_count() == 1

    def test_canonical_chain_walks_parents(self, chain, base_state):
        parent = chain.genesis
        for _ in range(3):
            block, state = child_block(chain, parent, base_state)
            chain.add_block(block, state)
            parent = block
        numbers = [b.number for b in chain.canonical_chain()]
        assert numbers == [0, 1, 2, 3]

    def test_longer_fork_reorgs_head(self, chain, base_state):
        b1, s1 = child_block(chain, chain.genesis, base_state, nudge=0)
        b2, s2 = child_block(chain, chain.genesis, base_state, nudge=1)
        chain.add_block(b1, s1)
        chain.add_block(b2, s2)
        assert chain.head is b1
        # extend the b2 branch: it becomes the longest chain
        b3, s3 = child_block(chain, b2, base_state)
        assert chain.add_block(b3, s3) is True
        assert chain.head is b3
        assert chain.canonical_hash_at(1) == b2.hash
        # the displaced block stays resident as the sibling
        assert chain.block(b1.hash) is b1
        assert chain.uncle_count() == 1

    def test_number_gap_rejected(self, chain, base_state):
        state = chain.head_state
        header = make_header(chain.genesis.header, state.state_root(), number=5)
        with pytest.raises(ChainError, match="gap"):
            chain.add_block(Block(header, ()), state)

    def test_state_at_returns_snapshot(self, chain, base_state):
        block, state = child_block(chain, chain.genesis, base_state)
        chain.add_block(block, state)
        assert chain.state_at(block.hash) is state
        assert chain.state_at(hash32(b"\x99" * 32)) is None
