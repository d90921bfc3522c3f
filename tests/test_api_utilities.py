"""Tests for the library-facade utilities: snapshot serialization,
gas estimation, and the chain transaction index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.evm.asm import asm
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction
from repro.network.node import ProposerNode, ValidatorNode
from repro.state.account import AccountData
from repro.state.serialize import (
    SnapshotFormatError,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.state.statedb import genesis_snapshot
from repro.txpool.transaction import Transaction

ETHER = 10**18
SENDER = address_from_int(0x77)
CONTRACT = address_from_int(0x88)


class TestSnapshotSerialization:
    def make(self):
        return genesis_snapshot(
            {
                SENDER: AccountData(balance=5 * ETHER, nonce=3),
                CONTRACT: AccountData(
                    code=b"\x60\x00", storage={1: 42, 2**200: 7}
                ),
            }
        )

    def test_round_trip_preserves_root(self):
        snap = self.make()
        rebuilt = snapshot_from_json(snapshot_to_json(snap))
        assert rebuilt.state_root() == snap.state_root()
        assert rebuilt.account(SENDER).balance == 5 * ETHER
        assert rebuilt.account(CONTRACT).storage[2**200] == 7

    def test_universe_genesis_round_trips(self, small_universe):
        text = snapshot_to_json(small_universe.genesis)
        rebuilt = snapshot_from_json(text)
        assert rebuilt.state_root() == small_universe.genesis.state_root()

    def test_tampered_root_detected(self):
        text = snapshot_to_json(self.make())
        tampered = text.replace('"stateRoot": "', '"stateRoot": "00', 1)
        with pytest.raises(SnapshotFormatError, match="root mismatch"):
            snapshot_from_json(tampered)

    def test_verify_can_be_skipped(self):
        text = snapshot_to_json(self.make())
        tampered = text.replace('"stateRoot": "', '"stateRoot": "00', 1)
        snapshot_from_json(tampered, verify_root=False)  # no raise

    def test_garbage_rejected(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("[]")
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("{nope")

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.integers(1, 50),
            st.tuples(st.integers(0, 10**20), st.integers(0, 5)),
            max_size=10,
        )
    )
    def test_property_round_trip(self, raw):
        alloc = {
            address_from_int(0x1000 + k): AccountData(balance=b, nonce=n)
            for k, (b, n) in raw.items()
        }
        snap = genesis_snapshot(alloc)
        rebuilt = snapshot_from_json(snapshot_to_json(snap))
        assert rebuilt.state_root() == snap.state_root()


class TestEstimateGas:
    def test_plain_transfer_estimates_21000(self):
        snap = genesis_snapshot({SENDER: AccountData(balance=ETHER)})
        tx = Transaction(SENDER, address_from_int(0x99), 100, b"", 1_000_000, 0, 0)
        estimate = EVM().estimate_gas(snap, tx, ExecutionContext())
        assert estimate == 21000

    def test_storage_write_estimate_tight(self):
        code = asm([1, 5, "SSTORE", "STOP"])
        snap = genesis_snapshot(
            {SENDER: AccountData(balance=ETHER), CONTRACT: AccountData(code=code)}
        )
        tx = Transaction(SENDER, CONTRACT, 0, b"", 1_000_000, 0, 0)
        evm = EVM()
        estimate = evm.estimate_gas(snap, tx, ExecutionContext())
        assert estimate == 21000 + 3 + 3 + 20000
        # and it is truly minimal: one unit less fails
        from repro.state.statedb import StateDB
        import dataclasses

        lower = dataclasses.replace(tx, gas_limit=estimate - 1)
        result = evm.apply_transaction(StateDB(snap), lower, ExecutionContext())
        assert not result.success

    def test_impossible_tx_raises(self):
        code = asm([0, 0, "REVERT"])
        snap = genesis_snapshot(
            {SENDER: AccountData(balance=ETHER), CONTRACT: AccountData(code=code)}
        )
        tx = Transaction(SENDER, CONTRACT, 0, b"", 1_000_000, 0, 0)
        with pytest.raises(InvalidTransaction):
            EVM().estimate_gas(snap, tx, ExecutionContext())

    def test_estimation_does_not_mutate_state(self):
        snap = genesis_snapshot({SENDER: AccountData(balance=ETHER)})
        tx = Transaction(SENDER, address_from_int(0x99), 100, b"", 1_000_000, 0, 0)
        root_before = snap.state_root()
        EVM().estimate_gas(snap, tx, ExecutionContext())
        assert snap.state_root() == root_before
        assert snap.account(SENDER).nonce == 0


class TestTransactionIndex:
    def test_find_transaction_on_canonical_chain(
        self, small_universe, small_generator, genesis_chain
    ):
        validator = ValidatorNode("idx", small_universe.genesis)
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            validator.chain.genesis.header, small_universe.genesis, txs
        )
        assert validator.receive_blocks([sealed.block]).accepted
        target = sealed.block.transactions[3]
        found = validator.chain.find_transaction(target.hash)
        assert found is not None
        block, index, receipt = found
        assert block is sealed.block
        assert index == 3
        assert receipt.tx_hash == target.hash

    def test_unknown_hash_returns_none(self, small_universe):
        from repro.common.hashing import hash_of

        validator = ValidatorNode("idx", small_universe.genesis)
        assert validator.chain.find_transaction(hash_of(b"ghost")) is None

    def test_uncle_only_tx_not_canonical(
        self, small_universe, small_generator, genesis_chain
    ):
        """A transaction that only appears in a non-canonical sibling is
        not reported as canonical."""
        from repro.network.dissemination import ForkSimulator

        validator = ValidatorNode("idx", small_universe.genesis)
        txs = small_generator.generate_block_txs()
        # sibling B gets a reduced view: some of A's txs are absent from B;
        # but both are at the same height and A (first) is canonical, so
        # every tx of A resolves to A
        forks = ForkSimulator(2, seed=9, pool_overlap=0.6).propose_forks(
            validator.chain.genesis.header, small_universe.genesis, txs
        )
        outcome = validator.receive_blocks(forks.blocks)
        assert len(outcome.accepted) == 2
        canonical = validator.chain.head
        for tx in canonical.transactions:
            block, _, _ = validator.chain.find_transaction(tx.hash)
            assert block.hash == canonical.hash
