"""Log queries (eth_getLogs-style) and combined storage proofs."""

import pytest

from repro.common.types import address_from_int, hash32
from repro.network.node import ProposerNode, ValidatorNode
from repro.state.proofs import (
    ProofError,
    prove_account,
    prove_storage,
    verify_storage_proof,
)
from repro.workload.contracts import AMM_RESERVE0_SLOT, erc20_balance_slot


@pytest.fixture()
def grown_chain(small_universe, small_generator):
    validator = ValidatorNode("logs", small_universe.genesis)
    proposer = ProposerNode("alice")
    for _ in range(3):
        parent = validator.chain.head
        state = validator.chain.state_at(parent.hash)
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(parent.header, state, txs)
        assert validator.receive_blocks([sealed.block]).accepted
    return validator.chain


class TestGetLogs:
    def test_all_logs_returned_unfiltered(self, grown_chain):
        logs = grown_chain.get_logs()
        assert logs
        numbers = [n for n, _, _ in logs]
        assert numbers == sorted(numbers)

    def test_filter_by_address(self, grown_chain, small_universe):
        token = small_universe.tokens[0]
        logs = grown_chain.get_logs(address=token)
        assert logs
        assert all(log.address == token for _, _, log in logs)

    def test_bloom_filtering_matches_naive_scan(self, grown_chain, small_universe):
        """Bloom-assisted query returns exactly what a full scan finds."""
        for contract in (small_universe.tokens[0], small_universe.nfts[0]):
            fast = grown_chain.get_logs(address=contract)
            naive = [
                (block.number, i, log)
                for block in grown_chain.canonical_chain()
                for i, receipt in enumerate(block.receipts)
                for log in receipt.logs
                if log.address == contract
            ]
            assert fast == naive

    def test_absent_address_empty(self, grown_chain):
        ghost = address_from_int(0xDEAD0001)
        assert grown_chain.get_logs(address=ghost) == []

    def test_block_range(self, grown_chain):
        all_logs = grown_chain.get_logs()
        only_first = grown_chain.get_logs(from_block=1, to_block=1)
        assert only_first
        assert all(n == 1 for n, _, _ in only_first)
        assert len(only_first) < len(all_logs)

    def test_receipt_logs_consistent_with_counts(self, grown_chain):
        for block in grown_chain.canonical_chain()[1:]:
            for receipt in block.receipts:
                assert len(receipt.logs) == receipt.log_count


class TestStorageProofs:
    def test_prove_existing_slot(self, grown_chain, small_universe):
        snapshot = grown_chain.head_state
        pool, _, _ = small_universe.amms[0]
        account_proof, storage_proof = prove_storage(
            snapshot, pool, AMM_RESERVE0_SLOT
        )
        value = verify_storage_proof(
            snapshot.state_root(), pool, AMM_RESERVE0_SLOT,
            account_proof, storage_proof,
        )
        assert value == snapshot.account(pool).storage[AMM_RESERVE0_SLOT]
        assert value > 0

    def test_prove_token_balance_slot(self, grown_chain, small_universe):
        snapshot = grown_chain.head_state
        token = small_universe.tokens[0]
        holder = next(
            e
            for e in small_universe.eoas
            if snapshot.account(token).storage.get(erc20_balance_slot(e), 0) > 0
        )
        slot = erc20_balance_slot(holder)
        account_proof, storage_proof = prove_storage(snapshot, token, slot)
        value = verify_storage_proof(
            snapshot.state_root(), token, slot, account_proof, storage_proof
        )
        assert value == snapshot.account(token).storage[slot]

    def test_absent_slot_proves_zero(self, grown_chain, small_universe):
        snapshot = grown_chain.head_state
        token = small_universe.tokens[0]
        missing_slot = 999_999_999
        account_proof, storage_proof = prove_storage(snapshot, token, missing_slot)
        assert (
            verify_storage_proof(
                snapshot.state_root(), token, missing_slot,
                account_proof, storage_proof,
            )
            == 0
        )

    def test_absent_account_proves_zero(self, grown_chain):
        snapshot = grown_chain.head_state
        ghost = address_from_int(0xDEAD0002)
        account_proof, storage_proof = prove_storage(snapshot, ghost, 0)
        assert storage_proof == []
        assert (
            verify_storage_proof(
                snapshot.state_root(), ghost, 0, account_proof, storage_proof
            )
            == 0
        )

    def test_wrong_root_rejected(self, grown_chain, small_universe):
        snapshot = grown_chain.head_state
        pool, _, _ = small_universe.amms[0]
        account_proof, storage_proof = prove_storage(
            snapshot, pool, AMM_RESERVE0_SLOT
        )
        with pytest.raises(ProofError):
            verify_storage_proof(
                hash32(b"\x01" * 32), pool, AMM_RESERVE0_SLOT,
                account_proof, storage_proof,
            )

    def test_eoa_account_proof(self, grown_chain, small_universe):
        snapshot = grown_chain.head_state
        account_proof = prove_account(snapshot, small_universe.eoas[0])
        assert account_proof  # non-empty path to a funded EOA
