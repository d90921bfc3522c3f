"""Differential oracle: sealed blocks vs a fresh serial replay.

Honest blocks must diff clean; every class of tampering — header roots,
receipts, profile entries, proposer bookkeeping — must surface as a typed
:class:`~repro.check.differential.DiffFinding` naming the divergence.
"""

import dataclasses

import pytest

from repro.chain.block import BlockProfile
from repro.check.differential import diff_block, diff_proposal
from repro.common.types import hash32
from repro.network.node import ProposerNode
from repro.txpool.transaction import Transaction


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("diff-test").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


def _kinds(report):
    return {f.kind for f in report.findings}


class TestHonestBlocks:
    def test_sealed_block_diffs_clean(self, sealed, small_universe):
        report = diff_block(sealed.block, small_universe.genesis)
        assert report.ok, report.summary()
        assert report.n_txs == len(sealed.block.transactions)
        assert report.serial_state_root == bytes(sealed.block.header.state_root)

    def test_sealed_proposal_diffs_clean(self, sealed, small_universe):
        report = diff_proposal(sealed, small_universe.genesis)
        assert report.ok, report.summary()

    def test_empty_block_diffs_clean(self, small_universe, genesis_chain):
        sealed = ProposerNode("diff-test").build_block(
            genesis_chain.genesis.header, small_universe.genesis, []
        )
        assert diff_block(sealed.block, small_universe.genesis).ok

    def test_summary_mentions_outcome(self, sealed, small_universe):
        assert "OK" in diff_block(sealed.block, small_universe.genesis).summary()


class TestHeaderTampering:
    def test_wrong_state_root_found(self, sealed, small_universe):
        header = dataclasses.replace(
            sealed.block.header, state_root=hash32(b"\x01" * 32)
        )
        bad = dataclasses.replace(sealed.block, header=header)
        report = diff_block(bad, small_universe.genesis)
        assert not report.ok
        assert "state_root" in _kinds(report)
        # the replay itself succeeded, so the true root is still reported
        assert report.serial_state_root == bytes(sealed.block.header.state_root)

    def test_wrong_gas_used_found(self, sealed, small_universe):
        header = dataclasses.replace(
            sealed.block.header, gas_used=sealed.block.header.gas_used + 1
        )
        bad = dataclasses.replace(sealed.block, header=header)
        report = diff_block(bad, small_universe.genesis)
        assert not report.ok
        assert "gas_used" in _kinds(report)


class TestReceiptTampering:
    def test_tampered_receipt_gas_found(self, sealed, small_universe):
        receipts = list(sealed.block.receipts)
        victim = receipts[1]
        receipts[1] = dataclasses.replace(victim, gas_used=victim.gas_used + 7)
        bad = dataclasses.replace(sealed.block, receipts=tuple(receipts))
        report = diff_block(bad, small_universe.genesis)
        assert not report.ok
        kinds = _kinds(report)
        assert "receipt_gas" in kinds
        # header's receipts root no longer matches either
        assert "structure" in kinds
        assert any(f.kind == "receipt_gas" and f.index == 1 for f in report.findings)

    def test_tampered_success_flag_found(self, sealed, small_universe):
        receipts = list(sealed.block.receipts)
        victim = receipts[0]
        receipts[0] = dataclasses.replace(victim, success=not victim.success)
        bad = dataclasses.replace(sealed.block, receipts=tuple(receipts))
        report = diff_block(bad, small_universe.genesis)
        assert "receipt_success" in _kinds(report)

    def test_dropped_receipt_found(self, sealed, small_universe):
        bad = dataclasses.replace(sealed.block, receipts=sealed.block.receipts[:-1])
        report = diff_block(bad, small_universe.genesis)
        assert "receipt_count" in _kinds(report)


class TestProfileTampering:
    def test_tampered_profile_gas_found(self, sealed, small_universe):
        entries = list(sealed.block.profile.entries)
        entries[3] = dataclasses.replace(entries[3], gas_used=entries[3].gas_used + 1)
        bad = dataclasses.replace(
            sealed.block, profile=BlockProfile(entries=tuple(entries))
        )
        report = diff_block(bad, small_universe.genesis)
        assert not report.ok
        assert any(
            f.kind == "profile_gas" and f.index == 3 for f in report.findings
        )

    def test_hidden_profile_read_found(self, sealed, small_universe):
        from repro.state.access import FrozenRWSet

        entries = list(sealed.block.profile.entries)
        victim = entries[0]
        stripped = FrozenRWSet(reads=victim.rw.reads[1:], writes=victim.rw.writes)
        entries[0] = dataclasses.replace(victim, rw=stripped)
        bad = dataclasses.replace(
            sealed.block, profile=BlockProfile(entries=tuple(entries))
        )
        report = diff_block(bad, small_universe.genesis)
        assert "profile_reads" in _kinds(report)

    def test_tampered_write_value_found(self, sealed, small_universe):
        from repro.state.access import FrozenRWSet

        entries = list(sealed.block.profile.entries)
        victim = next(e for e in entries if e.rw.writes)
        index = entries.index(victim)
        key, value = victim.rw.writes[0]
        forged = ((key, value + 1),) + tuple(victim.rw.writes[1:])
        entries[index] = dataclasses.replace(
            victim, rw=FrozenRWSet(reads=victim.rw.reads, writes=forged)
        )
        bad = dataclasses.replace(
            sealed.block, profile=BlockProfile(entries=tuple(entries))
        )
        report = diff_block(bad, small_universe.genesis)
        assert any(
            f.kind == "profile_writes" and f.index == index for f in report.findings
        )


class TestReplayAborts:
    def test_invalid_transaction_stops_replay(self, sealed, small_universe):
        honest = sealed.block.transactions[0]
        bogus = Transaction(
            sender=honest.sender,
            to=honest.to,
            value=honest.value,
            data=honest.data,
            gas_limit=honest.gas_limit,
            gas_price=honest.gas_price,
            nonce=honest.nonce + 99,  # nonce gap: serial replay must reject
        )
        bad = dataclasses.replace(
            sealed.block,
            transactions=(bogus,) + sealed.block.transactions[1:],
        )
        report = diff_block(bad, small_universe.genesis)
        assert not report.ok
        assert "invalid_tx" in _kinds(report)
        assert report.serial_state_root is None


class TestProposalBookkeeping:
    def test_stats_drift_found(self, sealed, small_universe):
        sealed.proposal.stats.extra["committed"] += 1
        try:
            report = diff_proposal(sealed, small_universe.genesis)
        finally:
            sealed.proposal.stats.extra["committed"] -= 1
        assert not report.ok
        assert "stats_committed" in _kinds(report)

    def test_invalid_dropped_drift_found(self, sealed, small_universe):
        extra = sealed.proposal.stats.extra
        original = extra.get("invalid_dropped", 0)
        extra["invalid_dropped"] = original + 5
        try:
            report = diff_proposal(sealed, small_universe.genesis)
        finally:
            extra["invalid_dropped"] = original
        assert "stats_invalid_dropped" in _kinds(report)
