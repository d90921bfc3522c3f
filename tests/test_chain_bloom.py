"""Logs-bloom tests: filter semantics and end-to-end header verification."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.bloom import BLOOM_BYTES, Bloom, bloom_from_logs
from repro.common.types import address_from_int
from repro.core.validator import ParallelValidator
from repro.evm.interpreter import Log
from repro.network.node import ProposerNode


class TestBloomSemantics:
    def test_empty_contains_nothing_definitely(self):
        b = Bloom()
        assert not b.might_contain(b"anything")
        assert b.bit_count() == 0

    def test_added_item_always_found(self):
        b = Bloom()
        b.add(b"hello")
        assert b.might_contain(b"hello")

    def test_three_bits_per_item(self):
        b = Bloom()
        b.add(b"item")
        assert 1 <= b.bit_count() <= 3  # hash collisions may overlap bits

    def test_round_trip_bytes(self):
        b = Bloom()
        b.add(b"x")
        raw = b.to_bytes()
        assert len(raw) == BLOOM_BYTES
        assert Bloom(int.from_bytes(raw, "big")).to_bytes() == raw

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            Bloom(-1)
        with pytest.raises(ValueError):
            Bloom(1 << 8 * BLOOM_BYTES)

    def test_log_addresses_and_topics_indexed(self):
        addr = address_from_int(0xABC)
        log = Log(addr, (0x1234, 0x5678), b"payload")
        bloom = bloom_from_logs([log])
        assert bloom.might_contain(bytes(addr))
        assert bloom.might_contain((0x1234).to_bytes(32, "big"))
        assert bloom.might_contain((0x5678).to_bytes(32, "big"))
        # data is NOT indexed (Ethereum semantics)
        assert not bloom.might_contain(b"payload")

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=16), max_size=20), st.binary(min_size=17, max_size=20))
    def test_no_false_negatives(self, members, probe):
        b = Bloom()
        for m in members:
            b.add(m)
        for m in members:
            assert b.might_contain(m)
        # probes longer than any member cannot be members; they may still
        # false-positive, but with 2048 bits and <=20 items it is unlikely —
        # check the definitely-absent direction statistically instead
        if not members:
            assert not b.might_contain(probe)


class TestHeaderBloom:
    def test_sealed_header_carries_bloom(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        # the workload's contracts LOG, so the bloom is non-empty
        assert sealed.block.header.logs_bloom != b"\x00" * BLOOM_BYTES

    def test_validator_rejects_tampered_bloom(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        tampered = dataclasses.replace(
            sealed.block,
            header=dataclasses.replace(
                sealed.block.header, logs_bloom=b"\xff" * BLOOM_BYTES
            ),
        )
        res = ParallelValidator().validate_block(tampered, small_universe.genesis)
        assert not res.accepted
        assert "bloom" in res.reason

    def test_contract_address_queryable_via_bloom(
        self, small_universe, small_generator, genesis_chain
    ):
        """A client filtering for the hot AMM finds the block plausible."""
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        bloom = Bloom(int.from_bytes(sealed.block.header.logs_bloom, "big"))
        touched = {t.to for t in txs if t.tag == "amm"}
        successful_logs = {
            log.address
            for c in sealed.proposal.committed
            for log in c.result.logs
        }
        for address in touched & successful_logs:
            assert bloom.might_contain(bytes(address))

    def test_receipt_logs_consistent_with_counts(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        assert any(receipt.logs for receipt in sealed.block.receipts)
        for receipt in sealed.block.receipts:
            assert len(receipt.logs) == receipt.log_count
