"""Trace serialization round-trip and replay-equivalence tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.txpool.transaction import Transaction
from repro.workload.traces import (
    TraceError,
    dump_trace,
    load_trace,
    load_trace_file,
    save_trace_file,
)


def tx(sender=1, to=2, value=0, data=b"", nonce=0, price=10, tag=""):
    return Transaction(
        address_from_int(sender),
        address_from_int(to) if to is not None else None,
        value,
        data,
        60_000,
        price,
        nonce,
        tag=tag,
    )


class TestRoundTrip:
    def test_simple(self):
        blocks = [[tx(), tx(nonce=1)], [tx(sender=3)]]
        assert load_trace(dump_trace(blocks)) == blocks

    def test_create_tx(self):
        blocks = [[tx(to=None, data=b"\x60\x00")]]
        loaded = load_trace(dump_trace(blocks))
        assert loaded[0][0].to is None
        assert loaded == blocks

    def test_huge_value_preserved(self):
        blocks = [[tx(value=2**200)]]
        assert load_trace(dump_trace(blocks))[0][0].value == 2**200

    def test_tag_preserved(self):
        blocks = [[tx(tag="erc20")]]
        assert load_trace(dump_trace(blocks))[0][0].tag == "erc20"

    def test_file_round_trip(self, tmp_path):
        blocks = [[tx(), tx(sender=5, data=b"\x01\x02")]]
        path = str(tmp_path / "trace.json")
        save_trace_file(path, blocks, note="unit test")
        assert load_trace_file(path) == blocks

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.builds(
                    tx,
                    sender=st.integers(1, 50),
                    to=st.one_of(st.none(), st.integers(1, 50)),
                    value=st.integers(0, 2**256 - 1),
                    data=st.binary(max_size=40),
                    nonce=st.integers(0, 100),
                    price=st.integers(0, 500),
                ),
                max_size=5,
            ),
            max_size=4,
        )
    )
    def test_property_round_trip(self, blocks):
        assert load_trace(dump_trace(blocks)) == blocks


class TestValidation:
    def test_garbage_rejected(self):
        with pytest.raises(TraceError):
            load_trace("not json {")

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "something-else", "version": 1, "blocks": []}')

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "repro-workload-trace", "version": 99, "blocks": []}')

    def test_missing_blocks_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "repro-workload-trace", "version": 1}')

    def test_bad_tx_record_rejected(self):
        doc = (
            '{"format": "repro-workload-trace", "version": 1,'
            ' "blocks": [[{"sender": "zz"}]]}'
        )
        with pytest.raises(TraceError):
            load_trace(doc)


class TestReplayEquivalence:
    def test_recorded_trace_reproduces_block(
        self, small_universe, small_generator, genesis_chain, tmp_path
    ):
        """Record a generated workload, reload it, and verify the proposer
        produces the identical block (hash-for-hash) from the replay."""
        from repro.network.node import ProposerNode
        from repro.workload.traces import load_trace_file, save_trace_file

        txs = small_generator.generate_block_txs()
        path = str(tmp_path / "blocks.json")
        save_trace_file(path, [txs])
        replayed = load_trace_file(path)[0]

        node = ProposerNode("rec")
        sealed_live = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        sealed_replay = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, replayed
        )
        assert sealed_live.block.hash == sealed_replay.block.hash
