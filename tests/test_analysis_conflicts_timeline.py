"""Tests for conflict-source analysis and the timeline renderer."""

import dataclasses

import pytest

from benchmarks.analysis import analyze_block_conflicts
from repro.network.node import ProposerNode
from repro.obs.export import render_timeline
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simcore.lanes import TASK_SPAN, LaneGroup


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("alice").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestConflictAnalysis:
    def test_counters_and_storage_dominate(self, sealed):
        """The §2.3 claim on our workload: conflicts come from counters
        (balances/nonces) and contract storage; code conflicts are absent."""
        breakdown = analyze_block_conflicts(sealed.block)
        assert breakdown.total_edges > 0
        assert breakdown.counter_fraction() + breakdown.storage_fraction() > 0.95
        assert breakdown.edges_by_kind.get("code", 0) == 0

    def test_hot_keys_include_contract_storage(self, sealed, small_universe):
        """Hotspot contract state (AMM reserves, NFT counters, airdrop
        supply) shows up among the most-conflicted keys.  Popular EOA
        balances (Zipf receivers) may rank alongside — both are exactly
        the counter/storage split the study describes."""
        breakdown = analyze_block_conflicts(sealed.block)
        assert breakdown.hot_keys
        assert breakdown.hot_keys[0][1] >= 2
        hot_contracts = (
            {a for a, _, _ in small_universe.amms}
            | set(small_universe.nfts)
            | set(small_universe.airdrops)
            | set(small_universe.tokens)
        )
        top_addresses = {address for (_, address, _), _ in breakdown.hot_keys}
        assert top_addresses & hot_contracts

    def test_conflicting_fraction_bounded(self, sealed):
        breakdown = analyze_block_conflicts(sealed.block)
        assert 0.0 < breakdown.conflicting_tx_fraction <= 1.0

    def test_rows_render(self, sealed):
        breakdown = analyze_block_conflicts(sealed.block)
        rows = breakdown.rows()
        assert rows[0]["edges"] >= rows[-1]["edges"]
        assert all("%" in r["share"] for r in rows)

    def test_profileless_block_rejected(self, sealed):
        stripped = dataclasses.replace(sealed.block, profile=None)
        with pytest.raises(ValueError):
            analyze_block_conflicts(stripped)

    def test_empty_block(self, small_universe, genesis_chain):
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, []
        )
        breakdown = analyze_block_conflicts(sealed.block)
        assert breakdown.total_edges == 0
        assert breakdown.counter_fraction() == 0.0


class TestTimeline:
    """The timeline paints a LaneGroup's schedule from its tracer's spans."""

    @staticmethod
    def traced(lanes):
        tracer = Tracer()
        return tracer, LaneGroup(lanes, tracer=tracer)

    def test_basic_rendering(self):
        tracer, group = self.traced(2)
        group.run_on_earliest(10.0, tag="a")
        group.run_on_earliest(5.0, tag="b")
        group.run_on_earliest(5.0, tag="c")
        out = render_timeline(tracer, width=20)
        lines = out.splitlines()
        assert lines[0].startswith("lane  0")
        assert "." not in lines[0]  # lane 0 busy for the whole span
        assert "100%" in lines[0]
        assert lines[1].startswith("lane  1")

    def test_labels(self):
        tracer, group = self.traced(1)
        group.run_on_earliest(4.0, tag="x")
        out = render_timeline(tracer, width=10, label_of=lambda t: t.upper())
        assert "X" in out

    def test_requires_recording(self):
        with pytest.raises(ValueError):
            render_timeline(NULL_TRACER)

    def test_empty_group(self):
        tracer, _ = self.traced(1)
        assert "empty" in render_timeline(tracer)

    def test_idle_gaps_visible(self):
        tracer, group = self.traced(2)
        group.run_on_earliest(10.0, tag="long")
        group.run_on_earliest(2.0, tag="short")
        out = render_timeline(tracer, width=20)
        lane1 = out.splitlines()[1]
        assert "." in lane1  # idle tail on the short lane

    def test_tracer_path_labels_cells_by_span_name(self):
        tracer, group = self.traced(1)
        group.run_on_earliest(4.0, tag="exec")
        out = render_timeline(tracer, width=10)
        assert TASK_SPAN[0] in out  # first char of the lane span's name
        assert "#" not in out

    def test_tracer_path_needs_no_record_trace(self):
        """The lanes keep no interval log: the tracer's spans are the record,
        and spans off any lane (phases, instants) are not painted."""
        tracer, group = self.traced(1)
        group.run_on_earliest(2.0, tag="x")
        tracer.record("prepare", 0.0, 8.0)
        tracer.instant("serial_fallback", 1.0, lane=0)
        assert not hasattr(group.lanes[0], "trace")
        out = render_timeline(tracer, width=8)
        assert out.splitlines()[0] == f"lane  0 |{TASK_SPAN[0] * 8}| 100%"
