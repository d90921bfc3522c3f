"""Tests for conflict-source analysis and the timeline renderer."""

import dataclasses

import pytest

from repro.analysis.conflicts import analyze_block_conflicts
from repro.analysis.timeline import render_timeline
from repro.network.node import ProposerNode
from repro.simcore.lanes import LaneGroup


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
    def test_basic_rendering(self):
        group = LaneGroup(2, record_trace=True)
        group.run_on_earliest(10.0, tag="a")
        group.run_on_earliest(5.0, tag="b")
        group.run_on_earliest(5.0, tag="c")
        out = render_timeline(group, width=20)
        lines = out.splitlines()
        assert lines[0].startswith("lane  0")
        assert "#" in lines[0]
        assert "100%" in lines[0]  # lane 0 busy for the whole span

    def test_labels(self):
        group = LaneGroup(1, record_trace=True)
        group.run_on_earliest(4.0, tag="x")
        out = render_timeline(group, width=10, label_of=lambda t: t.upper())
        assert "X" in out

    def test_requires_recording(self):
        with pytest.raises(ValueError):
            render_timeline(LaneGroup(1))

    def test_empty_group(self):
        group = LaneGroup(1, record_trace=True)
        assert "empty" in render_timeline(group)

    def test_idle_gaps_visible(self):
        group = LaneGroup(2, record_trace=True)
        group.lanes[0].run(10.0, record=True)
        group.lanes[1].run(2.0, record=True)
        out = render_timeline(group, width=20)
        lane1 = out.splitlines()[1]
        assert "." in lane1  # idle tail on the short lane

    def test_tracer_path_labels_cells_by_span_name(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        group = LaneGroup(1, tracer=tracer, span_namer=lambda tag: str(tag))
        group.run_on_earliest(4.0, tag="exec")
        out = render_timeline(group, width=10, tracer=tracer)
        assert "e" in out  # first char of the span name "exec"
        assert "#" not in out

    def test_tracer_and_trace_paths_paint_identical_bars(self):
        """Same schedule, both recording sources: identical busy cells."""
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        group = LaneGroup(
            2, record_trace=True, tracer=tracer, span_namer=lambda tag: "task"
        )
        for duration, tag in ((10.0, "a"), (5.0, "b"), (5.0, "c"), (3.0, "d")):
            group.run_on_earliest(duration, tag=tag)

        from_trace = render_timeline(group, width=24)
        from_tracer = render_timeline(group, width=24, tracer=tracer)
        # span name "task" paints "t" where the record_trace path paints
        # "#"; normalising the label makes the two renders byte-identical
        assert from_tracer.replace("t", "#") == from_trace

    def test_tracer_path_needs_no_record_trace(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        group = LaneGroup(1, tracer=tracer)
        group.run_on_earliest(2.0, tag="x")
        assert group.lanes[0].trace == []  # nothing recorded on the lane
        out = render_timeline(group, width=8, tracer=tracer)
        assert "t" in out  # default span name "task"
