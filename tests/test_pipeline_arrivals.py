"""Pipeline behaviour on mixed-height batches and edge inputs."""

import pytest

from repro.core.pipeline import ValidatorPipeline
from repro.network.node import ProposerNode, ValidatorNode


class TestArrivals:
    def test_empty_batch(self):
        pipe = ValidatorPipeline()
        res = pipe.process_blocks([], {})
        assert res.results == []
        assert res.makespan == 0.0
        assert res.all_accepted  # vacuously

    def test_empty_receive_on_node(self, small_universe):
        node = ValidatorNode("v", small_universe.genesis)
        outcome = node.receive_blocks([])
        assert outcome.accepted == [] and outcome.rejected == []


class TestMixedHeightsWithArrivals:
    def test_child_arriving_first_still_waits_for_parent(
        self, small_universe, small_generator, genesis_chain
    ):
        node = ProposerNode("alice")
        txs1 = small_generator.generate_block_txs()
        sealed1 = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs1
        )
        txs2 = small_generator.generate_block_txs()
        sealed2 = node.build_block(sealed1.block.header, sealed1.post_state, txs2)

        pipe = ValidatorPipeline()
        # the child comes before its parent in the batch
        res = pipe.process_blocks(
            [sealed2.block, sealed1.block],
            {genesis_chain.genesis.header.hash: small_universe.genesis},
        )
        assert res.all_accepted
        child_t, parent_t = res.timings
        assert child_t.validate_end >= parent_t.validate_end
        assert child_t.commit_end >= parent_t.commit_end
