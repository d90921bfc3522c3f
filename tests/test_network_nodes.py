"""Node roles and fork dissemination tests."""

import dataclasses
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockchain import Blockchain
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode, ValidatorNode
from repro.store.backend import DiskStore
from repro.store.codec import encode_header
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig


class TestProposerNode:
    def test_build_block_seals_profile(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        block = sealed.block
        assert block.number == 1
        assert block.header.proposer_id == "alice"
        assert block.profile is not None
        assert len(block.profile) == len(block)
        block.validate_structure()

    def test_build_block_without_profile(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header,
            small_universe.genesis,
            txs,
            include_profile=False,
        )
        assert sealed.block.profile is None

    def test_coinbase_earns_fees(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        node = ProposerNode("alice")
        sealed = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        assert sealed.post_state.account(node.coinbase).balance == \
            sealed.proposal.total_fees
        assert sealed.proposal.total_fees > 0


class TestValidatorNode:
    def test_receive_and_extend_chain(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        sealed = ProposerNode("alice").build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        validator = ValidatorNode("bob", small_universe.genesis)
        outcome = validator.receive_blocks([sealed.block])
        assert outcome.accepted == [sealed.block]
        assert outcome.new_head
        assert validator.chain.head is sealed.block

    def test_rejects_unknown_parent(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        node = ProposerNode("alice")
        sealed1 = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        txs2 = small_generator.generate_block_txs()
        sealed2 = node.build_block(sealed1.block.header, sealed1.post_state, txs2)
        validator = ValidatorNode("bob", small_universe.genesis)
        # deliver only the child: its parent is unknown to bob's chain
        outcome = validator.receive_blocks([sealed2.block])
        assert outcome.rejected == [sealed2.block]

    def test_fork_siblings_both_stored(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(2, seed=4).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        validator = ValidatorNode("bob", small_universe.genesis)
        outcome = validator.receive_blocks(forks.blocks)
        assert len(outcome.accepted) == 2
        assert len(validator.chain.blocks_at_height(1)) == 2
        assert validator.chain.uncle_count() == 1


class TestForkSimulator:
    def test_distinct_blocks_same_height(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(3, seed=1).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        blocks = forks.blocks
        assert len({b.hash for b in blocks}) == 3
        assert {b.number for b in blocks} == {1}
        assert {b.header.parent_hash for b in blocks} == {
            genesis_chain.genesis.header.hash
        }

    def test_all_forks_individually_valid(
        self, small_universe, small_generator, genesis_chain
    ):
        from repro.core.validator import ParallelValidator

        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(3, seed=2).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        validator = ParallelValidator()
        for block in forks.blocks:
            res = validator.validate_block(block, small_universe.genesis)
            assert res.accepted, res.reason

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForkSimulator(0)


@pytest.fixture(scope="module")
def lineage(_universe_base):
    """``(genesis state, [parent, child, sibling], in-order chain)``: two
    height-1 siblings, a height-2 child of the first, and the chain a node
    builds from them delivered in that order."""
    universe = dataclasses.replace(_universe_base, nonces={})
    generator = BlockWorkloadGenerator(
        universe, WorkloadConfig(txs_per_block=12, tx_count_jitter=0.0, seed=5)
    )
    genesis = Blockchain(universe.genesis).genesis
    forks = ForkSimulator(2, seed=4).propose_forks(
        genesis.header, universe.genesis, generator.generate_block_txs()
    )
    parent, sibling = forks.proposals
    child = ProposerNode("proposer-0").build_block(
        parent.block.header, parent.post_state, generator.generate_block_txs()
    )
    blocks = [parent.block, child.block, sibling.block]
    in_order = ValidatorNode("reference", universe.genesis)
    in_order.receive_blocks(blocks)
    return universe.genesis, blocks, in_order.chain


#: every order of parent (0), child (1) and sibling (2), with up to three
#: repeats of any of them
BATCHES = st.lists(st.sampled_from(range(3)), max_size=3).flatmap(
    lambda repeats: st.permutations([0, 1, 2, *repeats])
)


@pytest.mark.robustness
class TestDeliveryOrder:
    """A batch may hold a child before its parent, or one block twice; a
    block may come again after it was accepted.  None of it changes the
    chain the in-order batch builds, and a durable chain logs each block
    once."""

    @staticmethod
    def _deliver(genesis_state, batches, data_dir):
        store = DiskStore(data_dir, fsync=False, snapshot_interval=0)
        chain = Blockchain(genesis_state, store=store)
        store.initialize(encode_header(chain.genesis.header), genesis_state)
        node = ValidatorNode("v", genesis_state, chain=chain)
        outcomes = [node.receive_blocks(batch) for batch in batches]
        logged = Counter(block.hash for _, block in store.log.scan())
        store.close()
        return chain, outcomes, logged

    @settings(max_examples=40, deadline=None)
    @given(batch=BATCHES, again=st.sampled_from(range(3)))
    def test_any_order_builds_the_in_order_chain(self, lineage, batch, again):
        genesis_state, blocks, expected = lineage
        with tempfile.TemporaryDirectory() as data_dir:
            chain, outcomes, logged = self._deliver(
                genesis_state, [[blocks[i] for i in batch], [blocks[again]]], data_dir
            )
        assert chain.head.hash == expected.head.hash == blocks[1].hash
        assert chain.head_state.state_root() == expected.head_state.state_root()
        assert all(not outcome.rejected for outcome in outcomes)
        assert logged == Counter(block.hash for block in blocks)
