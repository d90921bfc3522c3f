"""The resident window: the chain and the validator keep a fixed span of heights.

A height that falls ``RESIDENT_HEIGHTS`` below the head is final: its
blocks and states leave memory, queries about
them answer ``None``, and a block built on one of them is an unknown
parent.  Totals (uncles, canonical transactions) survive the drop; they
count from the chain's base, which is genesis unless the chain was resumed
from a checkpoint.
"""

import dataclasses

import pytest

from repro.chain.blockchain import RESIDENT_HEIGHTS, Blockchain, ChainError
from repro.faults.errors import FailureReason
from repro.network.node import ValidatorNode
from repro.network.simnet import NetworkConfig, NetworkSimulation
from repro.workload.generator import WorkloadConfig

BLOCKS = 3 * RESIDENT_HEIGHTS


@pytest.fixture()
def pairs(build_chain):
    return build_chain(BLOCKS)


def _sibling(block):
    """A same-parent, same-state block with a different hash."""
    header = dataclasses.replace(block.header, proposer_id="sibling")
    return dataclasses.replace(block, header=header)


def test_chain_keeps_resident_heights_plus_the_head(small_universe, pairs):
    chain = Blockchain(small_universe.genesis)
    for block, post_state in pairs:
        chain.add_block(block, post_state)
    head = chain.height()
    assert head == BLOCKS
    assert chain.base_height == head - RESIDENT_HEIGHTS
    resident = [n for n in range(head + 1) if chain.blocks_at_height(n)]
    assert resident == list(range(head - RESIDENT_HEIGHTS, head + 1))
    assert len(chain) == RESIDENT_HEIGHTS + 1
    assert [b.number for b in chain.canonical_chain()] == resident

    pruned = pairs[0][0]
    assert chain.state_at(pruned.hash) is None
    assert chain.block(pruned.hash) is None
    assert chain.canonical_hash_at(pruned.number) is None
    assert chain.blocks_at_height(pruned.number) == []
    # a resident block still answers every query
    kept = pairs[-1][0]
    assert chain.block(kept.hash) is kept
    assert chain.blocks_at_height(kept.number) == [kept]
    assert chain.canonical_hash_at(kept.number) == kept.hash
    # the whole run's canonical transactions, not only the resident ones
    assert chain.canonical_tx_count() == sum(len(b) for b, _ in pairs)


def test_uncle_totals_survive_the_window(small_universe, pairs):
    chain = Blockchain(small_universe.genesis)
    for block, post_state in pairs:
        chain.add_block(block, post_state)
        # first seen wins the tie: the sibling stays an uncle candidate
        assert not chain.add_block(_sibling(block), post_state)
    assert chain.uncle_count() == BLOCKS
    depth = chain.height() - 6
    canonical, sibling = pairs[depth - 1][0], _sibling(pairs[depth - 1][0])
    assert chain.canonical_hash_at(depth) == canonical.hash
    assert [b.hash for b in chain.blocks_at_height(depth)] == [canonical.hash, sibling.hash]
    assert chain.block(sibling.hash) is not None
    assert len(chain.blocks_at_height(chain.base_height)) == 2
    assert chain.blocks_at_height(chain.base_height - 1) == []


def test_a_checkpointed_chain_counts_from_its_checkpoint(small_universe, pairs):
    """``from_checkpoint`` carries no totals (the manifest holds none): a
    resumed chain counts uncles and canonical transactions above it only."""
    full = Blockchain(small_universe.genesis)
    for block, post_state in pairs:
        full.add_block(block, post_state)
    cut = RESIDENT_HEIGHTS
    checkpoint, checkpoint_state = pairs[cut - 1]
    resumed = Blockchain.from_checkpoint(checkpoint.header, checkpoint_state)
    assert resumed.uncle_count() == resumed.canonical_tx_count() == 0
    for block, post_state in pairs[cut:]:
        resumed.add_block(block, post_state)
        assert not resumed.add_block(_sibling(block), post_state)
    assert resumed.head.hash == full.head.hash
    assert resumed.canonical_tx_count() == sum(len(b) for b, _ in pairs[cut:])
    assert resumed.canonical_tx_count() < full.canonical_tx_count()
    assert resumed.uncle_count() == len(pairs) - cut


def test_a_block_whose_parent_left_is_refused(small_universe, pairs):
    validator = ValidatorNode("window", small_universe.genesis)
    for block, post_state in pairs:
        validator.chain.add_block(block, post_state)
    orphan = _sibling(pairs[1][0])  # its parent, height 1, has left
    with pytest.raises(ChainError, match="unknown parent"):
        validator.chain.add_block(orphan, pairs[1][1])
    outcome = validator.receive_blocks([orphan])
    assert not outcome.accepted
    assert outcome.failures[0].reason is FailureReason.UNKNOWN_PARENT


def test_network_totals_are_whole_run_numbers(small_universe):
    """Every round forks: 24 rounds leave 24 uncles and 24 full blocks of
    transactions, though only the last window of heights is resident."""
    rounds = 3 * RESIDENT_HEIGHTS
    sim = NetworkSimulation(
        small_universe,
        config=NetworkConfig(rounds=rounds, fork_probability=1.0, seed=2),
        workload=WorkloadConfig(txs_per_block=30, tx_count_jitter=0.0, seed=3),
    )
    result = sim.run()
    assert result.chains_agree
    assert result.final_height == rounds
    assert result.uncle_count == rounds
    assert result.total_txs == rounds * 30
