"""Long-chain soak: a §5.2-style correctness run with periodic forks.

Grows a 15-block chain through a ValidatorNode; every third height two
proposers race (fork), siblings are pipelined together, and the chain
reorgs when a branch extends.  At every height the canonical root must
be reproducible by serial execution from genesis.  The chain keeps only
a window of heights resident, so the test collects the canonical blocks
as it goes.
"""

import pytest

from repro.core.baselines import SerialExecutor
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode, ValidatorNode


@pytest.mark.slow
def test_long_chain_with_periodic_forks(small_universe, small_generator):
    validator = ValidatorNode("soak", small_universe.genesis)
    proposer = ProposerNode("alice")
    serial = SerialExecutor()

    heights = 15
    fork_every = 3
    total_uncles = 0
    canonical = []

    for height in range(1, heights + 1):
        parent = validator.chain.head
        parent_state = validator.chain.state_at(parent.hash)
        txs = small_generator.generate_block_txs()

        if height % fork_every == 0:
            forks = ForkSimulator(2, seed=height).propose_forks(
                parent.header, parent_state, txs
            )
            outcome = validator.receive_blocks(forks.blocks)
            assert len(outcome.accepted) == 2, [
                r.reason for r in outcome.pipeline.results
            ]
            total_uncles += 1
        else:
            sealed = proposer.build_block(parent.header, parent_state, txs)
            outcome = validator.receive_blocks([sealed.block])
            assert outcome.accepted, outcome.pipeline.results[0].reason

        # chain invariants at every step
        head = validator.chain.head
        assert head.number == height
        canonical.append(head)
        assert (
            validator.chain.head_state.state_root() == head.header.state_root
        )

    assert validator.chain.height() == heights
    assert validator.chain.uncle_count() >= total_uncles

    # every block was built on the head, so no later reorg replaced one
    resident = validator.chain.canonical_chain()
    assert resident == canonical[-len(resident):]

    # full serial replay of the canonical chain from genesis
    state = small_universe.genesis
    for block in canonical:
        result = serial.execute_block(block, state)
        assert result.post_state.state_root() == block.header.state_root
        state = result.post_state

    # every canonical head state matches what the validator stored
    assert state.state_root() == validator.chain.head_state.state_root()


@pytest.mark.slow
def test_generator_chain_consistency_across_many_blocks(
    small_universe, small_generator
):
    """The generator's nonce ledger stays in lock-step with the chain over
    a long run (the invariant the workload layer promises)."""
    validator = ValidatorNode("gen", small_universe.genesis)
    proposer = ProposerNode("alice")
    for _ in range(10):
        parent = validator.chain.head
        parent_state = validator.chain.state_at(parent.hash)
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(parent.header, parent_state, txs)
        # every generated tx made it into the block (none invalid/dropped)
        assert len(sealed.block) == len(txs)
        assert sealed.proposal.invalid_dropped == 0
        assert validator.receive_blocks([sealed.block]).accepted

    # on-chain nonces equal the generator's ledger
    head_state = validator.chain.head_state
    for sender, expected in small_universe.nonces.items():
        acct = head_state.account(sender)
        assert acct is not None and acct.nonce == expected
