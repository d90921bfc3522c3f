"""End-to-end integration: the full proposer → network → validator loop.

This is the §5.2 correctness check in miniature: over a multi-block chain
with forks, every execution mode (serial, OCC-WSI proposer, BlockPilot
validator, two-phase OCC) must agree on every state root.
"""


from repro.core.baselines import SerialExecutor, TwoPhaseOCCExecutor
from repro.core.validator import ParallelValidator
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode, ValidatorNode


class TestChainGrowth:
    def test_multi_block_chain_all_roots_agree(
        self, small_universe, small_generator
    ):
        proposer = ProposerNode("alice")
        validator = ValidatorNode("bob", small_universe.genesis)
        serial = SerialExecutor()
        occ = TwoPhaseOCCExecutor()

        parent_header = validator.chain.genesis.header
        parent_state = small_universe.genesis
        for height in range(1, 6):
            txs = small_generator.generate_block_txs()
            sealed = proposer.build_block(parent_header, parent_state, txs)
            block = sealed.block
            assert block.number == height

            # 1. BlockPilot validator accepts
            outcome = validator.receive_blocks([block])
            assert outcome.accepted == [block], outcome.pipeline.results[0].reason

            # 2. serial execution agrees
            sres = serial.execute_block(block, parent_state)
            assert sres.post_state.state_root() == block.header.state_root

            # 3. two-phase OCC agrees
            ores = occ.execute_block(block, parent_state)
            assert ores.post_state.state_root() == block.header.state_root

            parent_header = block.header
            parent_state = validator.chain.state_at(block.hash)

        assert validator.chain.height() == 5
        assert [b.number for b in validator.chain.canonical_chain()] == list(range(6))

    def test_forked_chain_with_uncles(self, small_universe, small_generator):
        validator = ValidatorNode("bob", small_universe.genesis)
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(3, seed=6).propose_forks(
            validator.chain.genesis.header, small_universe.genesis, txs
        )
        outcome = validator.receive_blocks(forks.blocks)
        assert len(outcome.accepted) == 3
        assert validator.chain.uncle_count() == 2

        # grow from one sibling; the chain reorgs onto that branch
        head = validator.chain.head
        txs2 = small_generator.generate_block_txs()
        child = ProposerNode("carol").build_block(
            head.header, validator.chain.state_at(head.hash), txs2
        )
        outcome2 = validator.receive_blocks([child.block])
        assert outcome2.new_head
        assert validator.chain.head is child.block
        assert validator.chain.height() == 2

    def test_two_validators_agree(self, small_universe, small_generator):
        """Different nodes processing the same blocks reach identical state
        (the determinism requirement of §3.3)."""
        v1 = ValidatorNode("bob", small_universe.genesis)
        v2 = ValidatorNode("carol", small_universe.genesis)
        proposer = ProposerNode("alice")

        parent_header = v1.chain.genesis.header
        parent_state = small_universe.genesis
        for _ in range(3):
            txs = small_generator.generate_block_txs()
            sealed = proposer.build_block(parent_header, parent_state, txs)
            for v in (v1, v2):
                outcome = v.receive_blocks([sealed.block])
                assert outcome.accepted
            parent_header = sealed.block.header
            parent_state = v1.chain.state_at(sealed.block.hash)

        assert (
            v1.chain.head_state.state_root() == v2.chain.head_state.state_root()
        )
        assert v1.chain.head.hash == v2.chain.head.hash

    def test_validator_with_different_thread_count_agrees(
        self, small_universe, small_generator
    ):
        """§3.3: the final result must not depend on the validator's
        parallelism level (2 vs 16 threads)."""
        from repro.core.validator import ValidatorConfig

        proposer = ProposerNode("alice")
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(
            ValidatorNode("x", small_universe.genesis).chain.genesis.header,
            small_universe.genesis,
            txs,
        )
        v_small = ValidatorNode(
            "bob", small_universe.genesis, config=ValidatorConfig(lanes=2)
        )
        v_large = ValidatorNode(
            "carol", small_universe.genesis, config=ValidatorConfig(lanes=16)
        )
        for v in (v_small, v_large):
            assert v.receive_blocks([sealed.block]).accepted
        assert (
            v_small.chain.head_state.state_root()
            == v_large.chain.head_state.state_root()
        )

    def test_proposer_without_profile_still_validated_by_fallback(
        self, small_universe, small_generator
    ):
        from repro.core.validator import ValidatorConfig

        proposer = ProposerNode("alice")
        genesis_header = ValidatorNode(
            "x", small_universe.genesis
        ).chain.genesis.header
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(
            genesis_header, small_universe.genesis, txs, include_profile=False
        )
        validator = ParallelValidator(
            config=ValidatorConfig(preexecute_fallback=True)
        )
        res = validator.validate_block(sealed.block, small_universe.genesis)
        assert res.accepted
        assert res.post_state.state_root() == sealed.block.header.state_root


class TestCrossModeEquivalence:
    def test_proposer_lane_count_changes_order_not_validity(
        self, small_universe, small_generator
    ):
        """Different proposer parallelism produces different (but valid)
        serializable blocks over the same pending set — Figure 2's point."""
        from repro.core.occ_wsi import ProposerConfig

        genesis_header = ValidatorNode(
            "x", small_universe.genesis
        ).chain.genesis.header
        txs = small_generator.generate_block_txs()
        sealed_1 = ProposerNode(
            "a", config=ProposerConfig(lanes=1)
        ).build_block(genesis_header, small_universe.genesis, txs)
        sealed_16 = ProposerNode(
            "a", config=ProposerConfig(lanes=16)
        ).build_block(genesis_header, small_universe.genesis, txs)

        validator = ParallelValidator()
        for sealed in (sealed_1, sealed_16):
            res = validator.validate_block(sealed.block, small_universe.genesis)
            assert res.accepted, res.reason

        # both blocks pack the same transaction set
        assert {t.hash for t in sealed_1.block.transactions} == {
            t.hash for t in sealed_16.block.transactions
        }
