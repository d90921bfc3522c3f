"""Unit tests for the prefetch/cold-storage model and throughput metric."""

import pytest

from benchmarks.analysis import throughput_tps
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("alice").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestPrefetchModel:
    def test_cold_run_slower_in_absolute_terms(self, sealed, small_universe):
        warm = ParallelValidator(config=ValidatorConfig(prefetch=True))
        cold = ParallelValidator(config=ValidatorConfig(prefetch=False))
        r_warm = warm.validate_block(sealed.block, small_universe.genesis)
        r_cold = cold.validate_block(sealed.block, small_universe.genesis)
        assert r_warm.accepted and r_cold.accepted
        assert r_cold.makespan > r_warm.makespan
        assert sum(r_cold.tx_costs) > sum(r_warm.tx_costs)

    def test_prefetch_cost_lands_in_prep_phase(self, sealed, small_universe):
        warm = ParallelValidator(config=ValidatorConfig(prefetch=True))
        cold = ParallelValidator(config=ValidatorConfig(prefetch=False))
        r_warm = warm.validate_block(sealed.block, small_universe.genesis)
        r_cold = cold.validate_block(sealed.block, small_universe.genesis)
        assert r_warm.prep_cost > r_cold.prep_cost  # prefetch work is in prep

    def test_correctness_independent_of_prefetch(self, sealed, small_universe):
        warm = ParallelValidator(config=ValidatorConfig(prefetch=True))
        cold = ParallelValidator(config=ValidatorConfig(prefetch=False))
        r_warm = warm.validate_block(sealed.block, small_universe.genesis)
        r_cold = cold.validate_block(sealed.block, small_universe.genesis)
        assert (
            r_warm.post_state.state_root() == r_cold.post_state.state_root()
        )

    def test_serial_baseline_also_pays_prefetch(self, sealed, small_universe):
        """The fairness normalisation of §5.4: serial_time includes the
        prefetch cost, so speedup compares like with like."""
        warm = ParallelValidator(config=ValidatorConfig(prefetch=True))
        r = warm.validate_block(sealed.block, small_universe.genesis)
        model = warm.cost_model
        base = (
            sum(r.tx_costs)
            + model.applier_per_tx * len(r.tx_costs)
            + model.block_epilogue
            + model.block_commit
        )
        assert r.serial_time > base  # prefetch cost included


class TestThroughput:
    def test_tps_computation(self):
        assert throughput_tps(132, 1_000_000.0) == 132.0
        assert throughput_tps(132, 500_000.0) == 264.0

    def test_zero_makespan_rejected(self):
        with pytest.raises(ValueError):
            throughput_tps(10, 0.0)

    def test_parallel_execution_raises_tps(self, sealed, small_universe):
        """The paper's bottom line: parallel execution raises the execution
        layer's sustainable transactions-per-second."""
        validator = ParallelValidator(config=ValidatorConfig(lanes=16))
        r = validator.validate_block(sealed.block, small_universe.genesis)
        serial_tps = throughput_tps(len(sealed.block), r.serial_time)
        parallel_tps = throughput_tps(len(sealed.block), r.makespan)
        assert parallel_tps > serial_tps
        assert parallel_tps / serial_tps == pytest.approx(r.speedup)
