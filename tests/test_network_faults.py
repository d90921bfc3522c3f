"""Network-level fault injection: byzantine proposers.

The headline robustness claim, end to end: honest validators stay in
consensus while a lying proposer's blocks (a ``LyingProposer`` swapped
into the simulation) are rejected by every validator alike.
"""

import pytest

pytestmark = pytest.mark.faults

from repro.network.simnet import NetworkConfig, NetworkSimulation
from repro.workload.universe import UniverseConfig, build_universe
from tests.fault_scenarios import lying_proposer


def small_world(seed=5):
    return build_universe(
        UniverseConfig(
            n_eoas=120,
            n_tokens=4,
            n_amms=2,
            n_nfts=1,
            n_airdrops=1,
            seed=seed,
        )
    )


class TestByzantineNetwork:
    def test_byzantine_blocks_rejected_chains_agree(self):
        cfg = NetworkConfig(rounds=4, fork_probability=0.9, seed=101)
        sim = lying_proposer(NetworkSimulation(small_world(), config=cfg), 1)
        result = sim.run()
        assert result.chains_agree
        assert result.final_height == 4
        # every recorded failure is the lie's own classification
        assert set(result.failure_counts) == {"profile_write_mismatch"}

    def test_honest_network_unchanged(self):
        """No faults configured: the hardened stack is invisible."""
        cfg = NetworkConfig(rounds=3, seed=101)
        result = NetworkSimulation(small_world(), config=cfg).run()
        assert result.chains_agree
        assert result.failure_counts == {}
        assert result.final_height == 3


class TestNetworkAccounting:
    """Regression tests for the simulation's accounting."""

    def test_total_txs_counts_canonical_blocks(self):
        """``total_txs`` must count the blocks that actually committed, not
        whichever sibling happened to sit at index 0 of the round's batch.
        Here the byzantine winner publishes a truncated block at index 0;
        the canonical chain holds the honest rival's full block."""
        cfg = NetworkConfig(rounds=4, n_proposers=2, fork_probability=1.0, seed=11)
        sim = lying_proposer(
            NetworkSimulation(small_world(), config=cfg), 0, "truncate_txs"
        )
        result = sim.run()
        chain_total = sum(
            len(b) for b in sim.validators[0].chain.canonical_chain()
        )
        assert result.total_txs == chain_total
        # the scenario genuinely exercises the bug: summing index 0 of each
        # round's batch gives a different (wrong) number
        assert sum(r.block_txs[0] for r in result.rounds) != chain_total
