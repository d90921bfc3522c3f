"""Network-level fault injection: byzantine proposers.

The headline robustness claims, end to end: honest validators stay in
consensus while byzantine siblings are rejected (and their proposers
quarantined), and rejected blocks hand their transactions back to the
pool exactly once.
"""

import pytest

pytestmark = pytest.mark.faults

from repro.core.validator import ValidatorConfig
from repro.network.node import ValidatorNode
from repro.network.simnet import NetworkConfig, NetworkSimulation
from repro.txpool.pool import TxPool
from repro.workload.universe import UniverseConfig, build_universe
from tests.fault_scenarios import build_env


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
        cfg = NetworkConfig(
            rounds=4,
            byzantine_proposers=(1,),
            fork_probability=0.9,
            quarantine_threshold=2,
            seed=101,
        )
        result = NetworkSimulation(small_world(), config=cfg).run()
        assert result.chains_agree
        assert sum(result.failure_counts.values()) >= 1
        # every recorded failure is a byzantine classification or the
        # quarantine that follows it
        assert set(result.failure_counts) <= {
            "profile_write_mismatch",
            "proposer_quarantined",
        }

    def test_repeat_liar_gets_quarantined(self):
        cfg = NetworkConfig(
            rounds=8,
            n_proposers=2,
            byzantine_proposers=(0,),
            fork_probability=1.0,
            quarantine_threshold=2,
            seed=7,
        )
        result = NetworkSimulation(small_world(), config=cfg).run()
        assert result.quarantined == ["proposer-0"]

    def test_honest_network_unchanged(self):
        """No faults configured: the hardened stack is invisible."""
        cfg = NetworkConfig(rounds=3, seed=101)
        result = NetworkSimulation(small_world(), config=cfg).run()
        assert result.chains_agree
        assert result.failure_counts == {}
        assert result.quarantined == []
        assert result.final_height == 3


class TestNetworkAccounting:
    """Regression tests for the sim-accounting bugs (ISSUE 9 satellites)."""

    def test_total_txs_counts_canonical_blocks(self):
        """``total_txs`` must count the blocks that actually committed, not
        whichever sibling happened to sit at index 0 of the round's batch.
        Here the byzantine winner publishes a truncated block at index 0;
        the canonical chain holds the honest rival's full block."""
        cfg = NetworkConfig(
            rounds=4,
            n_proposers=2,
            byzantine_proposers=(0,),
            corruption="truncate_txs",
            fork_probability=1.0,
            quarantine_threshold=0,
            seed=11,
        )
        sim = NetworkSimulation(small_world(), config=cfg)
        result = sim.run()
        chain_total = sum(
            len(b) for b in sim.validators[0].chain.canonical_chain()
        )
        assert result.total_txs == chain_total
        # the scenario genuinely exercises the bug: summing index 0 of each
        # round's batch gives a different (wrong) number
        assert sum(r.block_txs[0] for r in result.rounds) != chain_total

    def test_out_of_range_byzantine_proposer_raises(self):
        """A typo'd byzantine index must fail loudly, not silently run the
        honest scenario."""
        cfg = NetworkConfig(n_proposers=3, byzantine_proposers=(7,))
        with pytest.raises(ValueError, match="out of range"):
            NetworkSimulation(small_world(), config=cfg)

    def test_negative_byzantine_proposer_raises(self):
        cfg = NetworkConfig(n_proposers=3, byzantine_proposers=(-1,))
        with pytest.raises(ValueError, match="out of range"):
            NetworkSimulation(small_world(), config=cfg)


class TestTxRecovery:
    def test_rejected_block_txs_return_to_pool_once(self):
        env = build_env(0)
        pool = TxPool()
        node = ValidatorNode(
            "validator-0",
            env.universe.genesis,
            config=ValidatorConfig(lanes=4),
            txpool=pool,
        )
        bad = env.injector.corrupt_block(env.honest.block, "state_root")
        outcome = node.receive_blocks([bad])
        assert not outcome.accepted
        assert outcome.restored_txs == len(bad.transactions)
        assert len(pool) == len(bad.transactions)
        # redelivery of the same rejected block restores nothing new
        again = node.receive_blocks([bad])
        assert again.restored_txs == 0
        assert len(pool) == len(bad.transactions)

    def test_committed_sibling_keeps_txs_out(self):
        """Txs committed by the accepted sibling are not restored from the
        rejected one."""
        env = build_env(0)
        pool = TxPool()
        node = ValidatorNode(
            "validator-0",
            env.universe.genesis,
            config=ValidatorConfig(lanes=4),
            txpool=pool,
        )
        honest = env.honest.block
        bad = env.injector.corrupt_block(honest, "state_root")
        outcome = node.receive_blocks([honest, bad])
        assert [b.hash for b in outcome.accepted] == [honest.hash]
        # the rejected sibling carries exactly the committed tx set
        assert outcome.restored_txs == 0
        assert len(pool) == 0
