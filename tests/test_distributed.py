"""Distributed sharded validation: follower shards as plan lanes,
bit-identity, and the follower fault matrix.

The load-bearing claim of :mod:`repro.distributed` is that *any* shard
partitioning reproduces single-node validation bit for bit — same state
root, same receipts, same gas — because dependency-graph components are
account-disjoint.  The property tests here draw arbitrary partitions
(including one-shard and one-component-per-shard) and check exactly that;
the fault matrix pins follower crash / straggler / byzantine replies to
local re-execution with the honest result, the dominant fault kind on the
coordinator's record.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.blockchain import Blockchain
from repro.core.artifacts import artifacts_for
from repro.core.validator import ParallelValidator
from repro.distributed import ShardCoordinator
from repro.distributed import coordinator as coordinator_module
from repro.evm.interpreter import ExecutionContext
from repro.exec import SerialBackend
from repro.exec.tasks import ValidateShared, build_component_tasks, run_validate_lane
from repro.exec.validating import merge_components
from repro.faults.errors import FailureReason
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode
from repro.network.shardrpc import FollowerNode, ShardAssignment
from repro.network.simnet import NetworkConfig, NetworkSimulation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import (
    hotspot_scenario,
    mainnet_scenario,
    payment_heavy_scenario,
)
from tests.counters import counter
from tests.fault_scenarios import FaultyFollower, faulty_followers

pytestmark = pytest.mark.distributed


# --------------------------------------------------------------------- #
# partitioning                                                          #
# --------------------------------------------------------------------- #


def _follower_pool(n_followers, **faults):
    """A master validator with ``n_followers`` followers attached — each a
    ``FaultyFollower`` when ``faults`` are given; its coordinator (and
    ``last_record``) is ``pool.distributor``."""
    coordinator = ShardCoordinator(n_followers)
    if faults:
        faulty_followers(coordinator, **faults)
    return ParallelValidator(distributor=coordinator)


def _plan_shards(block, n_followers):
    """Component gas per non-empty lane of the plan backend workers run."""
    art = artifacts_for(block, "account")
    gas = art.component_gas()
    lanes = art.plan_for(n_followers, "gas_lpt", 0).lane_components
    return tuple(sum(gas[c] for c in lane) for lane in lanes if lane)


class TestPartition:
    """Follower shards are the non-empty lanes of ``plan_for(n_followers)``."""

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="n_followers"):
            ShardCoordinator(0)

    def test_empty_components(self, small_universe):
        # no transactions, no components: nothing to shard, nothing shipped
        block = _seal_txs(small_universe, [])
        art = artifacts_for(block, "account")
        assert not art.graph.components
        assert not any(art.plan_for(4, "gas_lpt", 0).lane_components)
        pool = _follower_pool(4)
        result = pool.validate_block(block, small_universe.genesis)
        assert result.accepted and not result.used_distributed
        assert pool.distributor.last_record is None

    def test_fewer_components_than_shards(self, small_universe):
        block = _seal_block(
            small_universe,
            dataclasses.replace(
                hotspot_scenario(0.9, seed=3), txs_per_block=20, tx_count_jitter=0.0
            ),
        )
        n_components = len(artifacts_for(block, "account").graph.components)
        pool = _follower_pool(n_components + 3)
        assert pool.validate_block(block, small_universe.genesis).used_distributed
        record = pool.distributor.last_record
        assert record.n_shards == n_components
        assert record.shard_gas == _plan_shards(block, n_components + 3)

    def test_lpt_balances_skewed_load(self, small_universe):
        # the hot component cannot be split: it fills a shard of its own
        block = _seal_block(
            small_universe,
            dataclasses.replace(
                hotspot_scenario(0.9, seed=3), txs_per_block=40, tx_count_jitter=0.0
            ),
        )
        gas = artifacts_for(block, "account").component_gas()
        pool = _follower_pool(3)
        assert pool.validate_block(block, small_universe.genesis).used_distributed
        record = pool.distributor.last_record
        assert record.n_shards == 3
        assert max(record.shard_gas) == max(gas)

    def test_partition_is_exact_cover(self, small_universe, sealed_block):
        gas = artifacts_for(sealed_block, "account").component_gas()
        for n_followers in range(1, 9):
            pool = _follower_pool(n_followers)
            result = pool.validate_block(sealed_block, small_universe.genesis)
            assert result.used_distributed
            record = pool.distributor.last_record
            assert record.shard_gas == _plan_shards(sealed_block, n_followers)
            assert record.n_shards == len(record.shard_gas)
            assert record.n_shards == min(n_followers, len(gas))
            assert sum(record.shard_gas) == sum(gas)  # every component, once
            assert all(load > 0 for load in record.shard_gas)

    def test_deterministic(self, small_universe, sealed_block):
        records = []
        for _ in range(2):
            pool = _follower_pool(3)
            pool.validate_block(sealed_block, small_universe.genesis)
            records.append(pool.distributor.last_record)
        assert records[0] == records[1]


# --------------------------------------------------------------------- #
# bit-identity                                                          #
# --------------------------------------------------------------------- #


def _seal_txs(universe, txs):
    chain = Blockchain(universe.genesis)
    sealed = ProposerNode("dist-test").build_block(
        chain.genesis.header, universe.genesis, txs
    )
    return sealed.block


def _seal_block(universe, workload_config):
    generator = BlockWorkloadGenerator(universe, workload_config)
    return _seal_txs(universe, generator.generate_block_txs())


def _fingerprint(result):
    return (
        result.post_state.state_root(),
        [(r.gas_used, r.success, r.fee) for r in result.tx_results],
    )


SCENARIOS = {
    "payment_heavy": lambda: payment_heavy_scenario(seed=3),
    "hotspot": lambda: hotspot_scenario(0.9, seed=3),
    "mainnet": lambda: mainnet_scenario(seed=4),
}


class TestBitIdentity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("followers", [1, 4])
    def test_matches_single_node_on_conformance_scenarios(
        self, small_universe, scenario, followers
    ):
        cfg = dataclasses.replace(
            SCENARIOS[scenario](), txs_per_block=40, tx_count_jitter=0.0
        )
        block = _seal_block(small_universe, cfg)
        reference = ParallelValidator().validate_block(
            block, small_universe.genesis
        )
        assert reference.accepted

        pool = _follower_pool(followers)
        distributed = pool.validate_block(block, small_universe.genesis)
        assert distributed.accepted and distributed.used_distributed
        assert _fingerprint(distributed) == _fingerprint(reference)
        record = pool.distributor.last_record
        assert record is not None and record.fallback is None
        assert 1 <= record.n_shards <= followers

    def test_per_component_shards(self, small_universe, small_generator):
        """More followers than components: every component its own shard."""
        block = _seal_block(
            small_universe,
            dataclasses.replace(
                payment_heavy_scenario(seed=3), txs_per_block=24, tx_count_jitter=0.0
            ),
        )
        art = artifacts_for(block, "account")
        n_components = len(art.graph.components)
        pool = _follower_pool(n_components + 8)
        reference = ParallelValidator().validate_block(block, small_universe.genesis)
        distributed = pool.validate_block(block, small_universe.genesis)
        assert distributed.accepted and distributed.used_distributed
        assert pool.distributor.last_record.n_shards == n_components
        assert _fingerprint(distributed) == _fingerprint(reference)

    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_partition_reproduces_reference(
        self, small_universe, data
    ):
        """Arbitrary component->executor maps merge to the reference result.

        Bypasses the planner (the LPT plan both followers and backend lanes
        run): hypothesis draws the partition, and the same drawn map is run
        once as shards on an honest follower (state slices, shard RPC) and
        once as lanes on a backend (shared guarded snapshot).  The single
        ``merge_components`` must reproduce the single-node outcome bit for
        bit from either set of outcomes.
        """
        # fresh nonce map per example: block building must not depend on
        # what previous examples generated, or draw bounds shift
        universe = dataclasses.replace(small_universe, nonces={})
        block = _seal_block(
            universe,
            dataclasses.replace(
                payment_heavy_scenario(seed=5), txs_per_block=30, tx_count_jitter=0.0
            ),
        )
        reference = ParallelValidator().validate_block(block, universe.genesis)
        assert reference.accepted

        art = artifacts_for(block, "account")
        n_components = len(art.graph.components)
        n_shards = data.draw(st.integers(min_value=1, max_value=n_components))
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_shards - 1),
                min_size=n_components,
                max_size=n_components,
            )
        )

        shards = {}
        for comp, shard in enumerate(assignment):
            shards.setdefault(shard, []).append(comp)
        ctx = ExecutionContext(
            block_number=block.header.number,
            timestamp=block.header.timestamp,
            coinbase=block.header.coinbase,
            gas_limit=block.header.gas_limit,
        )

        def tasks_for(comps, slice_from=None):
            return build_component_tasks(block, ctx, art, comps, slice_from=slice_from)

        follower = FollowerNode("prop-follower")
        follower_outcomes = []
        for shard_id, comps in sorted(shards.items()):
            works = tasks_for(comps, slice_from=universe.genesis)
            assert all(w.slice_accounts is not None for w in works)  # self-contained
            reply = follower.handle(
                ShardAssignment(
                    block_hash=block.hash, shard_id=shard_id, attempt=0, works=works
                )
            )
            assert reply is not None
            follower_outcomes.extend(reply.outcomes)

        with SerialBackend() as backend:
            backend.open(ValidateShared(universe.genesis))
            lane_outcomes = [
                outcome
                for lane in backend.map(
                    run_validate_lane,
                    [tasks_for(comps) for comps in shards.values()],
                )
                for outcome in lane
            ]

        from repro.chain.params import DEFAULT_CHAIN_PARAMS
        from repro.core.proposer import finalize_block_state

        for outcomes in (follower_outcomes, lane_outcomes):
            outcome = merge_components(universe.genesis, art.graph.components, outcomes)
            post_state = finalize_block_state(
                outcome.db,
                coinbase=block.header.coinbase,
                total_fees=sum(r.fee for r in outcome.tx_results),
                params=DEFAULT_CHAIN_PARAMS,
            )
            assert post_state.state_root() == reference.post_state.state_root()
            assert [
                (r.gas_used, r.success, r.fee) for r in outcome.tx_results
            ] == [(r.gas_used, r.success, r.fee) for r in reference.tx_results]

    def test_simnet_followers_match_baseline(self, small_universe):
        def run(followers):
            uni = dataclasses.replace(small_universe, nonces={})
            sim = NetworkSimulation(
                uni,
                config=NetworkConfig(
                    rounds=3, n_proposers=2, seed=7, followers=followers
                ),
            )
            return sim.run()

        baseline, sharded = run(0), run(4)
        assert sharded.total_txs == baseline.total_txs > 0
        assert sharded.final_root_hex == baseline.final_root_hex
        assert sharded.chains_agree


# --------------------------------------------------------------------- #
# fault matrix                                                          #
# --------------------------------------------------------------------- #


@pytest.fixture()
def sealed_block(small_universe):
    return _seal_block(
        small_universe,
        dataclasses.replace(
            payment_heavy_scenario(seed=3), txs_per_block=40, tx_count_jitter=0.0
        ),
    )


def _observe_fallback(universe, block, **faults):
    """Validate ``block`` on a pool of 4 faulty followers with its own
    registry and tracer; returns ``(result, record, dist.fallbacks
    counter, dist.fallback instant attrs)``."""
    metrics, tracer = MetricsRegistry(), Tracer()
    coordinator = faulty_followers(
        ShardCoordinator(4, tracer=tracer, metrics=metrics), **faults
    )
    pool = ParallelValidator(distributor=coordinator)
    result = pool.validate_block(block, universe.genesis)
    instants = [span.attrs for span in tracer.find("dist.fallback")]
    fallbacks = counter(metrics, "dist.fallbacks")
    return result, coordinator.last_record, fallbacks, instants


@pytest.mark.faults
class TestFollowerFaultMatrix:
    def test_total_crash_maps_to_worker_fault(self, small_universe, sealed_block):
        """A worker fault (here: the whole pool crashed) maps to local
        re-execution, its kind on the record, counter and trace instant."""
        result, record, fallbacks, instants = _observe_fallback(
            small_universe, sealed_block, seed=3, crash_rate=1.0
        )
        assert result.accepted and not result.used_distributed
        assert result.failure is None
        assert record.fallback == "crash"
        assert fallbacks == 1
        assert [attrs["reason"] for attrs in instants] == ["crash"]
        # the whole pool died on first contact: one fault per follower
        assert record.follower_faults == 4

    def test_crash_degrades_to_serial_fallback(self, small_universe, sealed_block):
        reference = ParallelValidator().validate_block(
            sealed_block, small_universe.genesis
        )
        pool = _follower_pool(4, seed=3, crash_rate=1.0)
        result = pool.validate_block(sealed_block, small_universe.genesis)
        assert result.accepted and not result.used_distributed
        assert pool.distributor.last_record.fallback == "crash"
        assert _fingerprint(result) == _fingerprint(reference)

    def test_byzantine_reply_survived_by_fallback(
        self, small_universe, sealed_block
    ):
        reference = ParallelValidator().validate_block(
            sealed_block, small_universe.genesis
        )
        pool = _follower_pool(4, seed=3, byzantine_rate=1.0)
        result = pool.validate_block(sealed_block, small_universe.genesis)
        assert result.accepted
        assert _fingerprint(result) == _fingerprint(reference)

    def test_byzantine_reply_maps_to_worker_fault(
        self, small_universe, sealed_block
    ):
        result, record, fallbacks, instants = _observe_fallback(
            small_universe,
            sealed_block,
            seed=3,
            byzantine_rate=1.0,
        )
        # a lying follower never costs the (honest) block its verdict
        assert result.accepted and not result.used_distributed
        assert result.failure is None
        assert record.fallback == "byzantine"
        assert fallbacks == 1
        assert [attrs["reason"] for attrs in instants] == ["byzantine"]
        assert {a.status for a in record.attempts} == {"byzantine"}

    def test_straggler_exhaustion_falls_back_as_straggler(
        self, small_universe, sealed_block, monkeypatch
    ):
        reference = ParallelValidator().validate_block(
            sealed_block, small_universe.genesis
        )
        # no re-assignment, and a seed chosen so some-but-not-most shards
        # stall: the median-based deadline then flags the stalled replies
        monkeypatch.setattr(coordinator_module, "MAX_REASSIGNMENTS", 0)
        pool = _follower_pool(4, seed=1, stall_rate=0.4)
        result = pool.validate_block(sealed_block, small_universe.genesis)
        assert result.accepted and not result.used_distributed
        assert _fingerprint(result) == _fingerprint(reference)
        assert pool.distributor.last_record.fallback == "straggler"

    def test_partial_crash_recovers_via_reassignment(
        self, small_universe, sealed_block
    ):
        reference = ParallelValidator().validate_block(
            sealed_block, small_universe.genesis
        )
        recovered = 0
        for seed in range(12):
            pool = _follower_pool(4, seed=seed, crash_rate=0.3)
            result = pool.validate_block(sealed_block, small_universe.genesis)
            record = pool.distributor.last_record
            assert result.accepted
            if result.used_distributed and record.reassignments > 0:
                recovered += 1
                assert _fingerprint(result) == _fingerprint(reference)
        assert recovered > 0, "no seed exercised crash-then-recover"

    def test_reassignment_rolls_fresh_faults(self):
        """The fault key includes the attempt, so a re-dispatch re-rolls."""
        follower = FaultyFollower("f-0", seed=0, crash_rate=0.5)
        block_hash = b"\x07" * 32
        rolls = {
            attempt: follower.handle(ShardAssignment(block_hash, 0, attempt, ()))
            is None
            for attempt in range(32)
        }
        assert set(rolls.values()) == {True, False}

    def test_lying_proposer_still_rejected_under_distribution(
        self, small_universe
    ):
        """A corrupted profile is the proposer's fault, never a follower's.

        The tampered entries make honest follower replies look byzantine;
        exhaustion falls back to local validation, which rejects with the
        proper profile reason.
        """
        block = _seal_block(
            small_universe,
            dataclasses.replace(
                payment_heavy_scenario(seed=3), txs_per_block=20, tx_count_jitter=0.0
            ),
        )
        injector = FaultInjector(FaultConfig(seed=3))
        corrupted = injector.corrupt_block(block, "profile_gas")
        pool = _follower_pool(4)
        result = pool.validate_block(corrupted, small_universe.genesis)
        assert not result.accepted
        assert result.failure is not None
        assert result.failure.reason in {
            FailureReason.PROFILE_GAS_MISMATCH,
            FailureReason.PROFILE_READ_MISMATCH,
            FailureReason.PROFILE_WRITE_MISMATCH,
        }
