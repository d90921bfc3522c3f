"""Same seed, same trace: determinism contracts for the obs layer.

The tracer runs on the simulated clock, so two runs over identical inputs
must export byte-identical Chrome-trace JSON and equal metrics snapshots —
including runs that exercise the PR-1 fault machinery (worker faults,
byzantine corruption), whose failure events must carry the typed
:class:`~repro.faults.errors.FailureReason` as a span attribute.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.chain.blockchain import Blockchain
from repro.common.types import address
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.pipeline import ValidatorPipeline
from repro.core.proposer import seal_block
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.distributed import ShardCoordinator
from repro.evm.interpreter import ExecutionContext
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend
from repro.faults.errors import FailureReason
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode, ValidatorNode
from repro.network.simnet import NetworkConfig, NetworkSimulation
from repro.obs import MetricsRegistry, Tracer, chrome_trace_json
from repro.obs.export import chrome_trace_events
from repro.store import open_store
from repro.txpool.pool import TxPool


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("alice").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    ), txs


class TestProposerDeterminism:
    def test_traced_propose_replays_identically(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()

        def run():
            tracer = Tracer()
            metrics = MetricsRegistry()
            node = ProposerNode("alice", tracer=tracer, metrics=metrics)
            node.build_block(
                genesis_chain.genesis.header, small_universe.genesis, txs
            )
            return chrome_trace_json(tracer), metrics.snapshot()

        (json_a, snap_a), (json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        assert snap_a["counters"]["proposer.executions"] >= len(txs)


class TestValidatorDeterminism:
    def test_traced_validation_replays_identically(self, sealed, small_universe):
        proposal, _ = sealed

        def run():
            tracer = Tracer()
            metrics = MetricsRegistry()
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=8), tracer=tracer, metrics=metrics
            )
            result = validator.validate_block(
                proposal.block, small_universe.genesis
            )
            assert result.accepted
            return chrome_trace_json(tracer), metrics.snapshot()

        (json_a, snap_a), (json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        assert snap_a["counters"]["validator.blocks_accepted"] == 1


class TestPipelineDeterminism:
    def test_traced_node_pipeline_replays_identically(
        self, sealed, small_universe
    ):
        proposal, _ = sealed

        def run():
            tracer = Tracer()
            metrics = MetricsRegistry()
            node = ValidatorNode(
                "val",
                small_universe.genesis,
                config=ValidatorConfig(lanes=8),
                tracer=tracer,
                metrics=metrics,
            )
            outcome = node.receive_blocks([proposal.block])
            assert outcome.accepted
            return chrome_trace_json(tracer), metrics.snapshot()

        (json_a, snap_a), (json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        # the node counts acceptance once, through its validator
        assert snap_a["counters"]["validator.blocks_accepted"] == 1
        assert snap_a["counters"]["pipeline.blocks"] == 1


class TestFaultDeterminism:
    def test_worker_faults_replay_identically_with_typed_spans(
        self, sealed, small_universe
    ):
        proposal, _ = sealed

        def run():
            tracer = Tracer()
            metrics = MetricsRegistry()
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=8),
                injector=FaultInjector(
                    FaultConfig(seed=7, worker_fault_rate=0.3)
                ),
                tracer=tracer,
                metrics=metrics,
            )
            result = validator.validate_block(
                proposal.block, small_universe.genesis
            )
            assert result.accepted  # degrades, never corrupts
            return tracer, chrome_trace_json(tracer), metrics.snapshot()

        (tracer_a, json_a, snap_a), (_, json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        faults = tracer_a.find("worker_fault")
        assert faults, "0.3 fault rate must fire on this block"
        for span in faults:
            assert span.attrs["reason"] == "worker_fault"
        assert snap_a["counters"]["validator.worker_faults"] == len(faults)

    def test_byzantine_rejection_span_carries_failure_reason(
        self, sealed, small_universe
    ):
        proposal, _ = sealed
        corrupted = FaultInjector(FaultConfig(seed=3)).corrupt_block(
            proposal.block, "profile_write_value"
        )

        def run():
            tracer = Tracer()
            metrics = MetricsRegistry()
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=8), tracer=tracer, metrics=metrics
            )
            result = validator.validate_block(corrupted, small_universe.genesis)
            assert not result.accepted
            assert result.failure.reason is FailureReason.PROFILE_WRITE_MISMATCH
            return tracer, chrome_trace_json(tracer), metrics.snapshot()

        (tracer_a, json_a, snap_a), (_, json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        failures = tracer_a.find("validation_failure")
        assert len(failures) == 1
        assert (
            failures[0].attrs["reason"]
            == FailureReason.PROFILE_WRITE_MISMATCH.value
        )
        assert (
            snap_a["counters"][
                f"validator.failure.{FailureReason.PROFILE_WRITE_MISMATCH.value}"
            ]
            == 1
        )


BACKENDS = (
    ("serial", lambda: SerialBackend()),
    ("thread", lambda: ThreadBackend(2)),
    ("process", lambda: ProcessBackend(2)),
)


def _normalized_trace(tracer):
    """Trace events with wall-clock placement stripped.

    The real-core drivers stamp spans with wall time, which is the ONLY
    legal run-to-run difference; names, ordering, pids/tids and every
    attribute must replay byte-identically."""
    events = []
    for event in chrome_trace_events(tracer):
        event = dict(event)
        event["ts"] = 0
        event.pop("dur", None)
        events.append(event)
    return events


class TestBackendDeterminism:
    """Same seed + same backend => byte-identical decisions (ISSUE 5, S1).

    Extends the sim-clock contracts above to the real-parallelism drivers:
    block contents, sealed header hashes, state roots, the whole RunStats
    (its makespan is simulated on every executor) and the normalized
    Chrome trace must all replay exactly, on every backend."""

    def _ctx(self):
        return ExecutionContext(
            block_number=1,
            timestamp=1_000,
            coinbase=address(b"\xcc" * 20),
            gas_limit=30_000_000,
        )

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    def test_backend_propose_replays_identically(
        self, small_universe, small_generator, genesis_chain, name, factory
    ):
        txs = small_generator.generate_block_txs()
        ctx = self._ctx()

        def run():
            tracer = Tracer()
            pool = TxPool()
            pool.add_many(txs)
            with factory() as backend:
                proposer = OCCWSIProposer(
                    config=ProposerConfig(lanes=4), backend=backend, tracer=tracer
                )
                result = proposer.propose(small_universe.genesis, pool, ctx)
            sealed = seal_block(
                result,
                genesis_chain.genesis.header,
                coinbase=ctx.coinbase,
                timestamp=ctx.timestamp,
                gas_limit=ctx.gas_limit,
            )
            return (
                bytes(sealed.block.hash),
                [c.tx.hash for c in result.committed],
                bytes(result.final_state(coinbase=ctx.coinbase).state_root()),
                result.stats,
                _normalized_trace(tracer),
            )

        first, second = run(), run()
        assert first[0] == second[0], "sealed block hash must replay"
        assert first[1] == second[1], "committed tx order must replay"
        assert first[2] == second[2], "state root must replay"
        assert first[3] == second[3], "RunStats must replay"
        assert first[4] == second[4], "normalized trace must replay"
        assert first[4], "propose must actually emit spans"

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    def test_backend_validate_replays_identically(
        self, sealed, small_universe, name, factory
    ):
        proposal, _ = sealed

        def run():
            tracer = Tracer()
            with factory() as backend:
                validator = ParallelValidator(
                    config=ValidatorConfig(lanes=4), backend=backend, tracer=tracer
                )
                result = validator.validate_block(
                    proposal.block, small_universe.genesis
                )
            assert result.accepted, result.reason
            return (
                bytes(result.post_state.state_root()),
                [r.gas_used for r in result.tx_results],
                result.tx_costs,
                _normalized_trace(tracer),
            )

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert first[3] == second[3]


class TestNetworkDeterminism:
    def test_traced_network_run_replays_identically(self, small_universe):
        config = NetworkConfig(
            n_proposers=2,
            n_validators=2,
            rounds=2,
            fork_probability=1.0,
            byzantine_proposers=(1,),
            seed=17,
        )

        def run():
            universe = dataclasses.replace(small_universe, nonces={})
            tracer = Tracer()
            metrics = MetricsRegistry()
            sim = NetworkSimulation(
                universe, config=config, tracer=tracer, metrics=metrics
            )
            sim.run()
            return chrome_trace_json(tracer), metrics.snapshot()

        (json_a, snap_a), (json_b, snap_b) = run(), run()
        assert json_a == json_b
        assert snap_a == snap_b
        assert snap_a["counters"]["net.blocks_sent"] > 0


def _propose(universe, block, metrics, tmp_path):
    parent = Blockchain(universe.genesis).genesis.header
    sealed = ProposerNode("alice", metrics=metrics).build_block(
        parent, universe.genesis, block.transactions
    )
    return bytes(sealed.block.hash)


def _receive(universe, block, metrics, tmp_path):
    node = ValidatorNode("val", universe.genesis, metrics=metrics)
    outcome = node.receive_blocks([block])
    return [bytes(b.hash) for b in outcome.accepted], bytes(node.chain.head.hash)


def _pipeline(universe, block, metrics, tmp_path):
    result = ValidatorPipeline(metrics=metrics).process_blocks(
        [block], {block.header.parent_hash: universe.genesis}
    )
    (validation,) = result.results
    return validation.accepted, bytes(validation.post_state.state_root()), result.makespan


def _validate(universe, block, metrics, tmp_path):
    result = ParallelValidator(metrics=metrics).validate_block(block, universe.genesis)
    return result.accepted, bytes(result.post_state.state_root()), result.phases


def _distribute(universe, block, metrics, tmp_path):
    coordinator = ShardCoordinator(2, metrics=metrics)
    result = ParallelValidator(distributor=coordinator).validate_block(
        block, universe.genesis
    )
    assert result.used_distributed
    return bytes(result.post_state.state_root()), coordinator.last_record.makespan_us


def _pool(universe, block, metrics, tmp_path):
    pool = TxPool(metrics=metrics)
    pool.add_many(block.transactions)
    first = block.transactions[0]
    # replace-by-fee until the cancelled entries force a heap compaction
    for price in (2, 4, 8):
        pool.add(dataclasses.replace(first, gas_price=first.gas_price * price))
    order = []
    while (tx := pool.pop_best()) is not None:
        order.append(tx.hash)
        pool.mark_packed(tx)
    return order, pool.compactions


def _store(universe, block, metrics, tmp_path):
    data_dir = tmp_path / ("observed" if metrics is not None else "bare")
    result = ParallelValidator().validate_block(block, universe.genesis)
    chain, store, _ = open_store(
        str(data_dir), universe.genesis, snapshot_interval=1, fsync=False, metrics=metrics
    )
    chain.add_block(block, result.post_state)
    store.seal()
    store.close()
    return {p.name: p.read_bytes() for p in sorted(data_dir.iterdir())}


class TestUnobservedRunsMatchObservedOnes:
    """``metrics=None`` (the NULL_METRICS default) changes nothing a run
    produces: every component seals, validates and stores the same bytes
    as with a registry attached, and only the registry sees the counts."""

    @pytest.mark.parametrize(
        "run",
        [_propose, _receive, _pipeline, _validate, _distribute, _pool, _store],
        ids=[
            "ProposerNode", "ValidatorNode", "ValidatorPipeline",
            "ParallelValidator", "ShardCoordinator", "TxPool", "DiskStore",
        ],
    )
    def test_same_output_with_and_without_a_registry(
        self, run, sealed, small_universe, tmp_path
    ):
        block = sealed[0].block
        registry = MetricsRegistry()
        assert run(small_universe, block, None, tmp_path) == run(
            small_universe, block, registry, tmp_path
        )
        assert any(registry.snapshot().values()), "the observed run counted nothing"


def test_no_metrics_none_guards_outside_the_service():
    """``metrics is (not) None`` is decided once, where a component stores
    NULL_METRICS; only the serve loop still asks whether a caller passed a
    registry (telemetry then builds one)."""
    src = Path(repro.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).as_posix() == "store/service.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
                and ast.unparse(node.left).split(".")[-1] == "metrics"
            ):
                found.append(f"{path.relative_to(src)}:{node.lineno}")
    assert found == []
