"""Cross-backend equivalence: same workload + seed => identical outcomes.

The whole point of the deterministic wave/merge drivers in ``repro.exec``
is that switching execution substrate never changes a single decision:
block contents, state roots, abort/commit/drop choices and fault-handling
paths must be byte-identical across serial, thread and process backends —
and, for the validator, identical to the simulated-clock path too (the
proposer's wave schedule legitimately differs from the sim event loop, so
its equivalence class is the three real backends).
"""

import dataclasses

import pytest

from repro.chain.block import BlockProfile, transactions_root
from repro.chain.blockchain import Blockchain
from repro.check.fuzzer import forge_lying_profile_block
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.interpreter import ExecutionContext
from repro.distributed import DistributedValidator
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend
from repro.faults.errors import FailureReason
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig

BACKEND_FACTORIES = (
    ("serial", lambda: SerialBackend()),
    ("thread", lambda: ThreadBackend(2)),
    ("process", lambda: ProcessBackend(2)),
)


def _coinbase():
    from repro.common.types import Address

    return Address(b"\xcc" * 20)


def _ctx(gas_limit=30_000_000):
    return ExecutionContext(
        block_number=1, timestamp=1_000, coinbase=_coinbase(), gas_limit=gas_limit
    )


def _txs(universe, n=36, seed=5):
    generator = BlockWorkloadGenerator(
        dataclasses.replace(universe, nonces={}),
        WorkloadConfig(txs_per_block=n, tx_count_jitter=0.0, seed=seed),
    )
    return generator.generate_block_txs()


def _sealed_block(universe, txs):
    chain = Blockchain(universe.genesis)
    node = ProposerNode("equiv-proposer")
    return node.build_block(chain.head.header, universe.genesis, txs).block


def _with_invalid_tx(block, index):
    """Re-seal ``block`` structurally intact but with a nonce gap at ``index``."""
    txs = list(block.transactions)
    txs[index] = dataclasses.replace(txs[index], nonce=txs[index].nonce + 7)
    entries = list(block.profile.entries)
    entries[index] = dataclasses.replace(entries[index], tx_hash=txs[index].hash)
    return dataclasses.replace(
        block,
        header=dataclasses.replace(
            block.header, transactions_root=transactions_root(tuple(txs))
        ),
        transactions=tuple(txs),
        receipts=(),
        profile=BlockProfile(entries=tuple(entries)),
    )


class TestProposerEquivalence:
    def test_identical_blocks_across_backends(self, small_universe):
        txs = _txs(small_universe)
        ctx = _ctx()
        outcomes = {}
        for name, factory in BACKEND_FACTORIES:
            pool = TxPool()
            pool.add_many(txs)
            with factory() as backend:
                proposer = OCCWSIProposer(
                    config=ProposerConfig(lanes=4), backend=backend
                )
                outcomes[name] = proposer.propose(small_universe.genesis, pool, ctx)

        reference = outcomes["serial"]
        ref_hashes = [c.tx.hash for c in reference.committed]
        ref_root = reference.final_state(coinbase=ctx.coinbase).state_root()
        assert ref_hashes, "workload committed nothing"
        for name, result in outcomes.items():
            assert [c.tx.hash for c in result.committed] == ref_hashes, name
            assert [c.version for c in result.committed] == [
                c.version for c in reference.committed
            ], name
            assert result.final_state(coinbase=ctx.coinbase).state_root() == ref_root, name
            assert result.invalid_dropped == reference.invalid_dropped, name
            assert result.retries_exhausted == reference.retries_exhausted, name
            assert result.stats.aborts == reference.stats.aborts, name

    def test_wave_snapshots_respect_dependencies(self, small_universe):
        # nonce chains force cross-wave ordering: every backend must pack
        # them in nonce order via the committed-writes overlay
        txs = _txs(small_universe, n=24, seed=9)
        ctx = _ctx()
        roots = set()
        for _, factory in BACKEND_FACTORIES[:2]:  # serial vs thread is enough
            pool = TxPool()
            pool.add_many(txs)
            with factory() as backend:
                proposer = OCCWSIProposer(
                    config=ProposerConfig(lanes=8), backend=backend
                )
                result = proposer.propose(small_universe.genesis, pool, ctx)
            by_sender = {}
            for c in result.committed:
                sender = c.tx.sender
                assert by_sender.get(sender, -1) < c.tx.nonce
                by_sender[sender] = c.tx.nonce
            roots.add(result.final_state(coinbase=ctx.coinbase).state_root())
        assert len(roots) == 1


class TestValidatorEquivalence:
    def test_accepts_identically_including_sim(self, small_universe):
        block = _sealed_block(small_universe, _txs(small_universe))
        results = {}
        sim = ParallelValidator(config=ValidatorConfig(lanes=4))
        results["sim"] = sim.validate_block(block, small_universe.genesis)
        for name, factory in BACKEND_FACTORIES:
            with factory() as backend:
                validator = ParallelValidator(
                    config=ValidatorConfig(lanes=4), backend=backend
                )
                results[name] = validator.validate_block(block, small_universe.genesis)

        reference = results["sim"]
        assert reference.accepted, reference.reason
        ref_root = reference.post_state.state_root()
        for name, res in results.items():
            assert res.accepted, (name, res.reason)
            assert res.post_state.state_root() == ref_root, name
            assert [r.gas_used for r in res.tx_results] == [
                r.gas_used for r in reference.tx_results
            ], name
            assert res.tx_costs == reference.tx_costs, name
            assert not res.used_serial_fallback, name

    @pytest.mark.parametrize("kind", ["state_root", "profile_gas", "drop_profile"])
    def test_rejects_corruption_identically(self, small_universe, kind):
        block = _sealed_block(small_universe, _txs(small_universe, n=20))
        corrupted = FaultInjector(FaultConfig(seed=3)).corrupt_block(block, kind)
        verdicts = set()
        sim = ParallelValidator(config=ValidatorConfig(lanes=4))
        res = sim.validate_block(corrupted, small_universe.genesis)
        verdicts.add((res.accepted, res.failure.reason if res.failure else None))
        for name, factory in BACKEND_FACTORIES:
            with factory() as backend:
                validator = ParallelValidator(
                    config=ValidatorConfig(lanes=4), backend=backend
                )
                res = validator.validate_block(corrupted, small_universe.genesis)
            verdicts.add((res.accepted, res.failure.reason if res.failure else None))
        assert len(verdicts) == 1, verdicts
        assert not next(iter(verdicts))[0]


@pytest.mark.faults
class TestFaultEquivalence:
    def _validate_everywhere(self, block, universe, injector, **cfg):
        config = ValidatorConfig(lanes=4, **cfg)
        results = {}
        sim = ParallelValidator(config=config, injector=injector)
        results["sim"] = sim.validate_block(block, universe.genesis)
        for name, factory in BACKEND_FACTORIES:
            with factory() as backend:
                validator = ParallelValidator(
                    config=config, injector=injector, backend=backend
                )
                results[name] = validator.validate_block(block, universe.genesis)
        return results

    def _observe_everywhere(self, block, universe, fault_config, **cfg):
        """Validate on sim | serial | thread | 2 followers, each with its own
        registry and tracer; returns ``{substrate: (result, worker_faults
        counter, fault-ladder trace instants)}``."""
        config = ValidatorConfig(lanes=4, **cfg)
        observed = {}

        def observe(name, validate):
            metrics, tracer = MetricsRegistry(), Tracer()
            result = validate(
                injector=FaultInjector(fault_config), metrics=metrics, tracer=tracer
            )
            instants = [
                (span.name, span.attrs)
                for span in tracer.spans
                if span.name in ("worker_fault", "serial_fallback")
            ]
            counter = metrics.snapshot()["counters"].get("validator.worker_faults", 0)
            observed[name] = (result, counter, instants)

        observe(
            "sim",
            lambda **kw: ParallelValidator(config=config, **kw).validate_block(
                block, universe.genesis
            ),
        )
        for name, factory in BACKEND_FACTORIES[:2]:
            with factory() as backend:
                observe(
                    name,
                    lambda **kw: ParallelValidator(
                        config=config, backend=backend, **kw
                    ).validate_block(block, universe.genesis),
                )
        observe(
            "followers",
            lambda **kw: DistributedValidator(2, config=config, **kw).validate(
                block, universe.genesis
            ),
        )
        return observed

    @pytest.mark.parametrize(
        "case, fault_config, cfg, expected_faults",
        [
            # (a) transient: heals on the second attempt
            ("heals", dict(worker_fault_rate=1.0, worker_fault_attempts=1), {}, 1),
            # (b) exhausted ladder, serial fallback on / off — the parent
            # commit counted 6 on every backend here, 3 on the sim path
            ("exhausted", dict(worker_fault_rate=0.2, worker_fault_attempts=10), {}, 3),
            (
                "exhausted-reject",
                dict(worker_fault_rate=0.2, worker_fault_attempts=10),
                {"serial_fallback": False},
                3,
            ),
            # (c) transient fault, then the component attempt trips over a
            # lying profile and the reference loop takes the block
            ("lying", dict(worker_fault_rate=1.0, worker_fault_attempts=1), {}, 1),
        ],
    )
    def test_worker_faults_counted_once_on_every_substrate(
        self, small_universe, case, fault_config, cfg, expected_faults
    ):
        if case == "lying":
            block = forge_lying_profile_block(small_universe)
        else:
            block = _sealed_block(small_universe, _txs(small_universe, n=40))
        observed = self._observe_everywhere(
            block, small_universe, FaultConfig(seed=0, **fault_config), **cfg
        )
        ref_result, ref_counter, ref_instants = observed["sim"]
        assert ref_result.worker_faults == expected_faults
        assert ref_counter == expected_faults
        assert sum(1 for name, _ in ref_instants if name == "worker_fault") == (
            expected_faults
        )
        for name, (result, counter, instants) in observed.items():
            assert result.accepted == ref_result.accepted, name
            assert result.worker_faults == expected_faults, name
            assert result.exec_attempts == ref_result.exec_attempts, name
            assert counter == expected_faults, name
            assert instants == ref_instants, name

    def test_invalid_tx_under_crash_reports_ladder_first(self, small_universe):
        """The ladder is walked before anything executes, so a MALFORMED_BLOCK
        rejection carries the whole ladder's counters — on every substrate —
        even when the invalid transaction sits before the crashing one."""
        honest = _sealed_block(small_universe, _txs(small_universe, n=20))
        fault_config = FaultConfig(seed=0, worker_fault_rate=0.3, worker_fault_attempts=2)
        injector = FaultInjector(fault_config)

        def first_crash(block):
            return next(
                (i for i in range(20) if injector.execution_fault(block.hash, 0, i).crash),
                None,
            )

        # the crash schedule is keyed by block hash, which the forged
        # transaction changes: pick an index the new schedule crashes after
        invalid_at, block = next(
            (k, forged)
            for k in range(20)
            for forged in [_with_invalid_tx(honest, k)]
            if (first_crash(forged) or 0) > k
        )
        observed = self._observe_everywhere(block, small_universe, fault_config)
        for name, (result, counter, _) in observed.items():
            assert not result.accepted, name
            assert result.failure.reason is FailureReason.MALFORMED_BLOCK, name
            assert result.failure.tx_index == invalid_at, name
            assert (result.worker_faults, result.exec_attempts) == (2, 3), name
            assert counter == 2, name

    def test_transient_crash_retry_ladder_matches(self, small_universe):
        block = _sealed_block(small_universe, _txs(small_universe, n=20))
        injector = FaultInjector(
            FaultConfig(seed=0, worker_fault_rate=1.0, worker_fault_attempts=1)
        )
        results = self._validate_everywhere(block, small_universe, injector)
        reference = results["sim"]
        assert reference.accepted
        assert reference.worker_faults == 1
        for name, res in results.items():
            assert res.accepted, (name, res.reason)
            assert res.worker_faults == reference.worker_faults, name
            assert res.exec_attempts == reference.exec_attempts, name
            assert res.post_state.state_root() == reference.post_state.state_root(), name
            assert not res.used_serial_fallback, name

    def test_permanent_crash_degrades_identically(self, small_universe):
        block = _sealed_block(small_universe, _txs(small_universe, n=20))
        injector = FaultInjector(
            FaultConfig(seed=0, worker_fault_rate=1.0, worker_fault_attempts=10**6)
        )
        results = self._validate_everywhere(block, small_universe, injector)
        reference = results["sim"]
        assert reference.accepted
        assert reference.used_serial_fallback
        for name, res in results.items():
            assert res.accepted, (name, res.reason)
            assert res.used_serial_fallback, name
            assert res.worker_faults == reference.worker_faults, name
            assert res.post_state.state_root() == reference.post_state.state_root(), name

    def test_stalls_charge_identical_costs(self, small_universe):
        block = _sealed_block(small_universe, _txs(small_universe, n=20))
        injector = FaultInjector(
            FaultConfig(seed=7, stall_rate=0.5, stall_delay_us=250.0)
        )
        results = self._validate_everywhere(block, small_universe, injector)
        reference = results["sim"]
        assert reference.accepted
        assert any(  # the seed actually stalled something
            cost > base_cost
            for cost, base_cost in zip(
                reference.tx_costs,
                ParallelValidator(config=ValidatorConfig(lanes=4))
                .validate_block(block, small_universe.genesis)
                .tx_costs,
            )
        )
        for name, res in results.items():
            assert res.tx_costs == reference.tx_costs, name
            assert res.post_state.state_root() == reference.post_state.state_root(), name
