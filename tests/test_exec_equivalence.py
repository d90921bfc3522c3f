"""Cross-backend equivalence: same workload + seed => identical outcomes.

The whole point of the deterministic wave schedule and merge driver is
that switching execution substrate never changes a single decision:
block contents, state roots, abort/commit/drop choices, simulated timings
and fault-handling paths must be byte-identical across serial, thread and
process backends — and, for the validator and the one-schedule proposer
strategies (two-phase, Block-STM), identical with no backend too
(OCC-WSI's wave schedule legitimately differs from its async lanes, so
its equivalence class is the three real backends).
"""

import dataclasses

import pytest

from repro.chain.block import BlockProfile, transactions_root
from repro.chain.blockchain import Blockchain
from repro.check.fuzzer import forge_lying_profile_block
from repro.common.types import address, address_from_int
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.proposer import seal_block
from repro.core.strategies import STRATEGY_CHOICES, build_proposer
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.interpreter import EVM, ExecutionContext
from repro.distributed import ShardCoordinator
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend
from repro.faults.errors import FailureReason
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode, ValidatorNode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig

pytestmark = pytest.mark.exec

BACKEND_FACTORIES = (
    ("serial", lambda: SerialBackend()),
    ("thread", lambda: ThreadBackend(2)),
    ("process", lambda: ProcessBackend(2)),
)

ETHER = 10**18


def _coinbase():
    return address(b"\xcc" * 20)


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


def _world(n=10):
    eoas = [address_from_int(0x900 + i) for i in range(n)]
    return eoas, genesis_snapshot({a: AccountData(balance=ETHER) for a in eoas})


def _payment(sender, to, nonce=0, price=10, value=100):
    return Transaction(sender, to, value, b"", 60_000, price, nonce)


def _propose(strategy, base, txs, ctx, *, backend=None, lanes=4, **cfg):
    pool = TxPool()
    pool.add_many(sorted(txs, key=lambda t: t.nonce))
    engine = build_proposer(
        ProposerConfig(lanes=lanes, strategy=strategy, **cfg), backend=backend
    )
    return engine.propose(base, pool, ctx), pool


def _observe(result, ctx, parent_header):
    """Everything about a proposal that must not depend on the executor."""
    sealed = seal_block(
        result,
        parent_header,
        coinbase=ctx.coinbase,
        timestamp=ctx.timestamp,
        gas_limit=ctx.gas_limit,
    )
    extra = {
        k: v
        for k, v in result.stats.extra.items()
        if k not in ("backend", "backend_workers")
    }
    return (
        bytes(sealed.block.hash),
        [(c.tx.hash, c.version, c.snapshot_version, c.commit_time) for c in result.committed],
        dataclasses.replace(result.stats, extra=extra),
        result.invalid_dropped,
        result.retries_exhausted,
    )


#: The wave schedule's behavioural cases: ``(id, txs(eoas), lanes, config,
#: expected)``.  ``expected`` pins exact figures where the input fixes
#: them and a ``min_`` bound where only the direction matters.
WAVE_CASES = [
    (
        "packs-everything",
        lambda e: [_payment(e[i], e[i + 5]) for i in range(5)],
        4,
        {},
        {"committed": 5, "pool_left": 0},
    ),
    (
        "disjoint-one-wave",
        lambda e: [_payment(e[i], e[i + 5]) for i in range(4)],
        4,
        {},
        {"committed": 4, "waves": 1, "aborts": 0},
    ),
    (
        "hot-spills-waves",  # one hot receiver: more waves, aborts, all commit
        lambda e: [_payment(e[i], e[9]) for i in range(6)],
        6,
        {},
        {"committed": 6, "min_waves": 2, "min_aborts": 1},
    ),
    (
        "hot-narrow-waves",
        lambda e: [_payment(e[i], e[9]) for i in range(6)],
        4,
        {},
        {"committed": 6, "min_waves": 2, "min_aborts": 1},
    ),
    (
        "hot-by-price",
        lambda e: [_payment(e[i], e[9], price=10 + i) for i in range(6)],
        4,
        {},
        {"committed": 6, "min_aborts": 1},
    ),
    (
        "gas-limit-respected",
        lambda e: [_payment(e[i], e[i + 5]) for i in range(5)],
        4,
        {"gas_limit": 21000 * 2 + 1},
        {"committed": 3, "pool_left": 2},
    ),
    (
        "invalid-dropped",
        lambda e: [_payment(e[0], e[1], value=5 * ETHER), _payment(e[2], e[3])],
        4,
        {},
        {"committed": 1, "invalid_dropped": 1},
    ),
]


class TestProposerEquivalence:
    def test_identical_blocks_across_backends(self, small_universe, genesis_chain):
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
        ref_observed = _observe(reference, ctx, genesis_chain.genesis.header)
        assert ref_hashes, "workload committed nothing"
        for name, result in outcomes.items():
            assert [c.tx.hash for c in result.committed] == ref_hashes, name
            assert result.final_state(coinbase=ctx.coinbase).state_root() == ref_root, name
            assert result.stats.aborts == reference.stats.aborts, name
            assert _observe(result, ctx, genesis_chain.genesis.header) == ref_observed, name

    @pytest.mark.parametrize("strategy", STRATEGY_CHOICES)
    def test_executor_independent_timings(self, small_universe, genesis_chain, strategy):
        """The clock rule: the sealed block hash, every ``commit_time`` and
        the whole ``RunStats`` (bar the backend labels) agree on serial |
        thread — and, where the strategy has one schedule, on no backend."""
        self._assert_executors_agree(
            small_universe, genesis_chain, strategy, BACKEND_FACTORIES[:2]
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", ("two-phase", "block-stm"))
    def test_process_backend_agrees_too(self, small_universe, genesis_chain, strategy):
        # occ-wsi on processes is in test_identical_blocks_across_backends
        self._assert_executors_agree(
            small_universe, genesis_chain, strategy, BACKEND_FACTORIES[2:]
        )

    def _assert_executors_agree(self, universe, chain, strategy, factories):
        txs = _txs(universe)
        ctx = _ctx()
        parent = chain.genesis.header
        observed = {}
        if strategy != "occ-wsi":  # its async lanes are a schedule of their own
            result, _ = _propose(strategy, universe.genesis, txs, ctx)
            observed["none"] = _observe(result, ctx, parent)
        for name, factory in factories:
            with factory() as backend:
                result, _ = _propose(strategy, universe.genesis, txs, ctx, backend=backend)
            assert result.stats.extra["backend"] == name
            observed[name] = _observe(result, ctx, parent)
        reference = next(iter(observed.values()))
        assert reference[1], "workload committed nothing"
        assert reference[2].makespan > 0
        for name, seen in observed.items():
            assert seen == reference, (strategy, name)

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

    @pytest.mark.parametrize(
        "make_txs, lanes, cfg, expected",
        [case[1:] for case in WAVE_CASES],
        ids=[case[0] for case in WAVE_CASES],
    )
    def test_wave_schedule_cases(self, make_txs, lanes, cfg, expected):
        """OCC-WSI's wave schedule is the round-based deterministic-abort
        OCC of Garamvölgyi et al.: a transaction commits iff nothing it
        read was written by an earlier commit of its round.  Every case
        must also replay exactly and match a serial replay of its block."""
        eoas, base = _world()
        ctx = _ctx()
        txs = make_txs(eoas)

        def run():
            return _propose("occ-wsi", base, txs, ctx, backend=SerialBackend(), lanes=lanes, **cfg)

        (result, pool), (again, _) = run(), run()
        seen = {
            "committed": len(result.committed),
            "pool_left": len(pool),
            "waves": result.stats.extra["waves"],
            "aborts": result.stats.aborts,
            "invalid_dropped": result.invalid_dropped,
        }
        for key, want in expected.items():
            if key.startswith("min_"):
                assert seen[key[4:]] >= want, (key, seen)
            else:
                assert seen[key] == want, (key, seen)

        # deterministic, makespan included
        assert [c.tx.hash for c in again.committed] == [c.tx.hash for c in result.committed]
        assert again.stats == result.stats
        # serializable: a serial replay in commit order reproduces the state
        db = StateDB(base)
        evm = EVM()
        for c in result.committed:
            evm.apply_transaction(db, c.tx, ctx)
        assert db.commit().state_root() == result.final_state().state_root()

    def test_async_lanes_beat_waves_under_contention(
        self, small_universe, small_generator
    ):
        """The barrier wastes lane time every round; OCC-WSI's free-running
        lanes finish the same transactions sooner (the §2.3 ablation)."""
        txs = small_generator.generate_block_txs()
        ctx = _ctx()
        lanes, _ = _propose("occ-wsi", small_universe.genesis, txs, ctx, lanes=16)
        waves, _ = _propose(
            "occ-wsi", small_universe.genesis, txs, ctx, lanes=16, backend=SerialBackend()
        )
        assert len(lanes.committed) == len(waves.committed) == len(txs)
        assert lanes.stats.makespan < waves.stats.makespan


def _seen_of(sealed):
    """What a sealed proposal must not owe to its executor: block bytes'
    hash, every commit with its rw-set, the ``RunStats`` bar backend labels."""
    proposal = sealed.proposal
    extra = {
        k: v for k, v in proposal.stats.extra.items() if k not in ("backend", "backend_workers")
    }
    return (
        bytes(sealed.block.hash),
        [
            (c.tx.hash, c.version, c.snapshot_version, c.commit_time, c.rw.reads, c.rw.writes)
            for c in proposal.committed
        ],
        dataclasses.replace(proposal.stats, extra=extra),
        bytes(sealed.block.header.state_root),
    )


class _TwoRoles:
    """A proposer and a validator node on one backend, as ``serve`` pairs them."""

    def __init__(self, universe, backend, strategy="occ-wsi", seed=5):
        self.chain = Blockchain(universe.genesis)
        self.generator = BlockWorkloadGenerator(
            dataclasses.replace(universe, nonces={}),
            WorkloadConfig(txs_per_block=30, tx_count_jitter=0.0, seed=seed),
        )
        self.proposer = ProposerNode(
            "equiv-proposer", config=ProposerConfig(lanes=4, strategy=strategy), backend=backend
        )
        self.validator = ValidatorNode(
            "equiv-validator", universe.genesis, chain=self.chain, backend=backend
        )

    def build(self, parent=None):
        """Seal the next batch of transactions on ``parent`` (default: the head)."""
        parent = parent or self.chain.head
        return self.proposer.build_block(
            parent.header, self.chain.state_at(parent.hash), self.generator.generate_block_txs()
        )

    def accept(self, *sealed):
        """Validate, all in one batch; returns their post-state roots."""
        outcome = self.validator.receive_blocks([s.block for s in sealed])
        assert len(outcome.accepted) == len(sealed), outcome.failures
        return [bytes(self.chain.state_at(s.block.hash).state_root()) for s in sealed]

    def extend(self, blocks):
        seen = []
        for _ in range(blocks):
            sealed = self.build()
            seen.append((_seen_of(sealed), self.accept(sealed)))
        return seen


class TestResidentIdentity:
    """Workers that hold the state across blocks, roles, forks and restarts
    seal and accept exactly what ``SerialBackend`` does."""

    @pytest.mark.parametrize("strategy", STRATEGY_CHOICES)
    def test_chain_on_one_process_backend_matches_serial(self, small_universe, strategy):
        with SerialBackend() as serial, ProcessBackend(2) as process:
            reference = _TwoRoles(small_universe, serial, strategy).extend(6)
            assert _TwoRoles(small_universe, process, strategy).extend(6) == reference
            gained = process.stats
            assert (gained["workers_forked"], gained["sync_fork"], gained["sync_delta"]) == (2, 1, 5)
        assert len({seen[0][0] for seen in reference}) == 6
        assert all(seen[0][1] for seen in reference), "a block committed nothing"

    def test_forks_reorgs_and_restarts_are_just_another_diff(self, small_universe):
        def jumps(backend):
            roles = _TwoRoles(small_universe, backend)
            seen = roles.extend(6)
            syncs = [backend.stats.copy()]

            def step(*sealed):
                assert all(s.proposal.committed for s in sealed), "a jump sealed nothing"
                seen.append(([_seen_of(s) for s in sealed], roles.accept(*sealed)))
                syncs.append(backend.stats.copy())

            canonical = roles.chain.canonical_chain()  # genesis .. block 6
            # two siblings of the head, validated as one batch
            step(roles.build(canonical[5]), roles.build(canonical[5]))
            # a block on a parent three heights back
            step(roles.build(canonical[3]))
            # a second chain from genesis, other transactions, same backend
            other = _TwoRoles(small_universe, backend, seed=6)
            seen.extend(other.extend(2))
            syncs.append(backend.stats.copy())
            # close() and re-open
            backend.close()
            seen.extend(other.extend(1))
            syncs.append(backend.stats.copy())
            return seen, syncs

        with SerialBackend() as serial, ProcessBackend(2) as process:
            reference, _ = jumps(serial)
            seen, syncs = jumps(process)
        assert seen == reference
        kinds = ("sync_fork", "sync_delta", "sync_full", "workers_forked")
        assert [tuple(stats[kind] for kind in kinds) for stats in syncs] == [
            (1, 5, 0, 2),  # genesis came with the fork, then one delta per new head
            (1, 5, 0, 2),  # the last four parent states are held: siblings cost nothing,
            (1, 5, 0, 2),  # nor does a parent three heights back
            (1, 7, 0, 2),  # genesis again, long evicted, and the other chain's first head
            (2, 7, 0, 4),  # fresh workers inherit the state they are first opened with
        ]


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

    def _observe_everywhere(self, block, universe, fault_config):
        """Validate on sim | serial | thread | 2 followers, each with its own
        registry and tracer; returns ``{substrate: (result, worker_faults
        counter, fault-ladder trace instants)}``."""
        config = ValidatorConfig(lanes=4)
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
        def follower_pool(injector, **kw):
            coordinator = ShardCoordinator(2, **kw)
            return ParallelValidator(
                config=config, distributor=coordinator, injector=injector, **kw
            )

        observe(
            "followers",
            lambda **kw: follower_pool(**kw).validate_block(block, universe.genesis),
        )
        return observed

    @pytest.mark.parametrize(
        "case, fault_config, expected_faults",
        [
            # (a) transient: heals on the second attempt
            ("heals", dict(worker_fault_rate=1.0, worker_fault_attempts=1), 1),
            # (b) exhausted ladder: degrades to the serial pass
            ("exhausted", dict(worker_fault_rate=0.2, worker_fault_attempts=10), 3),
            # (c) transient fault, then the component attempt trips over a
            # lying profile and the reference loop takes the block
            ("lying", dict(worker_fault_rate=1.0, worker_fault_attempts=1), 1),
        ],
    )
    def test_worker_faults_counted_once_on_every_substrate(
        self, small_universe, case, fault_config, expected_faults
    ):
        if case == "lying":
            block = forge_lying_profile_block(small_universe)
        else:
            block = _sealed_block(small_universe, _txs(small_universe, n=40))
        observed = self._observe_everywhere(
            block, small_universe, FaultConfig(seed=0, **fault_config)
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
