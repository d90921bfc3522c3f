"""The proposing session: everything a block-building run repeats.

Every proposer strategy is one idea — speculate, validate against what
committed first, let commit order become block order — and the strategies
differ only in the *decision rule*: who runs next, who conflicts, who
commits when.  A :class:`ProposeSession` is created once per ``propose()``
call and owns the rest::

    pool -> ProposeSession{pop . run . commit | abort | drop} <-> decision rule -> ProposalResult

* the :class:`~repro.state.versioned.MultiVersionStore`, the gas / tx
  budget (:meth:`~ProposeSession.full`) and pool hand-off (the only
  ``pop_best`` / ``mark_packed`` / ``push_back`` / ``drop`` calls on the
  propose path);
* task execution: :meth:`~ProposeSession.run` is the single place that
  knows whether a real backend is attached,
  :meth:`~ProposeSession.speculate` the single in-parent execution and
  :meth:`~ProposeSession.speculative_round` the barrier round OCC-WSI's
  wave schedule and two-phase's phase 1 share;
* the epilogue (:meth:`~ProposeSession.finish`): ``RunStats``, the
  ``proposer.*`` metrics, the ``propose`` trace scope, the strategy tag
  and the strict-check gate.

**The clock rule.**  :attr:`ProposeSession.clock` is simulated
microseconds and only ever advances by :class:`CostModel` charges, on
every executor.  ``RunStats.makespan``, every ``CommittedTx.commit_time``
and the ``proposer.makespan_us`` gauge read it, so they replay exactly
whether tasks ran inline or on real cores.  Wall time is measured once,
by the session, and published as ``proposer.wall_us`` when a backend is
attached; it never mixes into the simulated figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.types import Address
from repro.evm.interpreter import EVM, ExecutionContext, TxResult
from repro.exec.backend import ExecutionBackend
from repro.exec.hooks import ScheduleProbe
from repro.exec.tasks import (
    ProposeChunk,
    ProposeShared,
    ProposeTaskResult,
    run_propose_chunk,
    speculate,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.simcore.costmodel import COST_MODEL
from repro.simcore.lanes import lpt_makespan
from repro.simcore.stats import RunStats
from repro.state.access import ReadWriteSet, StateKey
from repro.state.statedb import StateDB, StateSnapshot
from repro.state.versioned import MultiVersionStore
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

__all__ = [
    "ProposerConfig",
    "CommittedTx",
    "ProposalResult",
    "ProposerEngine",
    "ProposeSession",
    "materialize_store",
    "run_strict_checks",
]

#: Fixed buckets for the txpool-depth-over-time histogram (clamped tails).
_DEPTH_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1 << 30)
#: Fixed buckets for per-transaction abort/retry counts.
_RETRY_EDGES = (0, 1, 2, 3, 4, 6, 8, 12, 16, 32, 1 << 20)
#: Safety valve: abandon a transaction after this many aborts (a real
#: proposer would rather ship the block than spin; never hit in practice
#: because the pool drains).
MAX_RETRIES = 1000


@dataclass(frozen=True)
class ProposerConfig:
    """Proposer knobs: strategy, worker thread count and block capacity."""

    lanes: int = 16
    gas_limit: int = 30_000_000
    #: Intra-block execution strategy (``repro.core.strategies``):
    #: ``"occ-wsi"`` (Algorithm 1, :mod:`repro.core.occ_wsi`),
    #: ``"two-phase"`` (Saraph & Herlihy speculative rounds) or
    #: ``"block-stm"`` (multi-version suspend-on-ESTIMATE,
    #: :mod:`repro.core.blockstm`).  Consumed by
    #: :func:`repro.core.strategies.build_proposer`.
    strategy: str = "occ-wsi"
    #: Run the serializability oracle (:mod:`repro.check.oracle`) over every
    #: proposal before returning it, raising
    #: :class:`~repro.check.oracle.ScheduleViolationError` if the committed
    #: order is not provably conflict-serializable.  Off by default: the
    #: check is O(committed rw-set size) per block — cheap, but not free.
    strict_checks: bool = False


@dataclass
class CommittedTx:
    """One transaction packed into the block, in commit order."""

    tx: Transaction
    result: TxResult
    rw: ReadWriteSet
    version: int  # 1-based position in the block
    snapshot_version: int
    commit_time: float
    cost: float


@dataclass
class ProposalResult:
    """Outcome of one proposing run (any strategy)."""

    committed: List[CommittedTx]
    stats: RunStats
    store: MultiVersionStore
    base: StateSnapshot
    total_fees: int
    invalid_dropped: int
    retries_exhausted: int = 0
    #: Which proposer strategy produced this result — carried into the
    #: conformance oracles so violation reports name their producer.
    strategy: str = "occ-wsi"

    @property
    def gas_used(self) -> int:
        return sum(c.result.gas_used for c in self.committed)

    def final_state(self, coinbase: Optional[Address] = None) -> StateSnapshot:
        """Materialise the committed writes (plus deferred fees) onto the base."""
        db = materialize_store(self.base, self.store)
        if coinbase is not None and self.total_fees:
            db.add_balance(coinbase, self.total_fees)
        return db.commit()


def materialize_store(base: StateSnapshot, store: MultiVersionStore) -> StateDB:
    """The latest committed value of every key, laid over ``base`` in a
    still-open :class:`StateDB` — whoever credits the block's fees and
    rewards does it there and commits once."""
    db = StateDB(base)
    for (kind, address, slot), value in store.final_values().items():
        if kind == "balance":
            db.set_balance(address, value)
        elif kind == "nonce":
            db.set_nonce(address, value)
        elif kind == "storage":
            db.set_storage(address, slot, value)
        elif kind == "code":
            db.set_code(address, value)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown key kind {kind}")
    return db


def run_strict_checks(
    result: ProposalResult,
    *,
    enabled: bool,
    metrics: MetricsRegistry,
) -> ProposalResult:
    """Post-propose serializability gate shared by every proposer strategy.

    Runs :func:`repro.check.oracle.verify_commit_order` over the fresh
    result (which picks the version semantics matching
    ``result.strategy``) and raises
    :class:`~repro.check.oracle.ScheduleViolationError` on any violation.
    """
    if not enabled:
        return result
    # local import: repro.check re-executes through the core pipeline,
    # so a module-level import would be circular
    from repro.check.oracle import ScheduleViolationError, verify_commit_order

    report = verify_commit_order(result)
    metrics.counter("check.schedules_verified").inc()
    if not report.ok:
        metrics.counter("check.schedule_violations").inc(len(report.violations))
        raise ScheduleViolationError(report)
    return result


class ProposerEngine:
    """Constructor surface and reuse contract shared by every strategy.

    One instance is reusable across blocks; each :meth:`propose` call is
    independent (it opens its own :class:`ProposeSession`).  Use
    :func:`repro.core.strategies.build_proposer` to select an engine by
    :attr:`ProposerConfig.strategy`.
    """

    #: the ``ProposerConfig.strategy`` value this engine implements
    strategy: str

    def __init__(
        self,
        config: Optional[ProposerConfig] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[ExecutionBackend] = None,
        probe: Optional[ScheduleProbe] = None,
    ) -> None:
        self.evm = EVM()
        self.config = config or ProposerConfig(strategy=self.strategy)
        #: Span sink; the NullTracer default keeps tracing at one flag
        #: check per recorded event.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        #: Optional real-parallelism backend (:mod:`repro.exec`); ``None``
        #: runs every task in the calling thread.  Block contents never
        #: depend on it for two-phase and Block-STM; OCC-WSI picks its
        #: schedule by it (see :mod:`repro.core.occ_wsi`).
        self.backend = backend
        #: Optional :class:`~repro.exec.hooks.ScheduleProbe` steering the
        #: scheduling decisions a strategy exposes as yield points
        #: (conformance fuzzing only; ``None`` keeps production defaults).
        self.probe = probe

    def propose(
        self, base: StateSnapshot, pool: TxPool, ctx: ExecutionContext
    ) -> ProposalResult:
        """Build one block: run until the gas limit or pool exhaustion."""
        raise NotImplementedError


class ProposeSession:
    """Per-``propose()`` state and bookkeeping shared by every strategy.

    The decision rule that created the session drives it and ends with
    :meth:`finish`.  Rules advance :attr:`clock` themselves, and the
    ``executions`` / ``aborts`` / ``total_work`` tallies where their
    accounting is their own (Block-STM incarnations, two-phase phase-1
    rejects).
    """

    def __init__(
        self,
        engine: ProposerEngine,
        base: StateSnapshot,
        pool: TxPool,
        ctx: ExecutionContext,
    ) -> None:
        self.cfg = engine.config
        self.model = COST_MODEL
        self.tracer = engine.tracer
        self.metrics = engine.metrics
        self.backend = engine.backend
        self.strategy = engine.strategy
        self.base = base
        self.pool = pool
        self.store = MultiVersionStore(base)
        self.committed: List[CommittedTx] = []
        #: simulated microseconds (see "The clock rule" above)
        self.clock = 0.0
        self.cur_gas = 0
        self.total_fees = 0
        self.invalid_dropped = 0
        self.retries_exhausted = 0
        self.aborts = 0
        self.executions = 0
        self.total_work = 0.0
        #: speculative rounds run so far (:meth:`speculative_round`)
        self.rounds = 0
        #: committed version the previous round's snapshot was taken at
        self._round_version = 0
        self._retry_counts: Dict[bytes, int] = {}
        self._evm = engine.evm
        self._shared = ProposeShared(base, ctx, kept=[0, {}])
        if self.backend is not None:
            self._exec_stats0 = self.backend.stats.copy()
            self.backend.open(self._shared)
        #: hoisted ``metrics.enabled``: :meth:`pop` observes the depth on it
        self.metrics_on: bool = self.metrics.enabled
        self._depth_hist = self.metrics.histogram("proposer.txpool_depth", _DEPTH_EDGES)
        self._wall0 = time.perf_counter()
        # one "propose" span parents every per-tx span of this run; opened
        # manually because the run ends in finish(), not in a with-block
        self._scope: Any = None
        #: hoisted ``tracer.enabled``: hot loops guard :meth:`trace` on it
        self.trace_on: bool = self.tracer.enabled
        if self.trace_on:
            attrs: Dict[str, Any] = {"lanes": self.cfg.lanes, "strategy": self.strategy}
            if self.backend is not None:
                attrs.update(backend=self.backend.name, workers=self.backend.workers)
            self._scope = self.tracer.scope("propose", 0.0, **attrs)
            self._scope.__enter__()

    # -- budget and pool hand-off --------------------------------------- #

    def full(self) -> bool:
        """Whether the block's gas budget is spent."""
        return self.cur_gas >= self.cfg.gas_limit

    def pop(self) -> Optional[Transaction]:
        """Next ready transaction by priority (it becomes in flight)."""
        if self.metrics_on:
            self._depth_hist.observe(len(self.pool))
        return self.pool.pop_best()

    def pop_batch(self, limit: int) -> List[Transaction]:
        """Up to ``limit`` ready transactions, in priority order."""
        batch: List[Transaction] = []
        while len(batch) < limit:
            tx = self.pop()
            if tx is None:
                break
            batch.append(tx)
        return batch

    # -- execution ------------------------------------------------------ #

    def run(self, fn: Callable[[Any, Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """Run ``fn(shared, task)`` per task; results in task order.

        With no backend attached the parent runs the tasks itself — the
        loop ``SerialBackend.map`` runs — so a rule never asks where its
        tasks execute.
        """
        if self.backend is None:
            return [fn(self._shared, task) for task in tasks]
        return self.backend.map(fn, tasks)

    def speculate(self, tx: Transaction) -> ProposeTaskResult:
        """One in-parent execution against the live committed state.

        Single executions (the async lanes, two-phase's serial phase)
        never cross ``backend.map``: there is nothing to overlap with.
        """
        return speculate(
            self._evm, self.store, tx, self._shared.ctx, self.store.committed_version
        )

    def charge(self, out: ProposeTaskResult) -> float:
        """Count one completed execution; returns its simulated cost."""
        assert out.result is not None
        cost = self.model.tx_cost(out.result.trace)
        self.executions += 1
        self.total_work += cost
        return cost

    def speculative_round(
        self, width: int
    ) -> Optional[Tuple[List[Transaction], List[ProposeTaskResult], int]]:
        """Pop up to ``width`` transactions and speculate them as one round.

        The whole batch runs against one snapshot of the committed state
        (the overlay is taken once, so every executor sees identical
        inputs) and the clock is charged the round's LPT schedule onto
        ``lanes`` plus one ``commit_sync_per_lane * lanes`` barrier —
        every lane synchronises before conflicts are resolved.  Returns
        ``(batch, results, snapshot_version)``; ``None`` once the pool has
        nothing ready.

        Workers sharing the parent's memory read the overlay by reference,
        one transaction per task; the others keep it and get one chunk each:
        a share of the batch plus the writes committed since the last round.
        """
        batch = self.pop_batch(width)
        if not batch:
            return None
        seq: Optional[int] = None
        since, n = 0, len(batch)
        if self.backend is not None and not self.backend.shares_memory:
            seq, since, n = self.rounds, self._round_version, self.backend.workers
        self.rounds += 1
        snapshot_version = self._round_version = self.store.committed_version
        writes = self.store.final_values(since)
        chunks = [ProposeChunk(tuple(batch[w::n]), snapshot_version, writes, seq) for w in range(n)]
        shares = self.run(run_propose_chunk, chunks)
        outs: List[ProposeTaskResult] = [shares[i % n][i // n] for i in range(len(batch))]
        durations = [
            self.model.tx_overhead if out.invalid is not None else self.charge(out)
            for out in outs
        ]
        # two additions, in this order: float addition does not associate
        # and the sim goldens pin the last bit
        self.clock += lpt_makespan(durations, self.cfg.lanes)
        self.clock += self.model.commit_sync_per_lane * self.cfg.lanes
        return batch, outs, snapshot_version

    # -- outcomes ------------------------------------------------------- #

    def commit(
        self,
        tx: Transaction,
        result: TxResult,
        rw: ReadWriteSet,
        writes: Dict[StateKey, Any],
        snapshot_version: int,
    ) -> int:
        """Pack ``tx`` as the next block position at the current clock."""
        version = self.store.committed_version + 1
        self.store.apply(writes, version)
        self.committed.append(
            CommittedTx(
                tx=tx,
                result=result,
                rw=rw,
                version=version,
                snapshot_version=snapshot_version,
                commit_time=self.clock,
                cost=self.model.tx_cost(result.trace),
            )
        )
        self.cur_gas += result.gas_used
        self.total_fees += result.fee
        self.pool.mark_packed(tx)
        return version

    def abort(self, tx: Transaction) -> int:
        """A stale read: back to the pool (``PushHeap``), or dropped once
        :data:`MAX_RETRIES` is spent.  Returns the transaction's abort count."""
        self.aborts += 1
        retries = self._retry_counts[tx.hash] = self._retry_counts.get(tx.hash, 0) + 1
        if retries >= MAX_RETRIES:
            self.pool.drop(tx)
            self.retries_exhausted += 1
        else:
            self.pool.push_back(tx)
        return retries

    def defer(self, tx: Transaction) -> None:
        """The block filled while ``tx`` was in flight: its work is wasted
        and it returns to the pool for the next block."""
        self.pool.push_back(tx)

    def drop_invalid(self, tx: Transaction) -> None:
        """``tx`` can never execute (bad nonce, unaffordable): discard it."""
        self.pool.drop(tx)
        self.invalid_dropped += 1

    # -- observability -------------------------------------------------- #

    def wall_us(self) -> float:
        """Wall microseconds since the session opened."""
        return (time.perf_counter() - self._wall0) * 1e6

    def trace(
        self, name: str, tx: Transaction, start: float, end: Optional[float] = None, **attrs: Any
    ) -> None:
        """Record one per-transaction span (an instant when ``end`` is omitted)."""
        if self.trace_on:
            self.tracer.record(
                name, start, start if end is None else end, tx=tx.hash.hex()[:8], **attrs
            )

    # -- epilogue ------------------------------------------------------- #

    def finish(
        self,
        extra: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, int]] = None,
        trace_end: Optional[float] = None,
    ) -> ProposalResult:
        """Close the run: stats, metrics, trace scope, strict checks.

        ``extra`` is the rule's own tallies (they land in
        ``RunStats.extra`` and on the ``propose`` span), ``counters`` its
        strategy-specific metric counters.  The ``propose`` span ends at
        the clock unless the rule stamped its spans on another one and
        says where that one stopped (``trace_end``).
        """
        extra = extra or {}
        backend = self.backend
        metrics = self.metrics
        n_committed = len(self.committed)
        if self.trace_on:
            self._scope.span.end = self.clock if trace_end is None else trace_end
            self._scope.span.attrs.update(
                committed=n_committed, aborts=self.aborts, executions=self.executions, **extra
            )
            self._scope.__exit__(None, None, None)
        stats = RunStats(
            makespan=self.clock,
            total_work=self.total_work,
            lanes=self.cfg.lanes,
            tasks=self.executions,
            aborts=self.aborts,
            extra={
                "committed": n_committed,
                "invalid_dropped": self.invalid_dropped,
                "abort_rate": self.aborts / self.executions if self.executions else 0.0,
                "strategy": self.strategy,
                **extra,
            },
        )
        if backend is not None:
            stats.extra["backend"] = backend.name
            stats.extra["backend_workers"] = backend.workers
        metrics.counter("proposer.executions").inc(self.executions)
        metrics.counter("proposer.aborts").inc(self.aborts)
        metrics.counter("proposer.commits").inc(n_committed)
        metrics.counter("proposer.invalid_dropped").inc(self.invalid_dropped)
        metrics.counter("proposer.retries_exhausted").inc(self.retries_exhausted)
        for name, value in (counters or {}).items():
            metrics.counter(name).inc(value)
        if self.metrics_on:
            retry_hist = metrics.histogram("proposer.tx_aborts", _RETRY_EDGES)
            for count in self._retry_counts.values():
                retry_hist.observe(count)
        metrics.gauge("proposer.makespan_us").set(self.clock)
        if backend is not None:
            metrics.gauge("proposer.wall_us").set(self.wall_us())
            backend.publish(metrics, self._exec_stats0)
        return run_strict_checks(
            ProposalResult(
                committed=self.committed,
                stats=stats,
                store=self.store,
                base=self.base,
                total_fees=self.total_fees,
                invalid_dropped=self.invalid_dropped,
                retries_exhausted=self.retries_exhausted,
                strategy=self.strategy,
            ),
            enabled=self.cfg.strict_checks,
            metrics=metrics,
        )
