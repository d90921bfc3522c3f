"""Single-block parallel validation (§4.3's four phases, for one block).

Phases and their timing model:

1. **Preparation** — the scheduler builds the dependency graph from the
   block profile and assigns subgraphs to worker threads by gas-LPT.
   Cost: ``schedule_per_tx × n`` on the control lane.
2. **Transaction execution** — each worker lane runs its subgraphs; a
   transaction's duration comes from its *actual* executed opcode trace,
   so gas-based assignment is an estimate, not an oracle (§5.4).
3. **Block validation** — the applier consumes results **in block order**
   (commits must follow the proposer's schedule, §3.3): transaction *i*
   is applied only after it finished executing *and* transaction *i-1*
   was applied.  Each application costs ``applier_per_tx``; the final
   state-root comparison costs ``block_epilogue``.
4. **Block commitment** — constant ``block_commit``.

Correctness is real, not simulated: every transaction re-executes through
the EVM against the parent state, the applier performs Algorithm 2's
rw-set checks against the profile, and the recomputed state root must
match the header.  Because subgraphs are account-disjoint (conservative
account-level conflicts), re-executing in block order yields the identical
state any conflict-respecting parallel interleaving would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Protocol, Tuple

from repro.chain.block import Block, BlockProfile, TxProfileEntry, build_receipts
from repro.chain.params import DEFAULT_CHAIN_PARAMS, ChainParams
from repro.core.applier import Applier, ProfileMismatch
from repro.core.artifacts import BlockArtifacts, artifacts_for
from repro.core.depgraph import DependencyGraph
from repro.core.proposer import finalize_block_state
from repro.core.scheduler import SchedulePlan
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction, TxResult
from repro.exec.backend import ExecutionBackend
from repro.exec.validating import ParallelExecOutcome, execute_block_parallel
from repro.faults.errors import FailureReason, ValidationFailure
from repro.faults.injector import FaultInjector
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.simcore.costmodel import COST_MODEL
from repro.simcore.stats import RunStats
from repro.state.access import ReadWriteSet, RecordingState
from repro.state.statedb import StateDB, StateSnapshot

__all__ = [
    "ValidatorConfig",
    "PhaseTimes",
    "ValidationResult",
    "FaultLadder",
    "Distributor",
    "ParallelValidator",
]

#: Fixed buckets (simulated µs) for per-phase duration histograms.
PHASE_US_EDGES = (
    0.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0,
    6400.0, 12800.0, 25600.0, 51200.0, 102400.0, 1e9,
)

#: How many times a block whose execution hit a transient worker fault (an
#: injected lane crash) is re-attempted in parallel, with exponential
#: ``CostModel.retry_backoff``, before it degrades to serial re-execution
#: (the Block-STM guarantee: a faulty lane costs throughput, never
#: correctness).
MAX_PARALLEL_RETRIES = 2


@dataclass(frozen=True)
class ValidatorConfig:
    """Validator knobs."""

    lanes: int = 16
    policy: str = "gas_lpt"
    seed: int = 0
    #: Verify rw-sets against the profile (Algorithm 2).  Disabling this is
    #: an ablation: execution still happens, only the checks are skipped.
    verify_profile: bool = True
    #: When a block arrives without a profile, derive footprints by serial
    #: pre-execution in the preparation phase instead of rejecting.
    preexecute_fallback: bool = False
    #: Consensus constants (the block reward) — must equal the
    #: proposer's or state roots diverge, as on a real network.
    params: ChainParams = DEFAULT_CHAIN_PARAMS
    #: Prefetch all storage slots named in the block profile before
    #: execution (geth's prefetcher, §5.4).  When off, every storage read
    #: pays the cold I/O penalty instead.
    prefetch: bool = True
    #: Conflict-detection granularity for the dependency graph.  The paper
    #: uses ``"account"`` (§4.3: balances change in every transaction and
    #: storage writes update the account's MPT node).  ``"key"`` treats
    #: exact state keys as the unit — finer, more parallel, but unsound
    #: for account-root maintenance; provided as an ablation.
    granularity: str = "account"

    def __post_init__(self) -> None:
        # a local misconfiguration, not any block's fault: refuse it here
        # rather than rejecting every block after executing it
        if self.granularity not in ("account", "key"):
            raise ValueError(f"unknown conflict granularity {self.granularity!r}")


@dataclass(frozen=True)
class PhaseTimes:
    """Completion time of each pipeline phase (µs of simulated time)."""

    prep_end: float
    exec_end: float
    validate_end: float
    commit_end: float


@dataclass
class ValidationResult:
    """Everything a validation run produced.

    ``tx_costs``/``exec_ends`` are exposed so the multi-block pipeline can
    re-simulate timing globally without re-executing transactions.
    """

    accepted: bool
    reason: Optional[str]
    # everything below defaults to "not produced": a rejection carries
    # whatever the phases that ran before it filled in
    post_state: Optional[StateSnapshot] = None
    graph: Optional[DependencyGraph] = None
    plan: Optional[SchedulePlan] = None
    tx_costs: List[float] = field(default_factory=list)
    tx_results: List[TxResult] = field(default_factory=list)
    tx_rwsets: List[ReadWriteSet] = field(default_factory=list)
    phases: Optional[PhaseTimes] = None
    serial_time: float = 0.0
    stats: Optional[RunStats] = None
    prep_cost: float = 0.0
    #: Typed classification of the rejection (None when accepted).
    failure: Optional[ValidationFailure] = None
    #: Transient worker crashes observed while (re-)executing this block.
    worker_faults: int = 0
    #: Execution attempts consumed (1 = clean first pass).
    exec_attempts: int = 1
    #: Whether validation degraded to serial re-execution.
    used_serial_fallback: bool = False
    #: Whether execution ran sharded across follower nodes
    #: (:mod:`repro.distributed`) rather than on this node alone.
    used_distributed: bool = False

    @property
    def makespan(self) -> float:
        return self.phases.commit_end if self.phases else float("inf")

    @property
    def speedup(self) -> float:
        if not self.phases or self.phases.commit_end <= 0:
            return 1.0
        return self.serial_time / self.phases.commit_end


class FaultLadder(NamedTuple):
    """Where one block's injected-crash retry ladder ended.

    Computed once per block (:meth:`ParallelValidator._fault_ladder`)
    before anything executes — the injector's keyed RNG is call-order-free
    — so every execution substrate runs at most one, already-decided,
    attempt.
    """

    #: index of the attempt that executes (= crashed attempts before it)
    attempt: int
    worker_faults: int
    #: simulated backoff the crashed attempts cost (µs)
    retry_penalty: float
    #: per-transaction injected stall on the executing attempt (µs)
    stalls: Tuple[float, ...]
    #: ``MAX_PARALLEL_RETRIES`` ran out: the executing attempt is the
    #: injector-free serial pass
    exhausted: bool = False
    #: an execution-fault injector was consulted at all
    consulted: bool = False


class Distributor(Protocol):
    """A shard coordinator :class:`ParallelValidator` can hand a block to.

    :mod:`repro.distributed` implements it; core never imports that
    package.  An outcome is consumed exactly like a backend result;
    ``None`` — the block declined, or follower faults exhausted
    re-assignment — leaves the block to the local paths, which re-execute
    it.
    """

    def execute(
        self,
        validator: "ParallelValidator",
        block: Block,
        parent_state: StateSnapshot,
        ctx: ExecutionContext,
        art: BlockArtifacts,
    ) -> Optional[ParallelExecOutcome]: ...


class ParallelValidator:
    """BlockPilot's validator for a single block."""

    def __init__(
        self,
        config: Optional[ValidatorConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[ExecutionBackend] = None,
        check_log: Any = None,
        probe: Any = None,
        distributor: Optional[Distributor] = None,
    ) -> None:
        self.evm = EVM()
        self.config = config or ValidatorConfig()
        self.applier = Applier()
        #: Optional fault source consulted during the execution phase.
        #: ``None`` (production) makes every fault hook a no-op.
        self.injector = injector
        #: Span sink on the simulated clock (NullTracer default: free).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        #: Optional real-parallelism backend (:mod:`repro.exec`): components
        #: execute on actual cores, all anomalies fall back to the serial
        #: reference loop below so results stay backend-independent.
        self.backend = backend
        #: Optional :class:`~repro.check.report.CheckLog`: the footprint
        #: race detector.  When attached, backend component tasks run in
        #: record mode and every out-of-footprint access becomes a typed
        #: FootprintViolation finding instead of a silent fallback.
        self.check_log = check_log
        #: Optional :class:`~repro.exec.hooks.ScheduleProbe` steering the
        #: component driver's scheduling decisions (conformance fuzzing).
        #: ``None`` means every decision takes its production default.
        self.probe = probe
        #: Optional shard coordinator: when attached, components are run
        #: across follower nodes first; a declined/failed distribution
        #: falls back to the local paths (backend, then the serial
        #: reference loop).
        self.distributor = distributor

    # ------------------------------------------------------------------ #

    def validate_block(
        self,
        block: Block,
        parent_state: StateSnapshot,
        ctx: Optional[ExecutionContext] = None,
    ) -> ValidationResult:
        """Re-execute and verify one block against its parent state.

        The execution context defaults to the block's own header fields —
        re-execution must happen under the proposer's context or results
        (COINBASE/NUMBER/TIMESTAMP reads) would diverge.
        """
        if ctx is None:
            ctx = ExecutionContext.from_header(block.header)
        model = COST_MODEL
        config = self.config
        n = len(block.transactions)
        tracer = self.tracer
        metrics = self.metrics

        # the verdict, filled in as the phases complete: a rejection returns
        # it as far as it got, acceptance completes it
        result = ValidationResult(accepted=False, reason=None)

        def rejected(reason: str, failure: ValidationFailure) -> ValidationResult:
            metrics.counter("validator.blocks_rejected").inc()
            metrics.counter("validator.failure", failure.reason.value).inc()
            if tracer.enabled:
                # failure spans carry the typed FailureReason so fault
                # injection runs are diffable from the trace alone
                tracer.instant(
                    "validation_failure",
                    0.0,
                    block=block.hash.hex()[:8],
                    number=block.number,
                    reason=failure.reason.value,
                    detail=reason,
                )
            result.reason, result.failure = reason, failure
            return result

        def malformed(reason: str, tx_index: Optional[int] = None) -> ValidationResult:
            return rejected(
                reason,
                ValidationFailure(
                    FailureReason.MALFORMED_BLOCK, tx_index=tx_index, detail=reason
                ),
            )

        try:
            block.validate_structure()
        except ValueError as exc:
            return malformed(f"structure: {exc}")

        if block.header.gas_used > block.header.gas_limit:
            return malformed(
                f"block gas {block.header.gas_used} exceeds limit "
                f"{block.header.gas_limit}"
            )

        # ----- execute: one fault ladder, one plan, any substrate --------- #
        # Injected worker crashes are resolved first (no partial commits can
        # leak: nothing has executed yet).  A healed ladder executes once,
        # on whichever substrate is attached; an exhausted one degrades to
        # the injector-free serial reference loop (Block-STM's guarantee: a
        # faulty lane costs throughput, never correctness).
        ladder = self._fault_ladder(block)
        result.worker_faults = ladder.worker_faults
        result.exec_attempts = ladder.attempt + 1
        result.used_serial_fallback = ladder.exhausted
        # the block's one derivation of its plan artifacts (None without a
        # usable profile): the component-execution gate and the preparation
        # phase both read it
        art = artifacts_for(block, config.granularity)
        # the one eligibility gate for component execution: a substrate to
        # run on, a profile to plan from, and the account-level partition —
        # key-granular components may share accounts, so isolating them is
        # unsound
        outcome: Optional[ParallelExecOutcome] = None
        used_distributed = False
        if (
            art is not None
            and (self.distributor is not None or self.backend is not None)
            and n > 0
            and config.granularity == "account"
            and not ladder.exhausted
        ):
            # under local fault injection the in-node paths own the retry
            # semantics: mixing them with follower scheduling would change
            # observable fault behaviour, so followers are skipped
            if self.distributor is not None and not ladder.consulted:
                outcome = self.distributor.execute(
                    self, block, parent_state, ctx, art
                )
                used_distributed = outcome is not None
            if outcome is None and self.backend is not None:
                outcome = execute_block_parallel(
                    self, block, parent_state, ctx, self.backend, art
                )
        if outcome is None:
            # every anomaly above funnels here: the authoritative answer
            outcome = self._execute_reference(block, parent_state, ctx)
        tx_results = result.tx_results = outcome.tx_results
        tx_rwsets = result.tx_rwsets = outcome.tx_rwsets
        tx_costs = result.tx_costs = [
            model.tx_cost(tx_result.trace) + stall
            for tx_result, stall in zip(tx_results, ladder.stalls)
        ]
        if outcome.invalid is not None:
            index, detail = outcome.invalid
            return malformed(f"invalid tx {index}: {detail}", tx_index=index)

        # storage I/O model (§5.4): either the preparation phase prefetches
        # every slot the profile names, or each read pays the cold path
        prefetch_cost = 0.0
        if config.prefetch:
            distinct_slots = {
                key
                for rw in tx_rwsets
                for key in rw.reads
                if key[0] == "storage"
            }
            prefetch_cost = model.prefetch_per_slot * len(distinct_slots)
        else:
            tx_costs = result.tx_costs = [
                cost
                + model.cold_storage_read
                * sum(1 for key in rw.reads if key[0] == "storage")
                for cost, rw in zip(tx_costs, tx_rwsets)
            ]

        # the serial baseline also runs the prefetcher (§5.4: "to ensure a
        # fair comparison"), so it pays the same prefetch cost
        result.serial_time = (
            prefetch_cost
            + sum(tx_costs)
            + model.applier_per_tx * n
            + model.block_epilogue
            + model.block_commit
        )

        # ----- preparation phase: dependency graph + schedule ------------- #
        profile = block.profile
        prep_cost = model.schedule_per_tx * n + prefetch_cost
        if art is None and config.preexecute_fallback:
            # no profile: the validator pays a serial pre-execution to learn
            # the footprints (legacy-block path)
            executed = BlockProfile(
                tuple(
                    TxProfileEntry(tx.hash, rw.freeze(), res.gas_used, res.success)
                    for tx, rw, res in zip(block.transactions, tx_rwsets, tx_results)
                )
            )
            art = BlockArtifacts(executed, config.granularity)
            prep_cost += sum(tx_costs)
        if art is None:
            return malformed("missing block profile")

        # retry backoff delays everything downstream of preparation; a
        # serial-fallback block runs its whole execution on one lane
        prep_cost += ladder.retry_penalty
        result.graph = art.graph
        plan = result.plan = art.plan_for(
            1 if ladder.exhausted else config.lanes,
            config.policy,
            config.seed,
            metrics=metrics,
        )

        # ----- profile verification (Algorithm 2) -------------------------- #
        if profile is not None and config.verify_profile:
            try:
                for index in range(n):
                    self.applier.verify_tx(
                        index, profile.entries[index], tx_rwsets[index], tx_results[index]
                    )
            except ProfileMismatch as exc:
                return rejected(f"profile mismatch: {exc}", exc.failure())

        # ----- block-level checks ------------------------------------------ #
        post_state = finalize_block_state(
            outcome.db,
            coinbase=block.header.coinbase,
            total_fees=sum(tx_result.fee for tx_result in tx_results),
            params=config.params,
        )
        failure = self.applier.verify_block(
            block, post_state, build_receipts(block.transactions, tx_results)
        ).failure
        if failure is not None:
            return rejected(failure.detail, failure)

        # ----- timing simulation ------------------------------------------- #
        phases, stats = self._simulate_timing(
            block, plan, tx_costs, prep_cost, prefetch_cost, ladder
        )

        metrics.counter("validator.blocks_accepted").inc()
        metrics.histogram("validator.prep_us", PHASE_US_EDGES).observe(
            phases.prep_end
        )
        metrics.histogram("validator.exec_us", PHASE_US_EDGES).observe(
            phases.exec_end - phases.prep_end
        )
        metrics.histogram("validator.validate_us", PHASE_US_EDGES).observe(
            phases.validate_end - phases.exec_end
        )
        metrics.histogram("validator.commit_us", PHASE_US_EDGES).observe(
            phases.commit_end - phases.validate_end
        )
        result.accepted = True
        result.post_state = post_state
        result.phases = phases
        result.stats = stats
        result.prep_cost = prep_cost
        result.used_distributed = used_distributed
        return result

    # ------------------------------------------------------------------ #

    def _fault_ladder(self, block: Block) -> FaultLadder:
        """Walk the injected-crash retry ladder for ``block``, once.

        The only place the injector's execution faults are consulted and
        the only place ``worker_fault`` / ``serial_fallback`` instants and
        counters are emitted.  The keyed RNG is call-order-free, so the
        first crash per attempt in block order is what interleaving the
        consults with execution would observe.  Each crashed attempt costs
        ``abort_overhead`` plus an exponential ``retry_backoff``; past
        ``MAX_PARALLEL_RETRIES`` the ladder is exhausted and one further,
        injector-free serial attempt is granted.
        """
        n = len(block.transactions)
        injector = self.injector
        if injector is None or not injector.injects_execution_faults:
            return FaultLadder(0, 0, 0.0, (0.0,) * n)
        model = COST_MODEL
        tracer = self.tracer
        metrics = self.metrics
        attempt = 0
        worker_faults = 0
        retry_penalty = 0.0
        while True:
            stalls: List[float] = []
            crash_tx: Optional[int] = None
            for index in range(n):
                fault = injector.execution_fault(block.hash, attempt, index)
                if fault.crash:
                    crash_tx = index
                    break
                stalls.append(fault.stall_us)
            if crash_tx is None:
                return FaultLadder(
                    attempt, worker_faults, retry_penalty, tuple(stalls),
                    consulted=True,
                )
            worker_faults += 1
            metrics.counter("validator.worker_faults").inc()
            if tracer.enabled:
                tracer.instant(
                    "worker_fault",
                    0.0,
                    block=block.hash.hex()[:8],
                    attempt=attempt,
                    tx=crash_tx,
                    reason="worker_fault",
                )
            retry_penalty += model.abort_overhead + model.retry_backoff * (2**attempt)
            if attempt >= MAX_PARALLEL_RETRIES:
                break
            attempt += 1
        # degrade: one final serial pass, fault hooks disabled
        metrics.counter("validator.serial_fallbacks").inc()
        if tracer.enabled:
            tracer.instant(
                "serial_fallback", 0.0, block=block.hash.hex()[:8], attempts=attempt + 1
            )
        return FaultLadder(
            attempt + 1, worker_faults, retry_penalty, (0.0,) * n,
            exhausted=True, consulted=True,
        )

    def _execute_reference(
        self,
        block: Block,
        parent_state: StateSnapshot,
        ctx: ExecutionContext,
    ) -> ParallelExecOutcome:
        """The block-order serial reference loop.

        Subgraphs are account-disjoint, so block order yields the identical
        state any conflict-respecting parallel interleaving would; this is
        the simulated lanes' execution and the fallback every component
        substrate's anomalies funnel into.
        """
        outcome = ParallelExecOutcome(StateDB(parent_state), [], [])
        for index, tx in enumerate(block.transactions):
            rec = RecordingState(outcome.db)
            try:
                tx_result = self.evm.apply_transaction(rec, tx, ctx)
            except InvalidTransaction as exc:
                outcome.invalid = (index, str(exc))
                break
            outcome.tx_results.append(tx_result)
            outcome.tx_rwsets.append(rec.rw)
        return outcome

    # ------------------------------------------------------------------ #

    def _simulate_timing(
        self, block: Block, plan: SchedulePlan, tx_costs: List[float],
        prep_cost: float, prefetch_cost: float, ladder: FaultLadder,
    ) -> Tuple[PhaseTimes, RunStats]:
        """Derive the four phase-completion times for one standalone block.

        The one walk over the lanes and the applier chain: with a real
        tracer attached it also records the span tree as it goes (a scope
        opens without an end and is closed once the walk knows it).
        """
        model = COST_MODEL
        tracer = self.tracer
        tracing = tracer.enabled
        n = len(tx_costs)
        attrs: Dict[str, Any] = {}
        if tracing:
            attrs = dict(
                block=block.hash.hex()[:8], number=block.number, txs=n,
                lanes=plan.lanes, policy=plan.policy,
            )
            if ladder.exhausted:
                attrs["serial_fallback"] = True
        with tracer.scope("validate_block", 0.0, **attrs) as block_span:
            # preparation phase: prefetch + (depgraph, LPT split evenly —
            # the cost model charges scheduling as one lump) + retry backoff
            with tracer.scope("prepare", 0.0, prep_cost):
                if tracing:
                    if prefetch_cost > 0:
                        tracer.record("prefetch", 0.0, prefetch_cost)
                    cursor = prefetch_cost
                    schedule_cost = model.schedule_per_tx * n
                    middle = cursor + schedule_cost / 2
                    tracer.record("depgraph_build", cursor, middle)
                    cursor += schedule_cost
                    tracer.record("lpt_assign", middle, cursor)
                    if ladder.retry_penalty > 0:
                        tracer.record("retry_backoff", cursor, cursor + ladder.retry_penalty)

            # execution phase: each lane runs its tx sequence after preparation
            exec_end = [0.0] * n
            exec_phase_end = prep_cost
            with tracer.scope("execute", prep_cost) as exec_span:
                for lane_index, lane_sequence in enumerate(plan.lane_txs):
                    t = prep_cost
                    for tx_index in lane_sequence:
                        start, t = t, t + tx_costs[tx_index]
                        exec_end[tx_index] = t
                        if tracing:
                            tracer.record("execute_tx", start, t, lane=lane_index, tx=tx_index)
                    exec_phase_end = max(exec_phase_end, t)
                if tracing:
                    exec_span.end = exec_phase_end

            # validation phase: applier consumes results in block order
            applied = prep_cost
            with tracer.scope("validate", prep_cost) as validate_span:
                for index in range(n):
                    start = max(applied, exec_end[index])
                    applied = start + model.applier_per_tx
                    if tracing:
                        tracer.record("apply_tx", start, applied, tx=index)
                validate_end = applied + model.block_epilogue
                commit_end = validate_end + model.block_commit
                if tracing:
                    tracer.record("block_epilogue", applied, validate_end)
                    validate_span.end, block_span.end = validate_end, commit_end
            tracer.record("commit", validate_end, commit_end)

        stats = RunStats(
            makespan=commit_end, total_work=sum(tx_costs), lanes=plan.lanes, tasks=n,
            worker_faults=ladder.worker_faults, exec_retries=ladder.attempt,
            serial_fallbacks=1 if ladder.exhausted else 0,
        )
        return PhaseTimes(prep_cost, exec_phase_end, validate_end, commit_end), stats

