"""The validator pipeline: processing multiple blocks concurrently (§4.3).

Validators receive more blocks than proposers produce (forks, §3.4), so
BlockPilot overlaps the four phases across blocks:

* **Same-height blocks** (fork siblings) share nothing but the parent
  state and overlap fully: "free workers will execute transactions
  regardless of the block information" — one shared worker pool serves
  every in-flight block.
* **Different heights** serialise at the validation phase: "block N'+1
  cannot overlap with the previous block N' in the block validation
  phase" (Figure 5).  Execution of a child may begin once the parent's
  execution phase has produced its post-state.

Costs that shape Fig. 9: the worker pool has a fixed lane count, and a
lane switching to a different block's context pays ``context_switch``
("workers to shift between different contexts to handle distinct blocks
and send out relevant information", §5.6) — with many concurrent blocks
the pool saturates and switch overhead erodes the gain, producing the
peak-at-4-blocks shape.

Correctness remains real: each block is fully re-executed and verified by
the :class:`~repro.core.validator.ParallelValidator`; the pipeline only
composes the *timing* of those runs over shared resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.common.hashing import Hash32
from repro.core.validator import (
    Distributor,
    ParallelValidator,
    ValidationResult,
    ValidatorConfig,
)
from repro.evm.interpreter import ExecutionContext
from repro.exec.backend import ExecutionBackend
from repro.faults.errors import FailureReason, ValidationFailure
from repro.faults.injector import FaultInjector
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.simcore.costmodel import COST_MODEL
from repro.simcore.lanes import LaneGroup
from repro.simcore.stats import RunStats
from repro.state.statedb import StateSnapshot

__all__ = ["BlockTiming", "PipelineResult", "ValidatorPipeline"]


@dataclass
class BlockTiming:
    """Simulated phase completion times for one block in the pipeline."""

    index: int
    arrival: float
    prep_end: float
    exec_end: float
    validate_end: float
    commit_end: float
    accepted: bool


@dataclass
class PipelineResult:
    """Outcome of one pipeline run over a batch of blocks."""

    results: List[ValidationResult]
    timings: List[BlockTiming]
    makespan: float
    serial_time: float
    context_switches: int
    stats: RunStats

    @property
    def speedup(self) -> float:
        """Pipeline speedup over serially processing the whole batch."""
        return self.serial_time / self.makespan if self.makespan > 0 else 1.0

    @property
    def all_accepted(self) -> bool:
        return all(t.accepted for t in self.timings)

    @property
    def failures(self) -> List[Optional[ValidationFailure]]:
        """Per-block typed failures (None for accepted blocks)."""
        return [r.failure for r in self.results]


class ValidatorPipeline:
    """Multi-block concurrent validation over a shared worker pool.

    ``config`` is the per-block validator's; its ``lanes`` is the width of
    the pool every in-flight block shares.  Every fork sibling is validated
    in full: uncle bookkeeping needs them.  A ``tracer`` records
    each scheduled subgraph as a span on its pool lane, which
    :func:`repro.obs.export.render_timeline` paints as a Gantt view.
    """

    def __init__(
        self,
        config: Optional[ValidatorConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[ExecutionBackend] = None,
        distributor: Optional[Distributor] = None,
    ) -> None:
        self.config = config or ValidatorConfig()
        #: Pipeline spans live on the *global* pipeline clock; the inner
        #: per-block validator keeps its own standalone clock, so it gets
        #: the metrics registry (counters accumulate) but not the tracer.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        self._validator = ParallelValidator(
            config=self.config,
            injector=injector,
            metrics=metrics,
            backend=backend,
            distributor=distributor,
        )

    def close(self) -> None:
        """A no-op: the pipeline holds nothing between batches, and a
        service closes it like every other role it owns."""

    # ------------------------------------------------------------------ #

    def process_blocks(
        self,
        blocks: Sequence[Block],
        parent_states: Mapping[Hash32, StateSnapshot],
        ctx: Optional[ExecutionContext] = None,
        arrivals: Optional[Sequence[float]] = None,
    ) -> PipelineResult:
        """Validate a batch of blocks through the pipeline.

        ``parent_states`` supplies the post-state of every parent that is
        *outside* the batch (keyed by block hash); parents inside the batch
        are resolved from their own validation.  ``arrivals`` gives each
        block's network arrival time (default: all at time zero — the
        same-height burst of Fig. 9).
        """
        n = len(blocks)
        if arrivals is None:
            arrivals = [0.0] * n
        if len(arrivals) != n:
            raise ValueError("arrivals must align with blocks")

        # resolve each block's parent: either an in-batch index or a snapshot
        hash_to_index: Dict[bytes, int] = {}
        for i, block in enumerate(blocks):
            hash_to_index.setdefault(block.hash, i)

        parent_index: List[Optional[int]] = []
        for block in blocks:
            parent_index.append(hash_to_index.get(block.header.parent_hash))

        # topological execution order (parents before children); arrival
        # order breaks ties so the schedule is deterministic
        order = self._topo_order(parent_index, arrivals)

        # ---- real validation, in dependency order ----------------------- #
        # a parent comes before its children in ``order``, so its verdict is
        # in ``by_index`` by the time a child looks it up
        by_index: Dict[int, ValidationResult] = {}
        for i in order:
            block = blocks[i]
            p = parent_index[i]
            if p is not None:
                parent_result = by_index[p]
                if not parent_result.accepted:
                    by_index[i] = _rejected_for_parent(block)
                    continue
                parent_state = parent_result.post_state
                assert parent_state is not None  # accepted results carry it
            else:
                parent_state = parent_states.get(block.header.parent_hash)
                if parent_state is None:
                    by_index[i] = _rejected_unknown_parent(block)
                    continue
            by_index[i] = self._validator.validate_block(
                block, parent_state, ctx  # ctx=None derives from each header
            )
        results = [by_index[i] for i in range(n)]

        # ---- timing simulation over the shared worker pool ---------------- #
        timings, switches, pool = self._simulate(
            blocks, results, parent_index, arrivals, order
        )

        makespan = max((t.commit_end for t in timings), default=0.0)
        serial_time = sum(r.serial_time for r in results)
        total_work = sum(sum(r.tx_costs) for r in results)
        stats = RunStats(
            makespan=makespan,
            total_work=total_work,
            lanes=self.config.lanes,
            tasks=sum(len(r.tx_costs) for r in results),
            context_switches=switches,
        )
        for r in results:
            stats.worker_faults += r.worker_faults
            stats.exec_retries += r.exec_attempts - 1
            stats.serial_fallbacks += r.used_serial_fallback
            if r.failure is not None:
                stats.count_failure(r.failure.reason)
        metrics = self.metrics
        metrics.counter("pipeline.blocks").inc(n)
        metrics.counter("pipeline.blocks_rejected").inc(
            sum(1 for t in timings if not t.accepted)
        )
        metrics.counter("pipeline.context_switches").inc(switches)
        # accepted blocks, serial fallbacks and worker faults are counted by
        # the validator itself (validator.*); retries only here
        metrics.counter("pipeline.exec_retries").inc(stats.exec_retries)
        metrics.gauge("pipeline.makespan_us").set(makespan)
        metrics.gauge("pipeline.pool_utilization").set(pool.utilization())
        return PipelineResult(
            results=results,
            timings=timings,
            makespan=makespan,
            serial_time=serial_time,
            context_switches=switches,
            stats=stats,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _topo_order(
        parent_index: List[Optional[int]], arrivals: Sequence[float]
    ) -> List[int]:
        n = len(parent_index)
        indegree = [0] * n
        children: Dict[int, List[int]] = {}
        for i, p in enumerate(parent_index):
            if p is not None:
                indegree[i] += 1
                children.setdefault(p, []).append(i)
        ready = sorted(
            (i for i in range(n) if indegree[i] == 0),
            key=lambda i: (arrivals[i], i),
        )
        order: List[int] = []
        while ready:
            i = ready.pop(0)
            order.append(i)
            for c in children.get(i, []):
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
            ready.sort(key=lambda j: (arrivals[j], j))
        if len(order) != n:
            raise ValueError("parent links form a cycle")
        return order

    def _simulate(
        self,
        blocks: Sequence[Block],
        results: List[ValidationResult],
        parent_index: List[Optional[int]],
        arrivals: Sequence[float],
        order: List[int],
    ) -> Tuple[List[BlockTiming], int, LaneGroup]:
        model = COST_MODEL
        tracer = self.tracer
        trace_on = tracer.enabled
        pool = LaneGroup(self.config.lanes, tracer=tracer if trace_on else None)
        # a parent comes before its children in ``order``, so its timing is
        # in ``by_index`` by the time a child looks it up
        by_index: Dict[int, BlockTiming] = {}

        for i in order:
            result = results[i]
            block = blocks[i]
            p = parent_index[i]
            parent_timing = by_index[p] if p is not None else None

            if result.plan is None:
                # rejected before scheduling: charge only the arrival
                t = arrivals[i]
                if trace_on:
                    assert result.failure is not None  # every rejection is typed
                    tracer.instant(
                        "validation_failure",
                        t,
                        block=block.hash.hex()[:8],
                        number=block.header.number,
                        reason=result.failure.reason.value,
                        detail=result.reason or "",
                    )
                by_index[i] = BlockTiming(i, arrivals[i], t, t, t, t, accepted=False)
                continue

            # execution may begin once the parent's execution produced its
            # post-state (Figure 5: exec of N'+1 overlaps validation of N')
            ready = arrivals[i]
            if parent_timing is not None:
                ready = max(ready, parent_timing.exec_end)

            prep_end = ready + result.prep_cost

            # communication overhead: every result shipped to this block's
            # applier competes with other in-flight blocks' traffic
            inflight = sum(
                1 for t in by_index.values() if t.accepted and t.exec_end > ready
            )
            ship = model.result_ship_per_tx * inflight

            block_scope = (
                tracer.scope(
                    "block",
                    arrivals[i],
                    block=block.hash.hex()[:8],
                    number=block.header.number,
                    txs=len(result.tx_costs),
                    accepted=result.accepted,
                )
                if trace_on
                else None
            )
            if block_scope is not None:
                block_scope.__enter__()
                tracer.record("prepare", ready, prep_end)

            # schedule this block's subgraphs onto the shared pool; heaviest
            # first (the validator's LPT plan order), lanes chosen globally
            tx_costs = result.tx_costs
            graph = result.graph
            exec_end: Dict[int, float] = {}
            block_exec_end = prep_end
            plan_order = [
                comp
                for lane_comps in result.plan.lane_components
                for comp in lane_comps
            ]
            # re-derive the LPT order across the *shared* pool: heaviest
            # component first, deterministic tie-break
            plan_order = sorted(
                set(plan_order),
                key=lambda c: (-graph.component_gas(c), c),
            )
            for comp in plan_order:
                tx_indices = graph.components[comp]
                duration = sum(tx_costs[t] + ship for t in tx_indices)
                lane, start, end = pool.run_on_earliest(
                    duration,
                    not_before=prep_end,
                    context=i,
                    switch_penalty=model.context_switch,
                    tag=(i, comp),
                )
                cursor = start
                for t in tx_indices:
                    cursor += tx_costs[t] + ship
                    exec_end[t] = cursor
                block_exec_end = max(block_exec_end, end)

            # applier chain in block order; validation gate on the parent
            gate = prep_end
            if parent_timing is not None:
                gate = max(gate, parent_timing.validate_end)
            applied = gate
            for t in range(len(tx_costs)):
                applied = max(applied, exec_end.get(t, prep_end)) + model.applier_per_tx
            validate_end = applied + model.block_epilogue

            commit_gate = validate_end
            if parent_timing is not None:
                commit_gate = max(commit_gate, parent_timing.commit_end)
            commit_end = commit_gate + model.block_commit

            if block_scope is not None:
                tracer.record("validate", gate, validate_end)
                tracer.record("commit", commit_gate, commit_end)
                if result.used_serial_fallback:
                    tracer.instant(
                        "serial_fallback", prep_end, block=block.hash.hex()[:8]
                    )
                if result.failure is not None:
                    # scheduled but rejected (e.g. a lying profile caught by
                    # Algorithm 2): surface the typed reason in the trace
                    tracer.instant(
                        "validation_failure",
                        validate_end,
                        block=block.hash.hex()[:8],
                        number=block.header.number,
                        reason=result.failure.reason.value,
                        detail=result.reason or "",
                    )
                block_scope.span.end = commit_end
                block_scope.__exit__(None, None, None)

            by_index[i] = BlockTiming(
                index=i,
                arrival=arrivals[i],
                prep_end=prep_end,
                exec_end=block_exec_end,
                validate_end=validate_end,
                commit_end=commit_end,
                accepted=result.accepted,
            )

        timings = [by_index[i] for i in range(len(blocks))]
        return timings, pool.total_context_switches, pool


def _skipped(block: Block, reason: str, code: FailureReason) -> ValidationResult:
    return ValidationResult(
        accepted=False,
        reason=reason,
        failure=ValidationFailure(code, detail=reason),
    )


def _rejected_for_parent(block: Block) -> ValidationResult:
    return _skipped(block, "parent block rejected", FailureReason.PARENT_REJECTED)


def _rejected_unknown_parent(block: Block) -> ValidationResult:
    return _skipped(block, "unknown parent state", FailureReason.UNKNOWN_PARENT)
