"""Component-parallel block validation: one plan shape, one merge.

The validator's dependency graph (§4.3) partitions a block into
account-disjoint connected components; inside a component transactions
run serially in block order, across components nothing is shared.  That
makes each component an independently submittable unit: executing every
component against an isolated view of the parent state and merging the
(disjoint) write overlays reproduces exactly the state of the block-order
serial loop — the commit order is enforced at the merge step in the
parent, not by whoever ran the components.

Every executor consumes the same artifact
(:class:`~repro.core.artifacts.BlockArtifacts` →
:class:`~repro.exec.tasks.ComponentTask`) and hands back
:class:`~repro.exec.tasks.ComponentOutcome`s; :func:`merge_components`
is the only place they become a :class:`ParallelExecOutcome`, whether
they ran on backend workers (:func:`execute_block_parallel`) or on
follower nodes (:mod:`repro.distributed.coordinator`).

The partition comes from the **block profile**, which a byzantine
proposer can fake.  Every component view is therefore guarded: a read or
write outside the component's profile-derived account footprint raises
:class:`~repro.exec.tasks.FootprintMiss`, the parallel attempt is
discarded, and the caller falls back to the authoritative serial
reference loop (same funnel as ``InvalidTransaction``) — which is what
keeps every substrate byte-identical on every input, honest or hostile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.chain.block import Block
from repro.evm.interpreter import ExecutionContext, TxResult
from repro.state.access import ReadWriteSet
from repro.state.statedb import StateDB, StateSnapshot

from repro.exec.backend import BackendError, ExecutionBackend
from repro.exec.hooks import apply_order
from repro.exec.tasks import (
    ComponentOutcome,
    ValidateShared,
    apply_overlay,
    build_component_tasks,
    run_validate_lane,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.artifacts import BlockArtifacts
    from repro.core.validator import ParallelValidator

__all__ = [
    "ParallelExecOutcome",
    "merge_components",
    "execute_block_parallel",
]


@dataclass
class ParallelExecOutcome:
    """What executing one block's transactions produced, on any substrate.

    The serial reference loop, the backend workers and the follower pool
    all return this; ``validate_block``'s downstream phases (storage
    model, Algorithm 2, state root, timing simulation) consume it
    unchanged.
    """

    db: StateDB
    tx_results: List[TxResult]
    tx_rwsets: List[ReadWriteSet]
    #: ``(tx_index, detail)`` when the reference loop stopped at an invalid
    #: transaction — the lists then hold the partial prefix before it
    invalid: Optional[Tuple[int, str]] = None


def merge_components(
    parent_state: StateSnapshot,
    components: Tuple[Tuple[int, ...], ...],
    outcomes: Iterable[ComponentOutcome],
) -> ParallelExecOutcome:
    """Rebuild the block-order execution outcome from component outcomes.

    Commit order is enforced here, in the parent: overlays are applied in
    ascending component index (components are account-disjoint, so this
    reproduces block-order serial state bit for bit, whoever executed
    them and in whatever order), and results are re-indexed to block order.
    """
    by_component = {outcome.component: outcome for outcome in outcomes}
    db = StateDB(parent_state)
    by_index: Dict[int, Tuple[TxResult, ReadWriteSet]] = {}
    for comp_index, tx_indices in enumerate(components):
        outcome = by_component[comp_index]
        apply_overlay(db, outcome.overlay)
        for position, tx_index in enumerate(tx_indices):
            by_index[tx_index] = (outcome.results[position], outcome.rwsets[position])
    n = len(by_index)
    return ParallelExecOutcome(
        db=db,
        tx_results=[by_index[i][0] for i in range(n)],
        tx_rwsets=[by_index[i][1] for i in range(n)],
    )


def execute_block_parallel(
    validator: "ParallelValidator",
    block: Block,
    parent_state: StateSnapshot,
    ctx: ExecutionContext,
    backend: ExecutionBackend,
    art: "BlockArtifacts",
) -> Optional[ParallelExecOutcome]:
    """Execute one block's components on ``backend``'s workers.

    Returns ``None`` when a component reports an anomaly (lying profile,
    invalid transaction) or the backend loses a worker: the caller then
    runs the reference loop, whose decisions are deterministic, so every
    substrate converges on the identical result.
    """
    graph = art.graph
    plan = art.plan_for(
        max(1, backend.workers), validator.config.policy, validator.config.seed
    )

    check_log = validator.check_log
    lane_payloads = [
        build_component_tasks(
            block,
            ctx,
            art,
            lane_components,
            # race-detector mode: enumerate every out-of-footprint access
            # instead of stopping at the first miss
            record_misses=check_log is not None,
        )
        for lane_components in plan.lane_components
        if lane_components
    ]

    # conformance yield points: lane submission order and per-lane component
    # order model the pool handing tasks to differently-loaded workers.
    # Components are account-disjoint and the merge walks component indices,
    # so any permutation here must reproduce the identical state — the
    # property the fuzzer (repro.check.fuzzer) exercises.
    probe = validator.probe
    if probe is not None:
        lane_order = apply_order(probe.lane_order(len(lane_payloads)), len(lane_payloads))
        if lane_order is not None:
            lane_payloads = [lane_payloads[i] for i in lane_order]
        for lane_index, lane_tasks in enumerate(lane_payloads):
            comp_order = apply_order(
                probe.component_order(lane_index, len(lane_tasks)), len(lane_tasks)
            )
            if comp_order is not None:
                lane_payloads[lane_index] = tuple(lane_tasks[i] for i in comp_order)

    stats0 = backend.stats.copy()
    wall0 = time.perf_counter()
    try:
        # the parent state rides on the shared object: in-memory workers read it
        # in place, process workers hold it by root (and were sent its delta)
        backend.open(ValidateShared(parent_state))
        lane_outcomes = backend.map(run_validate_lane, lane_payloads)
    except BackendError:
        # a lost or wedged worker is a substrate anomaly like any other
        validator.metrics.counter("validator.backend_worker_lost").inc()
        return None
    finally:
        backend.publish(validator.metrics, stats0)
    wall_us = (time.perf_counter() - wall0) * 1e6

    anomalous = False
    for lane_result in lane_outcomes:
        for outcome in lane_result:
            if outcome.misses and check_log is not None:
                # typed findings: which component, which txs, which account
                # escaped the declared footprint (local import — repro.check
                # re-enters the core pipeline, so top-level would cycle)
                from repro.check.report import FootprintViolation

                for address in outcome.misses:
                    check_log.record_footprint(
                        FootprintViolation(
                            block=block.hash.hex()[:8],
                            component=outcome.component,
                            tx_indices=tuple(graph.components[outcome.component]),
                            address=address,
                            declared=len(
                                art.component_footprints()[outcome.component]
                            ),
                        )
                    )
                validator.metrics.counter("check.footprint_violations").inc(
                    len(outcome.misses)
                )
            if outcome.anomaly is not None:
                # lying profile (footprint miss) or an invalid transaction:
                # discard the attempt, let the serial reference loop decide
                validator.metrics.counter(
                    f"validator.backend_{outcome.anomaly[0]}"
                ).inc()
                if check_log is None:
                    return None
                # with a check log attached every lane is drained first so
                # the violation report is complete; the decision is unchanged
                anomalous = True
    if anomalous:
        return None

    merged = merge_components(
        parent_state,
        graph.components,
        (outcome for lane_result in lane_outcomes for outcome in lane_result),
    )

    tracer = validator.tracer
    if tracer.enabled:
        with tracer.scope(
            "backend_execute",
            0.0,
            wall_us,
            block=block.hash.hex()[:8],
            backend=backend.name,
            workers=backend.workers,
            components=len(graph.components),
        ):
            for lane_index, lane_result in enumerate(lane_outcomes):
                cursor = 0.0
                for outcome in lane_result:
                    tracer.record(
                        "exec_component",
                        cursor,
                        cursor + outcome.elapsed_us,
                        lane=lane_index,
                        component=outcome.component,
                        txs=len(outcome.results),
                    )
                    cursor += outcome.elapsed_us
    validator.metrics.counter("validator.backend_blocks").inc()
    validator.metrics.counter("validator.backend_components").inc(
        len(graph.components)
    )
    validator.metrics.gauge("validator.backend_wall_us").set(wall_us)
    return merged
