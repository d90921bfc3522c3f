"""Master-side shard coordination for distributed block validation.

DiPETrans' master/follower loop over the repro fabric: the master
shards a received block's dependency-graph components by the gas-weighted
LPT plan backend workers run (one non-empty lane of
``plan_for(n_followers)`` per shard), ships each to a
follower (:mod:`repro.network.shardrpc`), verifies and aggregates the
replies into exactly what single-node validation would have produced, and
owns every failure mode:

* **Crash** — no reply; the shard is re-assigned to the next live
  follower.
* **Straggler** — a verified reply past the deadline (``max(MIN_DEADLINE_US,
  STRAGGLER_FACTOR × median round latency)``) is treated as lost and the
  shard re-assigned.
* **Byzantine reply** — every reply is structurally checked (component
  set, result counts, overlay ⊆ footprint) and cross-checked per
  transaction against the block profile (Algorithm 2).  A tampered reply
  is discarded and the shard re-assigned.

A shard still unresolved after ``MAX_REASSIGNMENTS`` re-assignments makes
:meth:`ShardCoordinator.execute` return ``None``, with the dominant fault
kind (``byzantine``, then ``crash``, then ``straggler``) in
:attr:`DistributedRecord.fallback`; the validator then re-executes the
block locally, so follower faults cost throughput, never correctness —
and a lying follower can never get an honest proposer quarantined.  The
coordinator also *declines* — ``None``, ``fallback="undistributable"`` —
a block whose shard could not execute cleanly (lying profile, invalid
transaction): that is the block's fault, and the local reference path
classifies it.  Whether a block is handed over at all is the validator's
gate, not the coordinator's (it needs a plannable profile, account
granularity, and no local execution-fault injection, whose retry
semantics the in-node paths own); the coordinator receives the block's
:class:`~repro.core.artifacts.BlockArtifacts` ready-made.

Followers run the same :class:`~repro.exec.tasks.ComponentTask`s backend
workers do, and replies are merged by the same
:func:`repro.exec.validating.merge_components` — the distributed state
root is *identical by construction*.

Timing runs on the simulated clock: dispatch/ship/execute/reply times are
derived from the :class:`~repro.simcore.costmodel.CostModel`'s shard
fields plus per-transaction trace costs, giving a deterministic makespan
(`DistributedRecord.makespan_us`) that the scaling bench gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.core.applier import ProfileMismatch
from repro.core.artifacts import BlockArtifacts
from repro.core.validator import ParallelValidator
from repro.evm.interpreter import ExecutionContext
from repro.exec.tasks import build_component_tasks
from repro.exec.validating import ParallelExecOutcome, merge_components
from repro.faults.injector import FaultInjector
from repro.network.shardrpc import FollowerNode, ShardAssignment, ShardReply
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.simcore.costmodel import COST_MODEL
from repro.state.statedb import StateSnapshot

__all__ = [
    "ShardAttempt",
    "DistributedRecord",
    "ShardCoordinator",
]


#: a round's deadline is max(MIN_DEADLINE_US, STRAGGLER_FACTOR × median
#: latency); replies past it are stragglers
STRAGGLER_FACTOR = 3.0
#: deadline floor, µs past the dispatch round's start — keeps tiny
#: blocks from declaring every follower a straggler
MIN_DEADLINE_US = 4000.0
#: how many times a failed shard is re-assigned before the block falls
#: back to local re-execution
MAX_REASSIGNMENTS = 2


@dataclass(frozen=True)
class ShardAttempt:
    """One dispatch of one shard to one follower, and what came back."""

    shard_id: int
    attempt: int
    follower: str
    dispatch_us: float
    #: simulated arrival of the reply at the master; None for a crash
    reply_at_us: Optional[float]
    #: "ok" | "crash" | "byzantine" | "straggler"
    status: str


@dataclass
class DistributedRecord:
    """Everything one distributed validation did (observability + bench)."""

    block_hash_hex: str
    n_txs: int
    n_shards: int
    n_followers: int
    shard_gas: Tuple[int, ...]
    attempts: List[ShardAttempt] = field(default_factory=list)
    makespan_us: float = 0.0
    reassignments: int = 0
    follower_faults: int = 0
    #: set when the block fell back to local re-execution: the dominant
    #: follower fault kind (``"byzantine"`` | ``"crash"`` |
    #: ``"straggler"``), or ``"undistributable"`` for a declined block
    fallback: Optional[str] = None


class ShardCoordinator:
    """Master role: shard, ship, verify, aggregate, re-assign, degrade.

    Plugs into :class:`~repro.core.validator.ParallelValidator` as its
    ``distributor`` (the :class:`~repro.core.validator.Distributor`
    protocol).  Its follower nodes are built once, here; they run the same
    lane task body as the master's backend workers.
    """

    def __init__(
        self,
        n_followers: int,
        *,
        master_id: str = "master",
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_followers < 1:
            raise ValueError(f"n_followers must be >= 1, got {n_followers}")
        self.n_followers = n_followers
        self.metrics = metrics or NULL_METRICS
        self.tracer = (
            tracer.for_process(f"{master_id}/dist")
            if tracer is not None
            else NULL_TRACER
        )
        self.followers = [
            FollowerNode(
                f"{master_id}/follower-{i}",
                injector=injector,
                tracer=tracer,
                metrics=self.metrics,
            )
            for i in range(n_followers)
        ]
        #: record of the most recent distributed validation
        self.last_record: Optional[DistributedRecord] = None

    # ------------------------------------------------------------------ #

    def execute(
        self,
        validator: ParallelValidator,
        block: Block,
        parent_state: StateSnapshot,
        ctx: ExecutionContext,
        art: BlockArtifacts,
    ) -> Optional[ParallelExecOutcome]:
        """Validate ``block``'s execution across the follower pool (the
        :class:`~repro.core.validator.Distributor` contract)."""
        n_followers = self.n_followers
        model = COST_MODEL
        n = len(block.transactions)
        # one shard per non-empty lane of the plan backend workers run
        component_gas = art.component_gas()
        shards = [
            tuple(sorted(lane))
            for lane in art.plan_for(n_followers, "gas_lpt", 0).lane_components
            if lane
        ]
        shard_gas = tuple(sum(component_gas[c] for c in shard) for shard in shards)
        followers = self.followers

        record = DistributedRecord(
            block_hash_hex=block.hash.hex(),
            n_txs=n,
            n_shards=len(shards),
            n_followers=n_followers,
            shard_gas=shard_gas,
        )
        self.last_record = record

        # shipped tasks carry state slices, never the master's snapshot
        shard_works = [
            build_component_tasks(block, ctx, art, comps, slice_from=parent_state)
            for comps in shards
        ]
        shard_txs = [sum(len(w.tx_indices) for w in works) for works in shard_works]

        # ---- simulated dispatch/reply timeline --------------------------- #
        t0 = model.schedule_per_tx * n  # partition happens in the prep phase
        busy = [t0] * n_followers
        dead: set = set()
        assigned = {sid: sid % n_followers for sid in range(len(shards))}
        pending = list(range(len(shards)))
        resolved: Dict[int, ShardReply] = {}
        reply_at_of: Dict[int, float] = {}
        fail_kind: Dict[int, str] = {}

        self.metrics.counter("dist.blocks").inc()

        round_dispatch: Dict[int, float] = {}

        def note(sid: int, attempt: int, reply_at: Optional[float], status: str) -> None:
            record.attempts.append(
                ShardAttempt(
                    sid, attempt, followers[assigned[sid]].follower_id,
                    round_dispatch[sid], reply_at, status,
                )
            )

        for attempt in range(MAX_REASSIGNMENTS + 1):
            if not pending:
                break
            round_ok: Dict[int, Tuple[float, ShardReply]] = {}
            for sid in list(pending):
                f = assigned[sid]
                follower = followers[f]
                assignment = ShardAssignment(
                    block_hash=block.hash,
                    shard_id=sid,
                    attempt=attempt,
                    works=shard_works[sid],
                )
                dispatch = max(busy[f], t0)
                round_dispatch[sid] = dispatch
                ship = model.shard_ship_us + model.shard_ship_per_tx * shard_txs[sid]
                self.metrics.counter("dist.shards_shipped").inc()
                reply = follower.handle(assignment)
                if reply is None:
                    # crash: the follower is gone for this block
                    dead.add(f)
                    busy[f] = float("inf")
                    fail_kind[sid] = "crash"
                    record.follower_faults += 1
                    note(sid, attempt, None, "crash")
                    continue
                self.metrics.counter("dist.replies").inc()
                verdict = self._verify_reply(
                    validator, block, art, shards[sid], reply
                )
                if verdict == "anomaly":
                    # the shard itself could not execute cleanly (lying
                    # profile, invalid tx): not a follower fault — decline
                    # and let the local reference path classify the block
                    record.fallback = "undistributable"
                    self.metrics.counter("dist.declined").inc()
                    return None
                exec_us = sum(
                    model.tx_cost(result.trace)
                    for outcome in reply.outcomes
                    for result in outcome.results
                )
                finish = dispatch + ship + exec_us + reply.stall_us
                busy[f] = finish
                reply_at = (
                    finish
                    + model.shard_reply_us
                    + model.shard_reply_per_tx * shard_txs[sid]
                )
                if verdict == "byzantine":
                    fail_kind[sid] = "byzantine"
                    record.follower_faults += 1
                    note(sid, attempt, reply_at, "byzantine")
                    continue
                round_ok[sid] = (reply_at, reply)

            # straggler deadline over this round's verified replies
            if round_ok:
                latencies = sorted(at - t0 for at, _ in round_ok.values())
                median = latencies[len(latencies) // 2]
                deadline_at = t0 + max(MIN_DEADLINE_US, STRAGGLER_FACTOR * median)
            else:
                deadline_at = t0 + MIN_DEADLINE_US

            for sid, (reply_at, reply) in round_ok.items():
                follower_id = followers[assigned[sid]].follower_id
                if reply_at > deadline_at:
                    # verified but late: treat as lost and race a
                    # re-assignment; out of budget, the deadline stands
                    fail_kind[sid] = "straggler"
                    note(sid, attempt, reply_at, "straggler")
                    continue
                resolved[sid] = reply
                reply_at_of[sid] = reply_at
                pending.remove(sid)
                fail_kind.pop(sid, None)
                note(sid, attempt, reply_at, "ok")
                if self.tracer.enabled:
                    self.tracer.record(
                        "dist.shard",
                        round_dispatch[sid],
                        reply_at,
                        shard=sid,
                        follower=follower_id,
                        attempt=attempt,
                        txs=shard_txs[sid],
                        gas=shard_gas[sid],
                    )

            # re-assign whatever failed this round to the next live follower
            if pending and attempt < MAX_REASSIGNMENTS:
                pool_exhausted = False
                for sid in pending:
                    new_f = self._next_live(assigned[sid], dead)
                    if new_f is None:
                        pool_exhausted = True
                        break
                    assigned[sid] = new_f
                    record.reassignments += 1
                    self.metrics.counter("dist.reassignments").inc()
                if pool_exhausted:
                    break  # every follower crashed: exhaustion below

        if pending:
            # the dominant unresolved fault: the validator re-executes locally
            kinds = [fail_kind[sid] for sid in pending]
            kind = next(k for k in ("byzantine", "crash", "straggler") if k in kinds)
            record.fallback = kind
            self.metrics.counter("dist.fallbacks").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "dist.fallback",
                    0.0,
                    block=block.hash.hex()[:8],
                    reason=kind,
                    shard=pending[kinds.index(kind)],
                )
            return None

        # ---- aggregate: merge per-shard outcomes in component order ------ #
        outcome = merge_components(
            parent_state,
            art.graph.components,
            (o for reply in resolved.values() for o in reply.outcomes),
        )
        record.makespan_us = (
            max(reply_at_of.values()) + model.dist_merge_per_tx * n
        )
        self.metrics.gauge("dist.makespan_us").set(record.makespan_us)
        self.metrics.counter("dist.blocks_distributed").inc()
        return outcome

    # ------------------------------------------------------------------ #

    def _next_live(self, current: int, dead: set) -> Optional[int]:
        """Round-robin to the next non-crashed follower (None if none).

        May return ``current`` itself when it is the only live follower —
        the attempt counter still advances, so the re-dispatch rolls fresh
        faults.
        """
        n = self.n_followers
        for step in range(1, n + 1):
            candidate = (current + step) % n
            if candidate not in dead:
                return candidate
        return None

    def _verify_reply(
        self,
        validator: ParallelValidator,
        block: Block,
        art: BlockArtifacts,
        expected_components: Tuple[int, ...],
        reply: ShardReply,
    ) -> str:
        """Classify one reply: ``"ok"`` | ``"byzantine"`` | ``"anomaly"``.

        Structural checks catch replies that do not even match the
        assignment; the per-transaction profile cross-check (Algorithm 2,
        the same one that catches lying proposers) catches tampered
        results.  An execution *anomaly* (invalid tx / footprint miss) is
        the block's fault, not the follower's.
        """
        got = {o.component for o in reply.outcomes}
        if got != set(expected_components):
            return "byzantine"
        profile = block.profile
        assert profile is not None  # the artifacts were planned from it
        for outcome in reply.outcomes:
            if outcome.anomaly is not None:
                return "anomaly"
            tx_indices = art.graph.components[outcome.component]
            if len(outcome.results) != len(tx_indices) or len(
                outcome.rwsets
            ) != len(tx_indices):
                return "byzantine"
            footprint = art.component_footprints()[outcome.component]
            if not set(outcome.overlay) <= set(footprint):
                return "byzantine"
            for position, tx_index in enumerate(tx_indices):
                try:
                    validator.applier.verify_tx(
                        tx_index,
                        profile.entries[tx_index],
                        outcome.rwsets[position],
                        outcome.results[position],
                    )
                except ProfileMismatch:
                    return "byzantine"
        return "ok"
