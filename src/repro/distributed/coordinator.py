"""Master-side shard coordination for distributed block validation.

DiPETrans' master/follower loop over the repro fabric: the master
shards a received block's dependency-graph components by the gas-weighted
LPT plan backend workers run (one non-empty lane of
``plan_for(n_followers)`` per shard), ships each to a
follower (:mod:`repro.network.shardrpc`), verifies and aggregates the
replies into exactly what single-node validation would have produced, and
owns every failure mode:

* **Crash** — no reply; the shard is re-assigned to the next live
  follower.  Exhausting re-assignments maps to ``WORKER_FAULT``.
* **Straggler** — a verified reply past the deadline (``max(min_deadline,
  straggler_factor × median round latency)``) is treated as lost and the
  shard re-assigned; exhaustion maps to ``TIMEOUT``.
* **Byzantine reply** — every reply is structurally checked (component
  set, result counts, overlay ⊆ footprint) and cross-checked per
  transaction against the block profile (Algorithm 2).  A tampered reply
  is discarded and the shard re-assigned; exhaustion maps to
  ``WORKER_FAULT`` with a byzantine detail.  Deliberately *not* a
  ``BYZANTINE_REASONS`` member: those quarantine the block's *proposer*,
  and a lying follower must not get an honest proposer quarantined.

Failures surface as ``(None, ValidationFailure)`` from
:meth:`ShardCoordinator.execute`; the validator then falls back to local
re-execution (serial fallback), so follower faults cost throughput, never
correctness.  The coordinator also *declines* — ``(None, None)`` — a
block whose shard could not execute cleanly (lying profile, invalid
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
from repro.faults.errors import FailureReason, ValidationFailure
from repro.faults.injector import FaultInjector
from repro.network.shardrpc import FollowerNode, ShardAssignment, ShardReply
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.state.statedb import StateSnapshot

__all__ = [
    "DistributedConfig",
    "ShardAttempt",
    "DistributedRecord",
    "ShardCoordinator",
]


@dataclass(frozen=True)
class DistributedConfig:
    """Coordinator knobs."""

    n_followers: int = 4
    #: how many times a failed shard is re-assigned before giving up
    max_reassignments: int = 2
    #: deadline = max(min_deadline_us, straggler_factor × median latency)
    straggler_factor: float = 3.0
    #: deadline floor, µs past the dispatch round's start — keeps tiny
    #: blocks from declaring every follower a straggler
    min_deadline_us: float = 4000.0


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
    #: set when distribution failed and the block fell back to local
    #: re-execution: the typed reason's value
    fallback: Optional[str] = None


class ShardCoordinator:
    """Master role: shard, ship, verify, aggregate, re-assign, degrade.

    Plugs into :class:`~repro.core.validator.ParallelValidator` as its
    ``distributor`` (the :class:`~repro.core.validator.Distributor`
    protocol).  Follower nodes are built lazily from the validator's EVM
    config so follower execution is configured identically to the master.
    """

    def __init__(
        self,
        config: Optional[DistributedConfig] = None,
        *,
        master_id: str = "master",
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or DistributedConfig()
        if self.config.n_followers < 1:
            raise ValueError(
                f"n_followers must be >= 1, got {self.config.n_followers}"
            )
        self.master_id = master_id
        self.injector = injector
        self.metrics = metrics
        self._root_tracer = tracer
        self.tracer = (
            tracer.for_process(f"{master_id}/dist")
            if tracer is not None
            else NULL_TRACER
        )
        self.followers: List[FollowerNode] = []
        self._evm_config: Any = None
        #: record of the most recent distributed validation
        self.last_record: Optional[DistributedRecord] = None

    # ------------------------------------------------------------------ #

    def _followers_for(self, validator: ParallelValidator) -> List[FollowerNode]:
        evm_config = validator.evm.config
        if not self.followers or self._evm_config is not evm_config:
            self._evm_config = evm_config
            self.followers = [
                FollowerNode(
                    f"{self.master_id}/follower-{i}",
                    evm_config=evm_config,
                    injector=self.injector,
                    tracer=self._root_tracer,
                    metrics=self.metrics,
                )
                for i in range(self.config.n_followers)
            ]
        return self.followers

    def execute(
        self,
        validator: ParallelValidator,
        block: Block,
        parent_state: StateSnapshot,
        ctx: ExecutionContext,
        art: BlockArtifacts,
    ) -> Tuple[Optional[ParallelExecOutcome], Optional[ValidationFailure]]:
        """Validate ``block``'s execution across the follower pool (the
        :class:`~repro.core.validator.Distributor` contract)."""
        cfg = self.config
        model = validator.cost_model
        n = len(block.transactions)
        # one shard per non-empty lane of the plan backend workers run
        component_gas = art.component_gas()
        shards = [
            tuple(sorted(lane))
            for lane in art.plan_for(cfg.n_followers, "gas_lpt", 0).lane_components
            if lane
        ]
        shard_gas = tuple(sum(component_gas[c] for c in shard) for shard in shards)
        followers = self._followers_for(validator)

        record = DistributedRecord(
            block_hash_hex=block.hash.hex(),
            n_txs=n,
            n_shards=len(shards),
            n_followers=cfg.n_followers,
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
        busy = [t0] * cfg.n_followers
        dead: set = set()
        assigned = {sid: sid % cfg.n_followers for sid in range(len(shards))}
        pending = list(range(len(shards)))
        resolved: Dict[int, ShardReply] = {}
        reply_at_of: Dict[int, float] = {}
        fail_kind: Dict[int, str] = {}

        if self.metrics is not None:
            self.metrics.counter("dist.blocks").inc()

        round_dispatch: Dict[int, float] = {}

        def note(sid: int, attempt: int, reply_at: Optional[float], status: str) -> None:
            record.attempts.append(
                ShardAttempt(
                    sid, attempt, followers[assigned[sid]].follower_id,
                    round_dispatch[sid], reply_at, status,
                )
            )

        for attempt in range(cfg.max_reassignments + 1):
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
                if self.metrics is not None:
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
                if self.metrics is not None:
                    self.metrics.counter("dist.replies").inc()
                verdict = self._verify_reply(
                    validator, block, art, shards[sid], reply
                )
                if verdict == "anomaly":
                    # the shard itself could not execute cleanly (lying
                    # profile, invalid tx): not a follower fault — decline
                    # and let the local reference path classify the block
                    record.fallback = "undistributable"
                    if self.metrics is not None:
                        self.metrics.counter("dist.declined").inc()
                    return None, None
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
                deadline_at = t0 + max(
                    cfg.min_deadline_us, cfg.straggler_factor * median
                )
            else:
                deadline_at = t0 + cfg.min_deadline_us

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
            if pending and attempt < cfg.max_reassignments:
                pool_exhausted = False
                for sid in pending:
                    new_f = self._next_live(assigned[sid], dead)
                    if new_f is None:
                        pool_exhausted = True
                        break
                    assigned[sid] = new_f
                    record.reassignments += 1
                    if self.metrics is not None:
                        self.metrics.counter("dist.reassignments").inc()
                if pool_exhausted:
                    break  # every follower crashed: exhaustion below

        if pending:
            failure = self._exhaustion_failure(pending, fail_kind)
            record.fallback = failure.reason.value
            if self.metrics is not None:
                self.metrics.counter("dist.fallbacks").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "dist.fallback",
                    0.0,
                    block=block.hash.hex()[:8],
                    reason=failure.reason.value,
                    detail=failure.detail,
                )
            return None, failure

        # ---- aggregate: merge per-shard outcomes in component order ------ #
        outcome = merge_components(
            parent_state,
            art.graph.components,
            (o for reply in resolved.values() for o in reply.outcomes),
        )
        record.makespan_us = (
            max(reply_at_of.values()) + model.dist_merge_per_tx * n
        )
        if self.metrics is not None:
            self.metrics.gauge("dist.makespan_us").set(record.makespan_us)
            self.metrics.counter("dist.blocks_distributed").inc()
        return outcome, None

    # ------------------------------------------------------------------ #

    def _next_live(self, current: int, dead: set) -> Optional[int]:
        """Round-robin to the next non-crashed follower (None if none).

        May return ``current`` itself when it is the only live follower —
        the attempt counter still advances, so the re-dispatch rolls fresh
        faults.
        """
        n = self.config.n_followers
        for step in range(1, n + 1):
            candidate = (current + step) % n
            if candidate not in dead:
                return candidate
        return None

    def _exhaustion_failure(
        self, pending: List[int], fail_kind: Dict[int, str]
    ) -> ValidationFailure:
        """Map the dominant unresolved fault onto the typed taxonomy."""
        kinds = [fail_kind.get(sid, "crash") for sid in pending]
        if "byzantine" in kinds:
            sid = pending[kinds.index("byzantine")]
            return ValidationFailure(
                FailureReason.WORKER_FAULT,
                detail=(
                    f"byzantine shard reply for shard {sid} persisted through "
                    f"{self.config.max_reassignments + 1} assignments"
                ),
            )
        if "crash" in kinds:
            sid = pending[kinds.index("crash")]
            return ValidationFailure(
                FailureReason.WORKER_FAULT,
                detail=(
                    f"follower crash on shard {sid} persisted through "
                    f"{self.config.max_reassignments + 1} assignments"
                ),
            )
        sid = pending[0]
        return ValidationFailure(
            FailureReason.TIMEOUT,
            detail=(
                f"shard {sid} straggled past the deadline on every "
                f"assignment ({self.config.max_reassignments + 1} attempts)"
            ),
        )

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
