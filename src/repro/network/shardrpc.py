"""Shard RPC messages and the follower-node loop (distributed validation).

The wire protocol of :mod:`repro.distributed`, DiPETrans-shaped: the
master ships a :class:`ShardAssignment` (the same
:class:`~repro.exec.tasks.ComponentTask`s a local validator lane runs,
built with state slices instead of the master's snapshot) to one
follower; the follower executes it with the lane task body and returns a
:class:`ShardReply` with per-component outcomes.  Both messages are frozen
dataclasses of pickle-able pieces — nothing in them references the
master's memory, so they model real network messages faithfully.

:class:`FollowerNode` is the server side of that exchange.  It optionally
consults a :class:`~repro.faults.injector.FaultInjector` before replying:
a *crash* swallows the reply entirely (the master's deadline logic owns
recovery), a *stall* pads the reply's simulated latency, and a *byzantine*
fault tampers one transaction result in the reply — detected on the
master by the same Algorithm-2 profile cross-check that catches lying
proposers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.common.types import Hash32
from repro.evm.interpreter import EVMConfig
from repro.exec.tasks import (
    ComponentOutcome,
    ComponentTask,
    ValidateShared,
    run_validate_lane,
)
from repro.faults.injector import FaultInjector, _keyed_rng
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER

__all__ = ["ShardAssignment", "ShardReply", "FollowerNode"]


@dataclass(frozen=True)
class ShardAssignment:
    """Master -> follower: execute these components of this block."""

    block_hash: Hash32
    shard_id: int
    #: re-assignment round (0 = first dispatch); part of the fault key so
    #: a re-assigned shard rolls fresh faults on its new follower
    attempt: int
    works: Tuple[ComponentTask, ...]


@dataclass(frozen=True)
class ShardReply:
    """Follower -> master: per-component outcomes for one assignment."""

    shard_id: int
    attempt: int
    follower_id: str
    outcomes: Tuple[ComponentOutcome, ...]
    #: injected stall charged to this reply's simulated latency (µs)
    stall_us: float


class FollowerNode:
    """One follower: executes shard assignments, exactly like a local lane.

    Stateless between assignments — a follower holds no chain and no
    state; every assignment carries its own state slices.  That is what
    lets the coordinator re-assign work freely.
    """

    def __init__(
        self,
        follower_id: str,
        *,
        evm_config: Optional[EVMConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.follower_id = follower_id
        self.injector = injector
        self.metrics = metrics
        self.tracer = (
            tracer.for_process(follower_id) if tracer is not None else NULL_TRACER
        )
        self._shared = ValidateShared(evm_config)

    def handle(self, assignment: ShardAssignment) -> Optional[ShardReply]:
        """Execute one assignment; ``None`` models a crashed follower."""
        fault = None
        if self.injector is not None and self.injector.injects_follower_faults:
            fault = self.injector.follower_fault(
                assignment.block_hash,
                assignment.shard_id,
                self.follower_id,
                assignment.attempt,
            )
        if fault is not None and fault.crash:
            if self.metrics is not None:
                self.metrics.counter("dist.follower_crashes").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "follower_crash",
                    0.0,
                    shard=assignment.shard_id,
                    attempt=assignment.attempt,
                    block=assignment.block_hash.hex()[:8],
                )
            return None

        outcomes = run_validate_lane(self._shared, assignment.works)

        stall_us = 0.0
        if fault is not None and fault.stall_us > 0.0:
            stall_us = fault.stall_us
            if self.metrics is not None:
                self.metrics.counter("dist.follower_stalls").inc()
        if fault is not None and fault.byzantine:
            outcomes = self._tamper(assignment, outcomes)
            if self.metrics is not None:
                self.metrics.counter("dist.byzantine_replies").inc()

        return ShardReply(
            shard_id=assignment.shard_id,
            attempt=assignment.attempt,
            follower_id=self.follower_id,
            outcomes=outcomes,
            stall_us=stall_us,
        )

    def _tamper(
        self,
        assignment: ShardAssignment,
        outcomes: Tuple[ComponentOutcome, ...],
    ) -> Tuple[ComponentOutcome, ...]:
        """Deterministically corrupt one transaction result in the reply.

        The tampered ``gas_used`` diverges from the block profile, so the
        master's per-transaction verification (Algorithm 2) flags the
        reply instead of trusting the follower.
        """
        assert self.injector is not None
        rng = _keyed_rng(
            self.injector.config.seed,
            "follower_tamper",
            bytes(assignment.block_hash).hex(),
            assignment.shard_id,
            self.follower_id,
            assignment.attempt,
        )
        candidates = [i for i, o in enumerate(outcomes) if o.results]
        if not candidates:
            return outcomes
        ci = rng.choice(candidates)
        outcome = outcomes[ci]
        ti = rng.randrange(len(outcome.results))
        result = outcome.results[ti]
        bad = dataclasses.replace(
            result, gas_used=result.gas_used + 1 + rng.randrange(1000)
        )
        results: List[Any] = list(outcome.results)
        results[ti] = bad
        tampered = outcome._replace(results=tuple(results))
        return outcomes[:ci] + (tampered,) + outcomes[ci + 1 :]
