"""Shard RPC messages and the follower-node loop (distributed validation).

The wire protocol of :mod:`repro.distributed`, DiPETrans-shaped: the
master ships a :class:`ShardAssignment` (the same
:class:`~repro.exec.tasks.ComponentTask`s a local validator lane runs,
built with state slices instead of the master's snapshot) to one
follower; the follower executes it with the lane task body and returns a
:class:`ShardReply` with per-component outcomes.  Both messages are frozen
dataclasses of pickle-able pieces — nothing in them references the
master's memory, so they model real network messages faithfully.

:class:`FollowerNode` is the server side of that exchange.  The master
trusts none of it: a missing reply (crash), a late one (``stall_us``
pads its simulated latency) and a tampered one are all handled on the
master (:mod:`repro.distributed.coordinator`), the last by the same
Algorithm-2 profile cross-check that catches lying proposers.  The
follower that crashes, stalls or lies on cue is a test-side fake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.types import Hash32
from repro.exec.tasks import (
    ComponentOutcome,
    ComponentTask,
    ValidateShared,
    run_validate_lane,
)

__all__ = ["ShardAssignment", "ShardReply", "FollowerNode"]


@dataclass(frozen=True)
class ShardAssignment:
    """Master -> follower: execute these components of this block."""

    block_hash: Hash32
    shard_id: int
    #: re-assignment round (0 = first dispatch)
    attempt: int
    works: Tuple[ComponentTask, ...]


@dataclass(frozen=True)
class ShardReply:
    """Follower -> master: per-component outcomes for one assignment."""

    shard_id: int
    attempt: int
    follower_id: str
    outcomes: Tuple[ComponentOutcome, ...]
    #: delay before replying, charged to the reply's simulated latency (µs)
    stall_us: float = 0.0


class FollowerNode:
    """One follower: executes shard assignments, exactly like a local lane.

    Stateless between assignments — a follower holds no chain and no
    state; every assignment carries its own state slices.  That is what
    lets the coordinator re-assign work freely.
    """

    def __init__(self, follower_id: str) -> None:
        self.follower_id = follower_id
        self._shared = ValidateShared()

    def handle(self, assignment: ShardAssignment) -> Optional[ShardReply]:
        """Execute one assignment; ``None`` models a crashed follower."""
        return ShardReply(
            shard_id=assignment.shard_id,
            attempt=assignment.attempt,
            follower_id=self.follower_id,
            outcomes=run_validate_lane(self._shared, assignment.works),
        )
