"""Distributed sharded validation across follower nodes (DiPETrans-style).

A master validator shards each received block's dependency-graph
components with the plan its own lanes and backend workers run
(:meth:`~repro.core.artifacts.BlockArtifacts.plan_for`, gas-weighted LPT,
one non-empty lane per follower), ships the shards to follower nodes over
the shard RPC protocol (:mod:`repro.network.shardrpc`), verifies every
reply against the block profile, and aggregates the per-shard outcomes
into exactly what single-node validation would have produced —
bit-identical state roots and receipts by construction, because components
are account-disjoint.

Stragglers past the deadline are re-assigned; follower crashes and
byzantine replies map onto the typed
:class:`~repro.faults.errors.FailureReason` taxonomy with serial
re-execution as the last-resort fallback — follower faults cost
throughput, never correctness.

A follower pool is a :class:`~repro.core.validator.ParallelValidator` with
a coordinator attached::

    coordinator = ShardCoordinator(DistributedConfig(n_followers=4))
    validator = ParallelValidator(distributor=coordinator)
    result = validator.validate_block(block, parent_state)
    record = coordinator.last_record
"""

from repro.distributed.coordinator import (
    DistributedConfig,
    DistributedRecord,
    ShardAttempt,
    ShardCoordinator,
)

__all__ = [
    "DistributedConfig",
    "DistributedRecord",
    "ShardAttempt",
    "ShardCoordinator",
]
