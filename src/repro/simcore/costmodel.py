"""Mapping executed opcode traces to simulated time.

The interpreter counts executed opcodes per *category* (storage reads,
storage writes, hashing, calls, plain stack/arithmetic work, ...).  The
:class:`CostModel` turns those counts into microseconds of simulated work.

The category weights encode the paper's observations: storage operations
(SLOAD/SSTORE) dominate execution time (§4.3, §5.4), so a gas-based
schedule — which the validator's scheduler uses as its *estimate* — is a
good but imperfect proxy for the *actual* time this model charges.  That
gap is real in the paper ("it sometimes cannot properly capture the running
time") and is preserved here by construction rather than by injected noise.

All durations are in microseconds of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping

from repro.common.records import record

#: Categories the interpreter reports.  Anything not listed costs zero.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "base": 0.012,  # stack ops, control flow, cheap arithmetic
    "arith": 0.025,  # MUL/DIV/MOD/EXP family
    "env": 0.02,  # context queries (CALLER, NUMBER, ...)
    "memory": 0.015,  # MLOAD/MSTORE and copies, per op
    "sha3": 0.55,  # hashing, per op (plus per-word below)
    "sha3_word": 0.08,
    "balance": 0.35,  # account-level state reads
    "storage_read": 1.9,  # SLOAD
    "storage_write": 3.8,  # SSTORE
    "call": 1.6,  # message call setup/teardown
    "create": 9.0,
    "log": 0.25,
    "transfer": 2.2,  # native value movement bookkeeping
}


@record
class TraceCosts:
    """Executed-work summary for one transaction.

    ``counts`` maps category name to the number of charged units observed
    during execution; ``gas_used`` is the EVM gas the execution consumed
    (the scheduler's estimate signal).
    """

    counts: Mapping[str, int]
    gas_used: int = 0

    def merged(self, other: "TraceCosts") -> "TraceCosts":
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return TraceCosts(counts, self.gas_used + other.gas_used)


@dataclass(frozen=True)
class CostModel:
    """Simulated-time cost parameters (all microseconds).

    The defaults were calibrated so the benchmark harness reproduces the
    paper's headline shapes (see EXPERIMENTS.md); every experiment can pass
    its own instance to sweep them.
    """

    #: Fixed per-transaction overhead (pool pop, signature, receipt build).
    tx_overhead: float = 7.0
    #: Serial commit section per packed transaction in the proposer
    #: (Algorithm 1's synchronised reserve-table/state update).
    commit_overhead: float = 1.0
    #: Additional per-commit cost of "Synchronize with all worker threads"
    #: (Algorithm 1 line 23): the barrier grows with the thread count.
    commit_sync_per_lane: float = 0.14
    #: Cleanup cost charged to a lane when its transaction aborts.
    abort_overhead: float = 0.6
    #: Block-STM cooperative re-validation: comparing one recorded read
    #: version against the multi-version memory.  Validation never
    #: re-executes, which is why this is ~25x cheaper than an SLOAD.
    validate_per_read: float = 0.08
    #: Base backoff before re-attempting a block after a transient
    #: worker fault (doubles per retry, so a
    #: block that retries k times is delayed Σ backoff·2^i — deterministic,
    #: keeping Fig-9-style timing meaningful under injected faults).
    retry_backoff: float = 40.0
    #: Validator preparation phase: dependency-graph + schedule, per tx.
    schedule_per_tx: float = 0.12
    #: Applier work per transaction (rw-set check + world-state apply).
    applier_per_tx: float = 0.85
    #: One-off per-block validation epilogue (state-root comparison).
    block_epilogue: float = 25.0
    #: Block commitment phase: writing the validated block to the database.
    block_commit: float = 12.0
    #: Penalty when a worker lane switches to a different block's context.
    context_switch: float = 6.0
    #: Preparation-phase cost per distinct storage slot prefetched into
    #: memory (geth's prefetcher, used by the paper "to reduce the I/O
    #: impact in executing transactions", §5.4).
    prefetch_per_slot: float = 0.2
    #: Extra cost of a storage read that was NOT prefetched (cold path:
    #: trie traversal + disk).  Only charged when prefetching is disabled.
    cold_storage_read: float = 6.0
    #: Per-transaction cost of shipping execution results to the owning
    #: block's applier, per *other* concurrently executing block ("workers
    #: ... send out relevant information", §5.6).  This communication term
    #: grows with pipeline occupancy and produces Fig. 9's 4->8 dip.
    result_ship_per_tx: float = 3.2
    # --- distributed shard validation (repro.distributed) ------------- #
    #: Flat cost of shipping one shard assignment to a follower node
    #: (connection + serialization setup; DiPETrans' master->follower leg).
    shard_ship_us: float = 180.0
    #: Per-transaction marginal shipping cost of a shard assignment (the
    #: state slice and transaction payload grow with the shard).
    shard_ship_per_tx: float = 1.1
    #: Flat cost of a follower's reply message (follower->master leg).
    shard_reply_us: float = 90.0
    #: Per-transaction marginal cost of the reply (results + overlays).
    shard_reply_per_tx: float = 0.6
    #: Master-side merge cost per transaction: applying follower overlays
    #: and rebuilding block-order results.
    dist_merge_per_tx: float = 0.4
    #: Per-category execution weights.
    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def with_overrides(self, **kwargs: Any) -> "CostModel":
        """Return a copy with selected fields replaced."""
        if "weights" in kwargs:
            merged = dict(self.weights)
            merged.update(kwargs["weights"])
            kwargs["weights"] = merged
        return replace(self, **kwargs)

    def execution_cost(self, trace: TraceCosts) -> float:
        """Pure execution time of one transaction (no fixed overhead)."""
        total = 0.0
        weights = self.weights
        for category, count in trace.counts.items():
            if count:
                total += weights.get(category, 0.0) * count
        return total

    def tx_cost(self, trace: TraceCosts) -> float:
        """Full per-transaction lane time: overhead + execution."""
        return self.tx_overhead + self.execution_cost(trace)
