"""Deterministic, seeded fault injection.

One seed drives every fault decision, and each decision is keyed by
*where* it applies (block hash, transaction index, attempt, round,
endpoint) rather than by call order — so a scenario replays bit-identically
no matter how the caller interleaves queries, and two validators fed the
same faulty traffic observe the same faults.

Three fault families:

* **Proposal corruption** — :meth:`FaultInjector.corrupt_block` tampers a
  sealed block the way a byzantine proposer would: lying profile rs/ws
  entries (add/remove/swap accounts, wrong values), a mutated claimed
  state root, a truncated or reordered transaction list.
* **Execution faults** — :meth:`FaultInjector.execution_fault` makes a
  worker lane crash on a chosen transaction for its first
  ``worker_fault_attempts`` attempts (transient), or stall for a
  configurable simulated delay.  Neither refuses a block: the validator
  retries, then re-executes serially.
* **Network faults** — :class:`FaultyChannel` wraps block delivery with
  message drop, duplication, reordering and bounded delay, replacing the
  zero-latency logical-round model when enabled.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.chain.block import Block, BlockProfile, TxProfileEntry
from repro.common.types import Hash32, address_from_int
from repro.state.access import FrozenRWSet, balance_key

__all__ = [
    "FaultConfig",
    "ExecutionFault",
    "FollowerFault",
    "FaultInjector",
    "FaultyChannel",
    "CORRUPTION_KINDS",
    "PROFILE_CORRUPTION_KINDS",
]


def _keyed_rng(seed: int, *key: object) -> random.Random:
    """An RNG whose stream depends only on (seed, key) — call-order free.

    Seeding :class:`random.Random` with a string hashes it through SHA-512
    (CPython's ``init_by_array`` path), so this is stable across processes
    and independent of ``PYTHONHASHSEED``.
    """
    return random.Random(f"{seed}|" + "|".join(str(k) for k in key))


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for every injectable fault family (all off by default)."""

    seed: int = 0
    # --- execution faults (validator worker lanes) -------------------- #
    #: Probability that a given transaction's worker crashes per block.
    worker_fault_rate: float = 0.0
    #: The crash fires on attempts ``0 .. worker_fault_attempts-1`` and
    #: then heals (transient).  Set it above the validator's
    #: ``MAX_PARALLEL_RETRIES`` to make the fault outlast every parallel
    #: retry, so the block degrades to serial re-execution.
    worker_fault_attempts: int = 1
    #: Probability that a transaction's worker stalls (slow disk, GC pause).
    stall_rate: float = 0.0
    #: Simulated duration of one stall, in µs (charged to the tx's cost).
    stall_delay_us: float = 400.0
    # --- network faults (FaultyChannel) ------------------------------- #
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    #: Upper bound on per-message delivery delay, in µs (0 = no delay).
    max_delay_us: float = 0.0
    # --- follower faults (distributed shard validation) --------------- #
    #: Probability a follower crashes on a given shard assignment (the
    #: reply never arrives; the coordinator re-assigns after the deadline).
    follower_crash_rate: float = 0.0
    #: Probability a follower stalls (slow node) before replying.
    follower_stall_rate: float = 0.0
    #: Simulated duration of one follower stall, in µs — sized to blow the
    #: coordinator's straggler deadline, not just pad the makespan.
    follower_stall_us: float = 50_000.0
    #: Probability a follower returns a tampered (byzantine) shard reply.
    follower_byzantine_rate: float = 0.0


@dataclass(frozen=True)
class ExecutionFault:
    """What the injector decided for one (block, attempt, tx) execution."""

    crash: bool = False
    stall_us: float = 0.0


@dataclass(frozen=True)
class FollowerFault:
    """What the injector decided for one shard assignment to a follower."""

    crash: bool = False
    stall_us: float = 0.0
    byzantine: bool = False


#: Corruption kinds that tamper the block profile (lying proposer).
PROFILE_CORRUPTION_KINDS = (
    "profile_read_add",
    "profile_read_drop",
    "profile_write_swap",
    "profile_write_value",
    "profile_gas",
    "profile_status",
)

#: Every corruption `corrupt_block` understands.
CORRUPTION_KINDS = PROFILE_CORRUPTION_KINDS + (
    "state_root",
    "header_gas",
    "truncate_txs",
    "reorder_txs",
    "drop_profile",
)


class FaultInjector:
    """Seeded source of proposal corruption and execution faults."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()

    # --- execution faults --------------------------------------------- #

    @property
    def injects_execution_faults(self) -> bool:
        """Whether any execution-fault family is active.

        The validator uses this to skip the per-transaction consult
        entirely when it cannot fire — a zero-rate injector must cost the
        same as no injector.
        """
        return self.config.worker_fault_rate > 0.0 or self.config.stall_rate > 0.0

    def execution_fault(
        self, block_hash: Hash32, attempt: int, tx_index: int
    ) -> ExecutionFault:
        """Decide crash/stall for one transaction execution.

        Crash selection is keyed by (block, tx) only, so a faulted
        transaction crashes on *every* attempt below
        ``worker_fault_attempts`` — the transient-then-healed shape — and
        never re-rolls between attempts.
        """
        cfg = self.config
        crash = False
        if cfg.worker_fault_rate > 0.0 and attempt < cfg.worker_fault_attempts:
            roll = _keyed_rng(cfg.seed, "crash", bytes(block_hash).hex(), tx_index)
            crash = roll.random() < cfg.worker_fault_rate
        stall = 0.0
        if cfg.stall_rate > 0.0:
            roll = _keyed_rng(cfg.seed, "stall", bytes(block_hash).hex(), tx_index)
            if roll.random() < cfg.stall_rate:
                stall = cfg.stall_delay_us
        return ExecutionFault(crash=crash, stall_us=stall)

    # --- follower faults ---------------------------------------------- #

    @property
    def injects_follower_faults(self) -> bool:
        """Whether any follower-fault family is active."""
        cfg = self.config
        return (
            cfg.follower_crash_rate > 0.0
            or cfg.follower_stall_rate > 0.0
            or cfg.follower_byzantine_rate > 0.0
        )

    def follower_fault(
        self, block_hash: Hash32, shard_id: int, follower_id: str, attempt: int
    ) -> FollowerFault:
        """Decide crash/stall/byzantine for one shard assignment.

        Keyed by (block, shard, follower, attempt): a crashing follower
        crashes for that shard regardless of when it is asked, and a
        re-assignment of the same shard to a *different* follower rolls
        fresh faults — so re-assignment genuinely routes around a bad node
        rather than replaying its fate.
        """
        cfg = self.config
        key = (bytes(block_hash).hex(), shard_id, follower_id, attempt)
        crash = False
        if cfg.follower_crash_rate > 0.0:
            roll = _keyed_rng(cfg.seed, "follower_crash", *key)
            crash = roll.random() < cfg.follower_crash_rate
        stall = 0.0
        if cfg.follower_stall_rate > 0.0:
            roll = _keyed_rng(cfg.seed, "follower_stall", *key)
            if roll.random() < cfg.follower_stall_rate:
                stall = cfg.follower_stall_us
        byzantine = False
        if cfg.follower_byzantine_rate > 0.0:
            roll = _keyed_rng(cfg.seed, "follower_byz", *key)
            byzantine = roll.random() < cfg.follower_byzantine_rate
        return FollowerFault(crash=crash, stall_us=stall, byzantine=byzantine)

    # --- proposal corruption ------------------------------------------ #

    def corrupt_block(self, block: Block, kind: str) -> Block:
        """Return a tampered copy of ``block`` (the original is untouched).

        ``kind`` is one of :data:`CORRUPTION_KINDS`.  Which entry/key gets
        tampered is drawn from the seeded keyed RNG, so the same (seed,
        block, kind) always produces the identical corruption.
        """
        if kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {kind!r}")
        rng = _keyed_rng(self.config.seed, "corrupt", kind, block.hash.hex())

        if kind == "drop_profile":
            return dataclasses.replace(block, profile=None)
        if kind == "state_root":
            bad_root = Hash32(bytes(rng.randrange(256) for _ in range(32)))
            header = dataclasses.replace(block.header, state_root=bad_root)
            return dataclasses.replace(block, header=header)
        if kind == "header_gas":
            header = dataclasses.replace(
                block.header, gas_used=block.header.gas_used + 1 + rng.randrange(1000)
            )
            return dataclasses.replace(block, header=header)
        if kind == "truncate_txs":
            if not block.transactions:
                raise ValueError("cannot truncate an empty block")
            return dataclasses.replace(block, transactions=block.transactions[:-1])
        if kind == "reorder_txs":
            if len(block.transactions) < 2:
                raise ValueError("need at least two transactions to reorder")
            txs = list(block.transactions)
            i = rng.randrange(len(txs) - 1)
            txs[i], txs[i + 1] = txs[i + 1], txs[i]
            return dataclasses.replace(block, transactions=tuple(txs))

        # profile tampering
        if block.profile is None:
            raise ValueError("block has no profile to corrupt")
        entries = list(block.profile.entries)
        index, entry = self._pick_entry(entries, kind, rng)
        entries[index] = self._tamper_entry(entry, kind, rng)
        return dataclasses.replace(block, profile=BlockProfile(tuple(entries)))

    @staticmethod
    def _pick_entry(
        entries: Sequence[TxProfileEntry], kind: str, rng: random.Random
    ) -> Tuple[int, TxProfileEntry]:
        if kind == "profile_read_drop":
            candidates = [i for i, e in enumerate(entries) if e.rw.reads]
        elif kind in ("profile_write_swap", "profile_write_value"):
            candidates = [i for i, e in enumerate(entries) if e.rw.writes]
        else:
            candidates = list(range(len(entries)))
        if not candidates:
            raise ValueError(f"no profile entry eligible for {kind!r}")
        index = rng.choice(candidates)
        return index, entries[index]

    @staticmethod
    def _tamper_entry(
        entry: TxProfileEntry, kind: str, rng: random.Random
    ) -> TxProfileEntry:
        reads, writes = list(entry.rw.reads), list(entry.rw.writes)
        if kind == "profile_read_add":
            ghost = balance_key(address_from_int(0xBAD0_0000 + rng.randrange(1 << 16)))
            reads.append((ghost, 0))
        elif kind == "profile_read_drop":
            reads.pop(rng.randrange(len(reads)))
        elif kind == "profile_write_swap":
            i = rng.randrange(len(writes))
            (key_kind, _, slot), value = writes[i]
            swapped = address_from_int(0xBAD1_0000 + rng.randrange(1 << 16))
            writes[i] = ((key_kind, swapped, slot), value)
        elif kind == "profile_write_value":
            i = rng.randrange(len(writes))
            key, value = writes[i]
            writes[i] = (key, value + 1 + rng.randrange(1000))
        elif kind == "profile_gas":
            return dataclasses.replace(
                entry, gas_used=entry.gas_used + 1 + rng.randrange(1000)
            )
        elif kind == "profile_status":
            return dataclasses.replace(entry, success=not entry.success)
        return dataclasses.replace(
            entry, rw=FrozenRWSet(reads=tuple(reads), writes=tuple(writes))
        )


class FaultyChannel:
    """Unreliable block delivery to one endpoint (drop/dup/reorder/delay).

    A dropped block lands in a backlog and is retransmitted with the next
    round's batch; retransmissions are never dropped again (retry-until-ack
    collapsed to one guaranteed retry), so delivery is eventual and the
    drain in :meth:`flush` bounds how far behind an endpoint can fall.
    """

    def __init__(self, config: FaultConfig, endpoint: str) -> None:
        self.config = config
        self.endpoint = endpoint
        self.backlog: List[Block] = []
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def deliver(
        self, round_no: int, blocks: Sequence[Block]
    ) -> List[Tuple[Block, float]]:
        """Pass one round's blocks through the channel.

        Returns ``(block, arrival_time_us)`` pairs — backlog
        retransmissions first, then this round's survivors, optionally
        reordered as one batch.
        """
        cfg = self.config
        out: List[Tuple[Block, float]] = []
        for block in self.backlog:  # guaranteed retransmissions
            out.append((block, cfg.max_delay_us))
        self.backlog = []

        for block in blocks:
            key = (self.endpoint, round_no, block.hash.hex())
            if cfg.drop_rate > 0.0:
                if _keyed_rng(cfg.seed, "drop", *key).random() < cfg.drop_rate:
                    self.dropped += 1
                    self.backlog.append(block)
                    continue
            delay = 0.0
            if cfg.max_delay_us > 0.0:
                delay = _keyed_rng(cfg.seed, "delay", *key).random() * cfg.max_delay_us
                if delay > 0.0:
                    self.delayed += 1
            out.append((block, delay))
            if cfg.duplicate_rate > 0.0:
                if _keyed_rng(cfg.seed, "dup", *key).random() < cfg.duplicate_rate:
                    self.duplicated += 1
                    out.append((block, max(delay, cfg.max_delay_us)))

        if cfg.reorder_rate > 0.0 and len(out) > 1:
            roll = _keyed_rng(cfg.seed, "reorder", self.endpoint, round_no)
            if roll.random() < cfg.reorder_rate:
                roll.shuffle(out)
        self.delivered += len(out)
        return out

    def flush(self) -> List[Tuple[Block, float]]:
        """Drain the backlog (end-of-run retransmission sweep)."""
        out = [(block, self.config.max_delay_us) for block in self.backlog]
        self.backlog = []
        self.delivered += len(out)
        return out

    def counters(self) -> dict:
        return {
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }
