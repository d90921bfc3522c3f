"""Deterministic, seeded fault injection.

One seed drives every fault decision, and each decision is keyed by
*where* it applies (block hash, transaction index, attempt) rather than
by call order — so a scenario replays bit-identically no matter how the
caller interleaves queries, and two validators fed the same faulty
traffic observe the same faults.

Two fault families:

* **Proposal corruption** — :meth:`FaultInjector.corrupt_block` tampers a
  sealed block the way a byzantine proposer would: lying profile rs/ws
  entries (add/remove/swap accounts, wrong values), a mutated claimed
  state root, a truncated or reordered transaction list.
* **Execution faults** — :meth:`FaultInjector.execution_fault` makes a
  worker lane crash on a chosen transaction for its first
  ``worker_fault_attempts`` attempts (transient), or stall for a
  configurable simulated delay.  Neither refuses a block: the validator
  retries, then re-executes serially.

Block delivery itself is not faulted: blocks arrive in logical rounds.
Follower faults (a crashed, stalled or lying follower of a distributed
validator) are a test-side fake follower in ``tests/fault_scenarios.py``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.chain.block import Block, BlockProfile, TxProfileEntry
from repro.common.types import Hash32, address_from_int
from repro.state.access import FrozenRWSet, balance_key

__all__ = [
    "FaultConfig",
    "ExecutionFault",
    "FaultInjector",
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
    """Knobs for the execution faults (all off by default); proposal
    corruption takes its kind per :meth:`FaultInjector.corrupt_block` call."""

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


@dataclass(frozen=True)
class ExecutionFault:
    """What the injector decided for one (block, attempt, tx) execution."""

    crash: bool = False
    stall_us: float = 0.0


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

