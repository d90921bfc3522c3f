"""Worker-side task bodies for the real-parallelism backends.

The ``ProcessBackend`` pickles functions *by reference* and payloads *by
value*, so task functions are module-level and payloads are small
NamedTuples of pickle-able pieces.  No payload reaches a world state: the
base snapshot rides on the session's *shared* object, which a process
worker receives as a reference to a state it already holds
(:mod:`repro.exec.backend`).

Two task families:

* :func:`run_propose_chunk` — speculative OCC-WSI executions: read the
  base snapshot through the committed-writes overlay at the round's
  snapshot version, buffer writes locally, return the rw-set and buffered
  writes for the parent to conflict-check and commit deterministically.
  In-memory workers get the round's overlay by reference; a process worker
  keeps it and gets the writes committed since the previous round.
* :func:`run_validate_lane` — one validator worker lane: execute each
  assigned dependency-graph component against an isolated view of the
  parent state, guarded so any access outside the component's
  profile-derived account footprint raises :class:`FootprintMiss` (the
  signal that a lying profile broke component isolation and the block
  must be re-executed serially).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.common.types import Address
from repro.exec.backend import BackendError
from repro.evm.interpreter import (
    EVM,
    EVMConfig,
    ExecutionContext,
    InvalidTransaction,
    TxResult,
)
from repro.state.access import ReadWriteSet, RecordingState, StateKey
from repro.state.account import AccountData
from repro.state.statedb import StateDB, StateSnapshot
from repro.state.versioned import KeyedView, OCCStateView, read_base_value
from repro.txpool.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chain.block import Block
    from repro.core.artifacts import BlockArtifacts

__all__ = [
    "FootprintMiss",
    "GuardedSnapshot",
    "build_state_slice",
    "export_overlay",
    "apply_overlay",
    "ProposeShared",
    "ProposeChunk",
    "ProposeTaskResult",
    "speculate",
    "run_propose_chunk",
    "EstimateRead",
    "MVEntry",
    "BlockSTMView",
    "BlockSTMTask",
    "BlockSTMTaskResult",
    "run_blockstm_task",
    "ValidateShared",
    "ComponentTask",
    "ComponentOutcome",
    "build_component_tasks",
    "run_validate_lane",
]


class FootprintMiss(Exception):
    """A worker touched state outside its component's declared footprint.

    Deliberately **not** a ``ValueError``/``MemoryError`` subclass: the EVM
    frame loop swallows those as in-frame failures, and this condition must
    instead abort the whole parallel attempt (the profile lied about the
    component partition, so component-isolated execution is no longer
    equivalent to block-order serial execution).
    """

    def __init__(self, address: Address) -> None:
        super().__init__(f"access outside component footprint: {address.hex()}")
        self.address = address


class GuardedSnapshot:
    """Read-only account view restricted to an account footprint.

    Used by every component executor over whichever accounts mapping it
    holds: the parent's ``StateSnapshot.accounts``, a process worker's
    resident copy of it, or a follower's shipped slice.  The guard turns
    any access that would break component isolation into a
    :class:`FootprintMiss`.

    ``recorder`` (when set) observes every out-of-footprint address; with
    ``strict=False`` the guard *records instead of raising* and serves the
    true base value, so the race detector can enumerate the complete
    violation set of a lying profile rather than stopping at the first
    miss.  Non-strict results are still discarded by the caller — the
    guard only ever relaxes reporting, never commitment.  A slice holds
    only the footprint, so a guard over one always runs strict.
    """

    __slots__ = ("_accounts", "_allowed", "_recorder", "_strict")

    def __init__(
        self,
        accounts: Mapping[Address, Optional[AccountData]],
        allowed: FrozenSet[Address],
        recorder: Optional[Callable[[Address], None]] = None,
        strict: bool = True,
    ) -> None:
        self._accounts = accounts
        self._allowed = allowed
        self._recorder = recorder
        self._strict = strict

    def account(self, address: Address) -> Optional[AccountData]:
        if address not in self._allowed:
            if self._recorder is not None:
                self._recorder(address)
            if self._strict:
                raise FootprintMiss(address)
        return self._accounts.get(address)


def build_state_slice(
    base: StateSnapshot, addresses: FrozenSet[Address]
) -> Dict[Address, Optional[AccountData]]:
    """Extract the pickle-able per-component account slice from a snapshot
    (``None`` marks an account absent from it)."""
    return {address: base.account(address) for address in sorted(addresses)}


# --------------------------------------------------------------------- #
# StateDB overlay transport (validator merge path)                      #
# --------------------------------------------------------------------- #

#: ``(exists, nonce, balance, code, changed_storage)`` per dirty account.
OverlayEntry = Tuple[bool, int, int, bytes, Dict[int, int]]


def export_overlay(db: StateDB) -> Dict[Address, OverlayEntry]:
    """Flatten a StateDB's dirty accounts into a pickle-able mapping."""
    out: Dict[Address, OverlayEntry] = {}
    for address, ov in db._overlays.items():
        out[address] = (ov.exists, ov.nonce, ov.balance, ov.code, dict(ov.storage))
    return out


def apply_overlay(db: StateDB, overlay: Dict[Address, OverlayEntry]) -> None:
    """Replay an exported overlay onto another StateDB.

    Components are account-disjoint, so replaying each component's final
    per-account values (in any order) reproduces exactly the overlay the
    block-order serial loop would have built.
    """
    for address, (exists, nonce, balance, code, storage) in overlay.items():
        if not exists:
            continue  # touched (read) but never written: no state change
        db.create_account(address)
        db.set_nonce(address, nonce)
        db.set_balance(address, balance)
        db.set_code(address, code)
        for slot, value in storage.items():
            db.set_storage(address, slot, value)


# --------------------------------------------------------------------- #
# proposer tasks (OCC-WSI speculative execution)                        #
# --------------------------------------------------------------------- #


class ProposeShared(NamedTuple):
    """Per-proposal session state, installed once per ``propose()``.

    The base snapshot rides here (not in payloads): in-memory workers read
    it in place, process workers resolve it to the copy they hold — what
    crosses per block is the state's root and, once, its delta.
    """

    evm_config: Optional[EVMConfig]
    base: StateSnapshot
    ctx: ExecutionContext
    #: ``[next expected round, overlay]``: what a process worker keeps
    #: between the session's rounds, in its own unpickled copy of this object
    kept: List[Any]


class ProposeChunk(NamedTuple):
    """One task of a speculative round: transactions plus their read snapshot."""

    txs: Tuple[Transaction, ...]
    snapshot_version: int
    #: In-memory workers (``seq`` None): the latest committed value per written
    #: key as of the round start, by reference.  Process workers: what was
    #: committed since the previous round — each folds it into the overlay it
    #: keeps, so every worker gets a chunk every round, and refuses one whose
    #: ``seq`` (the round's position in its session) is not the next.
    writes: Dict[StateKey, Any]
    seq: Optional[int] = None


class ProposeTaskResult(NamedTuple):
    """What the parent needs to conflict-check and commit one execution."""

    invalid: Optional[str]
    result: Optional[TxResult]
    rw: Optional[ReadWriteSet]
    writes: Dict[StateKey, Any]
    elapsed_us: float


#: "key not in the overlay" marker: overlay values are ints and bytes
_UNWRITTEN: Any = object()


class _WaveOverlayStore:
    """Duck-typed ``MultiVersionStore`` over (base snapshot, overlay dict).

    A speculative round snapshots the committed writes *once*; every
    worker of the round reads through the same immutable overlay, so all
    backends observe the identical snapshot regardless of scheduling.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: StateSnapshot, overlay: Dict[StateKey, Any]) -> None:
        self._base = base
        self._overlay = overlay

    def read_at(self, key: StateKey, version: int) -> Any:
        value = self._overlay.get(key, _UNWRITTEN)
        if value is not _UNWRITTEN:
            return value
        # read_base_value, inlined: one Python call below the view's load
        kind, address, slot = key
        acct = self._base.account(address)
        if acct is None:
            return b"" if kind == "code" else 0
        return acct.storage.get(slot, 0) if kind == "storage" else getattr(acct, kind)


def speculate(
    evm: EVM, store: Any, tx: Transaction, ctx: ExecutionContext, snapshot_version: int
) -> ProposeTaskResult:
    """Execute one transaction against ``store`` as of ``snapshot_version``.

    The one speculate-one-transaction body of the propose path: workers
    reach it through :func:`run_propose_chunk` (``store`` is the round's
    overlay), the proposing session calls it directly for in-parent
    executions against the live :class:`MultiVersionStore`.  Writes stay
    in the view's buffer, which the result takes over; an invalid
    transaction is an outcome, not an error.
    """
    view = OCCStateView(store, snapshot_version)
    start = time.perf_counter()
    try:
        result = evm.apply_transaction(view, tx, ctx)
    except InvalidTransaction as exc:
        elapsed_us = (time.perf_counter() - start) * 1e6
        return ProposeTaskResult(str(exc), None, None, {}, elapsed_us)
    elapsed_us = (time.perf_counter() - start) * 1e6
    return ProposeTaskResult(None, result, view.rw, view.buffered_writes, elapsed_us)


def run_propose_chunk(shared: ProposeShared, chunk: ProposeChunk) -> List[ProposeTaskResult]:
    """Execute the chunk's transactions speculatively against the round snapshot
    (a process worker first folds the round's delta into the overlay it keeps)."""
    overlay = chunk.writes
    if chunk.seq is not None:
        if chunk.seq != shared.kept[0]:
            raise BackendError(f"round {chunk.seq} out of sequence: expected {shared.kept[0]}")
        shared.kept[0] += 1
        shared.kept[1].update(overlay)
        overlay = shared.kept[1]
    evm = EVM(shared.evm_config)
    store = _WaveOverlayStore(shared.base, overlay)
    return [speculate(evm, store, tx, shared.ctx, chunk.snapshot_version) for tx in chunk.txs]


# --------------------------------------------------------------------- #
# Block-STM tasks (multi-version speculative execution)                 #
# --------------------------------------------------------------------- #


class EstimateRead(Exception):
    """A Block-STM read hit an ESTIMATE marker: suspend on that writer.

    Deliberately **not** a ``ValueError``/``MemoryError`` subclass (the EVM
    frame loop swallows those as in-frame failures): hitting an estimate
    means this incarnation cannot produce a meaningful result until the
    dependency re-executes, so the whole attempt unwinds to the scheduler.
    """

    def __init__(self, dep: int) -> None:
        super().__init__(f"read of an ESTIMATE written by txn {dep}")
        #: chunk-local index of the aborted writer this reader depends on
        self.dep = dep


#: One multi-version memory entry for a key, as shipped to workers:
#: ``(writer_index, incarnation, value, is_estimate)``.  Entries per key
#: are sorted by ascending writer index (the preset serialization order).
MVEntry = Tuple[int, int, Any, bool]


#: witness of a read served below the multi-version memory (committed
#: prefix or base snapshot)
_BASE_READ = (-1, 0)


class BlockSTMView(KeyedView[Tuple[int, int]]):
    """Multi-version read view for one Block-STM task.

    The shared :class:`~repro.state.versioned.KeyedView` serves the task's
    own writes and records the rw-set; unbuffered reads resolve in
    Block-STM order: the highest-indexed multi-version entry below the
    task's preset position (raising :class:`EstimateRead` when that entry
    is an ESTIMATE left by an aborted incarnation), then the
    committed-prefix overlay, then the base snapshot.  Every external read
    records its source ``(writer_index, incarnation)`` — the read set the
    parent's cooperative re-validation checks against current memory.
    """

    __slots__ = ("_base", "_overlay", "_mv", "_index")

    def __init__(
        self,
        base: StateSnapshot,
        overlay: Dict[StateKey, Any],
        mv: Dict[StateKey, Tuple[MVEntry, ...]],
        index: int,
    ) -> None:
        super().__init__()
        self._base = base
        self._overlay = overlay
        self._mv = mv
        self._index = index

    def _load(self, key: StateKey, record: bool = True) -> Any:
        source: Optional[MVEntry] = None
        for entry in self._mv.get(key, ()):
            if entry[0] >= self._index:
                break
            source = entry
        witness = _BASE_READ
        if source is not None:
            writer, incarnation, value, is_estimate = source
            if is_estimate:
                raise EstimateRead(writer)
            witness = (writer, incarnation)
        else:
            value = self._overlay.get(key, _UNWRITTEN)
            if value is _UNWRITTEN:
                value = read_base_value(self._base, key)
        if record and key not in self.reads and key not in self.writes:
            self.reads[key] = witness
        return value

    def reads_tuple(self) -> Tuple[Tuple[StateKey, int, int], ...]:
        """Recorded reads as ``(key, writer_index, incarnation)`` triples."""
        return tuple(
            (key, src[0], src[1]) for key, src in self.reads.items()
        )


class BlockSTMTask(NamedTuple):
    """One (re-)execution of a chunk transaction at a given incarnation."""

    tx: Transaction
    #: chunk-local preset-order index of the transaction
    index: int
    incarnation: int
    #: multi-version memory snapshot at wave start (shared per wave; the
    #: in-memory backends pass it by reference, the process backend once
    #: per worker message by value)
    mv: Dict[StateKey, Tuple[MVEntry, ...]]
    #: committed values from earlier chunks of this block
    overlay: Dict[StateKey, Any]


class BlockSTMTaskResult(NamedTuple):
    """Everything the parent scheduler needs from one incarnation."""

    index: int
    incarnation: int
    #: InvalidTransaction detail (the execution outcome "invalid at this
    #: position"; its reads still participate in re-validation)
    invalid: Optional[str]
    #: set when the execution suspended on an ESTIMATE: the chunk-local
    #: index of the aborted writer to wait for
    dep: Optional[int]
    result: Optional[TxResult]
    #: external reads as ``(key, writer_index, incarnation)``; -1 marks a
    #: committed-prefix/base read
    reads: Tuple[Tuple[StateKey, int, int], ...]
    #: journal-correct buffered writes (actual values, applied at commit)
    writes: Dict[StateKey, Any]
    #: rw-set writes (the view's recording rule: kept across reverts)
    rw_writes: Dict[StateKey, int]
    elapsed_us: float


def run_blockstm_task(shared: ProposeShared, task: BlockSTMTask) -> BlockSTMTaskResult:
    """Execute one incarnation against the wave's multi-version snapshot."""
    evm = EVM(shared.evm_config)
    view = BlockSTMView(shared.base, task.overlay, task.mv, task.index)
    start = time.perf_counter()
    try:
        result = evm.apply_transaction(view, task.tx, shared.ctx)
    except EstimateRead as exc:
        elapsed_us = (time.perf_counter() - start) * 1e6
        return BlockSTMTaskResult(
            task.index, task.incarnation, None, exc.dep, None, (), {}, {}, elapsed_us
        )
    except InvalidTransaction as exc:
        elapsed_us = (time.perf_counter() - start) * 1e6
        return BlockSTMTaskResult(
            task.index,
            task.incarnation,
            str(exc),
            None,
            None,
            view.reads_tuple(),
            {},
            {},
            elapsed_us,
        )
    elapsed_us = (time.perf_counter() - start) * 1e6
    return BlockSTMTaskResult(
        task.index,
        task.incarnation,
        None,
        None,
        result,
        view.reads_tuple(),
        view.buffered_writes,
        dict(view.writes),
        elapsed_us,
    )


# --------------------------------------------------------------------- #
# validator tasks (component execution)                                 #
# --------------------------------------------------------------------- #


class ValidateShared(NamedTuple):
    """Per-block validator session state: the EVM config and the parent
    state every component of the block reads through its footprint guard
    (``None`` on follower nodes, whose tasks carry state slices)."""

    evm_config: Optional[EVMConfig]
    base: Optional[StateSnapshot] = None


class ComponentTask(NamedTuple):
    """One dependency-graph component, self-contained for any executor
    (sim lane, backend worker or follower node) — the one plan shape."""

    component: int
    tx_indices: Tuple[int, ...]
    txs: Tuple[Transaction, ...]
    ctx: ExecutionContext
    #: account footprint: backend workers guard the shared base with it
    allowed: FrozenSet[Address]
    #: followers only: the pickle-able account slice the component runs on
    #: (backend workers get ``None`` and read :attr:`ValidateShared.base`)
    slice_accounts: Optional[Dict[Address, Optional[AccountData]]] = None
    #: race-detector mode: enumerate every out-of-footprint access (the
    #: in-memory guard then serves true values past the first miss)
    record_misses: bool = False


class ComponentOutcome(NamedTuple):
    """Result of executing one component in isolation."""

    component: int
    #: ``None`` on success; ``("invalid"|"footprint_miss", detail)`` when
    #: the attempt must fall back to the serial reference path
    anomaly: Optional[Tuple[str, str]]
    results: Tuple[TxResult, ...]
    rwsets: Tuple[ReadWriteSet, ...]
    overlay: Dict[Address, OverlayEntry]
    elapsed_us: float
    #: out-of-footprint addresses observed (deduplicated, access order);
    #: non-empty exactly when a footprint guard fired or recorded
    misses: Tuple[Address, ...] = ()


def build_component_tasks(
    block: "Block",
    ctx: ExecutionContext,
    art: "BlockArtifacts",
    components: Iterable[int],
    *,
    slice_from: Optional[StateSnapshot] = None,
    record_misses: bool = False,
) -> Tuple[ComponentTask, ...]:
    """Package dependency-graph components for one lane, worker or shard.

    A task names its footprint and reads the session's base state through a
    guard; given ``slice_from`` (follower shards hold no state) it carries
    that state's slice for exactly those accounts instead.  Either way an
    access outside the footprint is a ``footprint_miss`` anomaly on any executor.
    """
    footprints = art.component_footprints()
    tasks = []
    for comp in components:
        tx_indices = art.graph.components[comp]
        allowed = footprints[comp]
        tasks.append(
            ComponentTask(
                component=comp,
                tx_indices=tx_indices,
                txs=tuple(block.transactions[i] for i in tx_indices),
                ctx=ctx,
                allowed=allowed,
                slice_accounts=(
                    None if slice_from is None else build_state_slice(slice_from, allowed)
                ),
                record_misses=record_misses,
            )
        )
    return tuple(tasks)


def _dedup_addresses(addresses: List[Address]) -> Tuple[Address, ...]:
    seen: Dict[Address, None] = {}
    for address in addresses:
        seen.setdefault(address)
    return tuple(seen)


def _run_component(evm: EVM, shared_base: Any, task: ComponentTask) -> ComponentOutcome:
    misses: List[Address] = []
    recorder: Optional[Callable[[Address], None]] = (
        misses.append if task.record_misses else None
    )
    accounts = task.slice_accounts
    # a slice holds only the footprint, so it cannot serve a miss
    strict = accounts is not None or not task.record_misses
    if accounts is None:
        accounts = shared_base.accounts
    base: Any = GuardedSnapshot(accounts, task.allowed, recorder, strict)
    db = StateDB(base)
    results: List[TxResult] = []
    rwsets: List[ReadWriteSet] = []
    start = time.perf_counter()
    try:
        for tx in task.txs:
            rec = RecordingState(db)
            results.append(evm.apply_transaction(rec, tx, task.ctx))
            rwsets.append(rec.rw)
    except (InvalidTransaction, FootprintMiss) as exc:
        elapsed_us = (time.perf_counter() - start) * 1e6
        kind = "invalid"
        if isinstance(exc, FootprintMiss):
            kind = "footprint_miss"
            misses.append(exc.address)
        return ComponentOutcome(
            task.component, (kind, str(exc)), (), (), {}, elapsed_us,
            _dedup_addresses(misses),
        )
    elapsed_us = (time.perf_counter() - start) * 1e6
    # recorded misses without an exception (record_misses mode): the
    # attempt is tainted — report it as a footprint anomaly so the caller
    # falls back exactly as the strict guard would have
    anomaly: Optional[Tuple[str, str]] = None
    if misses:
        anomaly = (
            "footprint_miss",
            f"access outside component footprint: {misses[0].hex()}",
        )
    return ComponentOutcome(
        task.component,
        anomaly,
        tuple(results),
        tuple(rwsets),
        export_overlay(db),
        elapsed_us,
        _dedup_addresses(misses),
    )


def run_validate_lane(
    shared: ValidateShared, lane: Tuple[ComponentTask, ...]
) -> Tuple[ComponentOutcome, ...]:
    """Execute one worker lane's components sequentially (gas-LPT batch)."""
    evm = EVM(shared.evm_config)
    return tuple(_run_component(evm, shared.base, task) for task in lane)
