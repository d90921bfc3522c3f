"""Block-STM proposer strategy: multi-version memory, suspend-on-ESTIMATE.

Where OCC-WSI (:mod:`repro.core.occ_wsi`) aborts-and-retries any
transaction whose read set went stale, Block-STM [Gelashvili et al.]
fixes a **preset serialization order** up front and lets a collaborative
scheduler converge on it:

* Every transaction executes against a **multi-version memory**: a read
  by the transaction at preset position ``i`` observes the write of the
  highest-indexed transaction below ``i`` (or the committed prefix /
  base snapshot), never a later one.
* When a transaction aborts, its writes are not removed but replaced by
  **ESTIMATE markers**.  A later transaction that reads an estimate
  *suspends* on the aborted writer instead of speculating through it —
  dynamic dependency discovery that converts abort storms into cheap
  waits (the exact mechanism that beats abort-and-retry under the
  app-inherent conflicts of real traffic).
* **Cooperative re-validation** runs in preset order after every wave of
  executions, re-checking only transactions at or above the lowest
  position whose memory changed; a failed check aborts that incarnation
  (writes become estimates) and cascades forward deterministically.

The driver below is a single implementation for the simulated clock and
the real backends: all scheduling decisions (wave membership, execution
order, validation, commits) happen in the parent in preset order, and
worker tasks (:func:`repro.exec.tasks.run_blockstm_task`) are pure
functions of their wave snapshot — so sealed blocks are bit-identical
across ``sim | serial | thread | process``.

Transactions are consumed from the pool in **chunks** (pool pop order is
the preset order; nonce successors become ready only after their
predecessor commits, which bounds a chunk at one transaction per
sender).  A converged chunk commits a prefix into the shared
:class:`~repro.state.versioned.MultiVersionStore` in preset order, so
the resulting :class:`~repro.core.occ_wsi.ProposalResult` is
indistinguishable in shape from an OCC-WSI run — sealing, the
serializability oracle and the differential oracle all apply unchanged,
except that reads carry true **per-key version witnesses** (the oracle's
``multiversion`` semantics) rather than a global snapshot counter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.session import ProposalResult, ProposerEngine, ProposeSession
from repro.evm.interpreter import ExecutionContext
from repro.exec.hooks import apply_order
from repro.exec.tasks import (
    BlockSTMTask,
    BlockSTMTaskResult,
    MVEntry,
    run_blockstm_task,
)
from repro.simcore.costmodel import COST_MODEL
from repro.state.access import ReadWriteSet, StateKey
from repro.state.statedb import StateSnapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

__all__ = ["BlockSTMProposer"]


class _MVMemory:
    """Parent-side multi-version memory for one chunk.

    Per key, per chunk-local writer index: ``(incarnation, value,
    is_estimate)``.  The parent is the only mutator, so no locking — the
    workers see immutable per-wave snapshots (:meth:`snapshot`).
    """

    def __init__(self) -> None:
        self._entries: Dict[StateKey, Dict[int, Tuple[int, Any, bool]]] = {}
        self._writer_keys: Dict[int, Set[StateKey]] = {}

    def record(self, index: int, incarnation: int, writes: Dict[StateKey, Any]) -> bool:
        """Install ``index``'s writes, dropping keys its new incarnation no
        longer writes.  Returns whether any reader-visible state changed."""
        old_keys = self._writer_keys.get(index, set())
        new_keys = set(writes)
        for key in old_keys - new_keys:
            per_key = self._entries.get(key)
            if per_key is not None:
                per_key.pop(index, None)
                if not per_key:
                    del self._entries[key]
        for key, value in writes.items():
            self._entries.setdefault(key, {})[index] = (incarnation, value, False)
        self._writer_keys[index] = new_keys
        return bool(old_keys) or bool(new_keys)

    def mark_estimates(self, index: int) -> bool:
        """Turn ``index``'s live writes into ESTIMATE markers (on abort)."""
        changed = False
        for key in self._writer_keys.get(index, ()):
            per_key = self._entries.get(key)
            if per_key is not None and index in per_key:
                incarnation, value, _ = per_key[index]
                per_key[index] = (incarnation, value, True)
                changed = True
        return changed

    def resolve(self, key: StateKey, reader: int) -> Tuple[int, int, bool]:
        """Highest writer of ``key`` below ``reader``: ``(index,
        incarnation, is_estimate)``; ``(-1, 0, False)`` when none."""
        per_key = self._entries.get(key)
        if not per_key:
            return (-1, 0, False)
        best = -1
        for index in per_key:
            if best < index < reader:
                best = index
        if best < 0:
            return (-1, 0, False)
        incarnation, _, is_estimate = per_key[best]
        return (best, incarnation, is_estimate)

    def snapshot(self) -> Dict[StateKey, Tuple[MVEntry, ...]]:
        """Immutable per-wave view shipped to workers (sorted by writer)."""
        return {
            key: tuple(
                (index, entry[0], entry[1], entry[2])
                for index, entry in sorted(per_key.items())
            )
            for key, per_key in self._entries.items()
        }


class _ChunkOutcome:
    """Converged chunk: final per-transaction results plus the rule's own
    tallies (executions and aborts go straight to the session)."""

    __slots__ = ("final", "sim_time", "total_work", "waves", "suspensions", "max_incarnation")

    def __init__(self, n: int) -> None:
        self.final: List[Optional[BlockSTMTaskResult]] = [None] * n
        self.sim_time = 0.0
        self.total_work = 0.0
        self.waves = 0
        self.suspensions = 0
        self.max_incarnation = 0


class BlockSTMProposer(ProposerEngine):
    """Block-STM driver with the same surface as :class:`OCCWSIProposer`.

    With no backend the tasks run inline; either way the scheduler's
    decisions and the barrier-free lane schedule charged to the clock are
    identical, so blocks and timings are bit-identical across
    sim/serial/thread/process.  The ``probe`` steers wave width and
    execution order (conformance fuzzing only).
    """

    strategy = "block-stm"

    def _run_chunk(
        self,
        session: ProposeSession,
        chunk: List[Transaction],
        overlay: Dict[StateKey, Any],
        wave_base: int,
    ) -> _ChunkOutcome:
        """Converge one chunk: execute/suspend/validate to a fixpoint."""
        cfg = self.config
        model = COST_MODEL
        probe = self.probe
        tracer = self.tracer
        trace_on = tracer.enabled

        n = len(chunk)
        out = _ChunkOutcome(n)
        memory = _MVMemory()
        reads_of: List[Tuple[Tuple[StateKey, int, int], ...]] = [()] * n
        incarnations = [0] * n
        need_exec: Set[int] = set(range(n))
        executed = [False] * n
        suspended: Dict[int, int] = {}
        dependents: Dict[int, Set[int]] = {}
        max_waves = 1000 + 12 * n

        # Simulated clock: Block-STM's collaborative scheduler has no wave
        # barrier — a lane picks up the next task the moment it is free and
        # the task's inputs exist.  The waves above are a *deterministic
        # bookkeeping* construct (they fix which incarnation sees which
        # memory snapshot); the clock models the continuous schedule with
        # persistent per-lane finish times plus per-task ready times
        # (earliest start after the dependency/invalidating writer landed).
        lane_finish = [0.0] * max(1, cfg.lanes)
        ready = [0.0] * n
        completion = [0.0] * n
        validation_time = 0.0

        while need_exec:
            out.waves += 1
            if out.waves > max_waves:  # pragma: no cover - defensive valve
                raise RuntimeError(
                    f"block-stm chunk failed to converge after {max_waves} waves"
                )
            runnable = sorted(i for i in need_exec if i not in suspended)
            if not runnable:  # pragma: no cover - lowest pending never suspends
                raise RuntimeError("block-stm scheduler deadlock: all pending suspended")

            # -- wave selection (yield points; defaults = production) ---- #
            wave_index = wave_base + out.waves - 1
            width = cfg.lanes
            order: List[int] = list(range(len(runnable)))
            if probe is not None:
                width = max(1, min(cfg.lanes, probe.blockstm_wave_width(wave_index, cfg.lanes)))
                permuted = apply_order(
                    probe.blockstm_exec_order(wave_index, len(runnable)), len(runnable)
                )
                if permuted is not None:
                    order = permuted
            picked = [runnable[slot] for slot in order[:width]]

            mv_snapshot = memory.snapshot()
            tasks = [
                BlockSTMTask(chunk[i], i, incarnations[i], mv_snapshot, overlay)
                for i in picked
            ]
            results: List[BlockSTMTaskResult] = session.run(run_blockstm_task, tasks)

            # simulated lane scheduling (list scheduling, longest first):
            # completed incarnations cost their trace, suspensions only
            # the scheduler bookkeeping; a task starts at the later of its
            # lane coming free and its inputs being ready
            finish_of: Dict[int, float] = {}
            sched = []
            for res in results:
                if res.dep is not None:
                    cost = model.abort_overhead
                elif res.invalid is not None:
                    cost = model.tx_overhead
                else:
                    assert res.result is not None
                    cost = model.tx_cost(res.result.trace)
                sched.append((cost, res.index))
            for cost, i in sorted(sched, key=lambda item: (-item[0], item[1])):
                lane = min(range(len(lane_finish)), key=lambda j: (lane_finish[j], j))
                start = max(lane_finish[lane], ready[i])
                lane_finish[lane] = start + cost
                finish_of[i] = start + cost

            # -- apply results in preset order --------------------------- #
            changed_floor: Optional[int] = None
            for res in sorted(results, key=lambda r: r.index):
                i = res.index
                if res.dep is not None:
                    # an attempt that tripped an estimate cannot restart
                    # before this attempt ended (and, when registered, its
                    # dependency completed — set at resume time below)
                    ready[i] = max(ready[i], finish_of[i])
                    # suspend only while the dependency is still pending:
                    # a same-wave apply below this index may already have
                    # cleared the estimate this reader tripped on
                    if res.dep in need_exec:
                        out.suspensions += 1
                        suspended[i] = res.dep
                        dependents.setdefault(res.dep, set()).add(i)
                        if trace_on:
                            tracer.instant(
                                "blockstm_suspend", 0.0, tx=i, dep=res.dep, wave=wave_index
                            )
                    else:
                        ready[i] = max(ready[i], completion[res.dep])
                    continue
                session.executions += 1
                if res.invalid is None:
                    assert res.result is not None
                    out.total_work += model.tx_cost(res.result.trace)
                changed = memory.record(i, res.incarnation, res.writes)
                out.final[i] = res
                reads_of[i] = res.reads
                executed[i] = True
                need_exec.discard(i)
                completion[i] = finish_of[i]
                if changed and (changed_floor is None or i < changed_floor):
                    changed_floor = i
                for waiter in dependents.pop(i, ()):
                    suspended.pop(waiter, None)
                    ready[waiter] = max(ready[waiter], completion[i])

            # -- cooperative re-validation (preset order, from the lowest
            # position whose memory changed; aborts cascade in-pass) ----- #
            if changed_floor is None:
                continue
            validated_reads = 0
            for i in range(changed_floor + 1, n):
                if not executed[i]:
                    continue
                ok = True
                invalidated_by = -1
                for key, src_index, src_incarnation in reads_of[i]:
                    validated_reads += 1
                    cur_index, cur_incarnation, cur_estimate = memory.resolve(key, i)
                    if (
                        cur_estimate
                        or cur_index != src_index
                        or (cur_index >= 0 and cur_incarnation != src_incarnation)
                    ):
                        ok = False
                        invalidated_by = cur_index
                        break
                if ok:
                    continue
                session.aborts += 1
                memory.mark_estimates(i)
                executed[i] = False
                out.final[i] = None
                incarnations[i] += 1
                out.max_incarnation = max(out.max_incarnation, incarnations[i])
                need_exec.add(i)
                # the retry cannot start before the write that invalidated
                # this incarnation existed (nor before its own last attempt)
                ready[i] = max(ready[i], completion[i])
                if invalidated_by >= 0:
                    ready[i] = max(ready[i], completion[invalidated_by])
                if trace_on:
                    tracer.instant(
                        "blockstm_abort",
                        0.0,
                        tx=i,
                        incarnation=incarnations[i],
                        wave=wave_index,
                    )
            # validation is embarrassingly parallel over the lanes; an
            # invalidated incarnation pays its cost on the retry wave
            validation_time += validated_reads * model.validate_per_read / cfg.lanes
        out.sim_time = max(lane_finish) + validation_time
        return out

    # ------------------------------------------------------------------ #

    def propose(
        self, base: StateSnapshot, pool: TxPool, ctx: ExecutionContext
    ) -> ProposalResult:
        """Build one block under the Block-STM collaborative scheduler."""
        cfg = self.config
        model = COST_MODEL
        session = ProposeSession(self, base, pool, ctx)
        store = session.store
        suspensions = 0
        waves = 0
        chunks = 0
        max_incarnation = 0
        chunk_cap = max(32, cfg.lanes * 8)

        while not session.full():
            chunk = session.pop_batch(chunk_cap)
            if not chunk:
                break
            chunks += 1
            outcome = self._run_chunk(session, chunk, store.final_values(), waves)
            waves += outcome.waves
            suspensions += outcome.suspensions
            session.clock += outcome.sim_time
            session.total_work += outcome.total_work
            max_incarnation = max(max_incarnation, outcome.max_incarnation)

            # committed-prefix versions of keys this chunk read from the
            # store/base, captured before the chunk's own commits land
            prior_versions: Dict[StateKey, int] = {}
            for res in outcome.final:
                if res is None:  # pragma: no cover - convergence guarantees
                    raise RuntimeError("block-stm chunk left an unexecuted transaction")
                for key, src_index, _ in res.reads:
                    if src_index < 0 and key not in prior_versions:
                        prior_versions[key] = store.latest_version(key)

            # -- commit the converged prefix in preset order ------------- #
            version_of: Dict[int, int] = {}
            for i, tx in enumerate(chunk):
                if session.full():
                    # gas/tx budget cut: everything at or past the cut
                    # returns to the pool for the next block (the prefix
                    # below the cut only ever read inside itself)
                    session.defer(tx)
                    continue
                res = outcome.final[i]
                assert res is not None
                if res.result is None:
                    session.drop_invalid(tx)
                    session.trace("invalid_tx", tx, session.clock)
                    continue
                reads_global: Dict[StateKey, int] = {}
                for key, src_index, _ in res.reads:
                    if src_index >= 0:
                        reads_global[key] = version_of[src_index]
                    else:
                        reads_global[key] = prior_versions[key]
                rw = ReadWriteSet(reads=reads_global, writes=dict(res.rw_writes))
                # lazy commit: no serial section — marking a converged
                # transaction COMMITTED parallelises across the lanes
                session.clock += model.commit_overhead / cfg.lanes
                # reads carry per-key witnesses, so the snapshot is simply
                # the position below this one
                version_of[i] = session.commit(
                    tx, res.result, rw, res.writes, store.committed_version
                )
                session.trace("commit", tx, session.clock, version=version_of[i])

        return session.finish(
            {
                "waves": waves,
                "chunks": chunks,
                "suspensions": suspensions,
                "max_incarnation": max_incarnation,
            },
            {
                "blockstm.waves": waves,
                "blockstm.suspensions": suspensions,
                "blockstm.validation_aborts": session.aborts,
            },
        )
