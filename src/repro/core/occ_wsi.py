"""OCC-WSI: the proposer's optimistic parallel execution (Algorithm 1).

Worker threads repeatedly pop the best pending transaction, execute it
against a **snapshot** of the state at the version current when they
started, and validate at commit time against the **reserve table**: if any
key in the transaction's read set carries a version newer than the
snapshot, the transaction aborts back to the pool (``PushHeap``).
Write-write conflicts do not abort — that is the Write-Snapshot-Isolation
relaxation (§4.2): blind writes still serialize in commit order.

Every transaction *really executes* (through the EVM against a
multi-version view), so aborts, retries, read/write sets and the final
state are real; only durations are modelled
(:class:`~repro.core.session.ProposeSession` owns the clock and all the
block-building bookkeeping).  The committed sequence is serializable by
construction: each committed transaction read only data at or before its
snapshot version and nothing it read changed before its commit — replaying
commits serially in commit order reproduces the identical state (a
property the test suite checks).

The rule runs under one of two **schedules**, chosen by the executor:

* **async lanes** (no backend): a discrete-event loop over simulated
  lanes that free-run — a lane pops its next transaction the moment it
  commits or aborts.  Commits are serialised through a single critical
  section ("Synchronize with all worker threads", Algorithm 1 line 23);
  that serial section plus wasted aborted work is what bends the
  proposer's scaling curve (Fig. 6).
* **waves** (a real backend): on real cores the async interleaving would
  depend on OS scheduling and the block would differ run to run, so the
  rule proceeds in deterministic barrier rounds — pop up to ``lanes``
  transactions (the *logical* width, independent of ``backend.workers``),
  speculate them in parallel against one snapshot, then walk the wave in
  batch order through the same commit rule.  Only intra-wave commits can
  conflict and the first valid member always commits, so the pool drains;
  block contents, roots and abort/commit decisions are bit-identical
  across serial, thread and process backends.  The barrier wastes the
  tail of every round, which is the deterministic-abort OCC shape the
  §2.3 ablation (``bench_ablation_occ_variants``) contrasts with the
  free-running lanes.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.session import (
    ProposalResult,
    ProposerConfig,
    ProposerEngine,
    ProposeSession,
)
from repro.evm.interpreter import ExecutionContext
from repro.exec.hooks import apply_order
from repro.exec.tasks import ProposeTaskResult
from repro.simcore.events import EventQueue
from repro.state.access import StateKey
from repro.state.statedb import StateSnapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

# ProposerConfig / ProposalResult live with the session; re-exported here
# because this module is where callers have always imported them from
__all__ = ["ProposerConfig", "ProposalResult", "OCCWSIProposer"]


class _ReserveTable:
    """Algorithm 1's ``Table``: the version of the last commit that wrote
    each key — the whole of OCC-WSI's conflict rule, on either schedule."""

    def __init__(self, session: ProposeSession) -> None:
        self._session = session
        self._versions: Dict[StateKey, int] = {}

    def stale(self, out: ProposeTaskResult, snapshot_version: int) -> bool:
        """Whether anything ``out`` read was committed after its snapshot."""
        assert out.rw is not None
        versions = self._versions
        return any(versions.get(key, 0) > snapshot_version for key in out.rw.reads)

    def commit(self, tx: Transaction, out: ProposeTaskResult, snapshot_version: int) -> int:
        """Pack ``tx`` and reserve every key it wrote at its version."""
        assert out.result is not None and out.rw is not None
        version = self._session.commit(tx, out.result, out.rw, out.writes, snapshot_version)
        for key in out.rw.writes:
            self._versions[key] = version
        return version


class OCCWSIProposer(ProposerEngine):
    """Algorithm 1 driver (see the module docstring for the two schedules)."""

    strategy = "occ-wsi"

    def propose(
        self, base: StateSnapshot, pool: TxPool, ctx: ExecutionContext
    ) -> ProposalResult:
        """Run parallel block building until the gas limit or pool exhaustion."""
        session = ProposeSession(self, base, pool, ctx)
        # free-running lanes exist only on the simulated clock; real
        # workers get the schedule whose outcome no OS interleaving moves
        if self.backend is None:
            return self._propose_async(session)
        return self._propose_waves(session)

    def _propose_async(self, session: ProposeSession) -> ProposalResult:
        """Free-running simulated lanes over a discrete-event queue."""
        lanes = self.config.lanes
        model = self.cost_model
        pool = session.pool
        trace_on = session.trace_on  # hoisted: the hot loop pays one check
        reserve = _ReserveTable(session)

        queue = EventQueue()
        idle: Set[int] = set()
        for lane in range(lanes):
            queue.push(0.0, ("free", lane))
        commit_free = 0.0

        def wake_idle(now: float) -> None:
            while idle and pool.has_ready():
                lane = min(idle)
                idle.discard(lane)
                queue.push(now, ("free", lane))

        for event in queue.drain():
            now = event.time
            payload = event.payload

            if payload[0] == "free":
                lane = payload[1]
                tx = None if session.full() else session.pop()
                if tx is None:
                    idle.add(lane)
                    continue
                snapshot_version = session.store.committed_version
                out = session.speculate(tx)
                if out.invalid is not None:
                    session.drop_invalid(tx)
                    session.trace("invalid_tx", tx, now, lane=lane)
                    queue.push(now + model.tx_overhead, ("free", lane))
                    continue
                cost = session.charge(out)
                if trace_on:
                    session.trace(
                        "execute", tx, now, now + cost, lane=lane, snapshot=snapshot_version
                    )
                queue.push(now + cost, ("finish", lane, tx, out, snapshot_version))
                continue

            _, lane, tx, out, snapshot_version = payload  # "finish"

            if session.full():
                # sealed while this execution was in flight
                session.defer(tx)
                idle.add(lane)
                continue

            if reserve.stale(out, snapshot_version):
                retries = session.abort(tx)
                if trace_on:
                    session.trace(
                        "abort", tx, now, lane=lane, retries=retries, snapshot=snapshot_version
                    )
                queue.push(now + model.abort_overhead, ("free", lane))
                wake_idle(now)
                continue

            # commit: serialised critical section plus the line-23 barrier,
            # whose cost scales with the worker count
            commit_start = max(now, commit_free)
            commit_free = session.clock = (
                commit_start + model.commit_overhead + model.commit_sync_per_lane * lanes
            )
            version = reserve.commit(tx, out, snapshot_version)
            if trace_on:
                session.trace(
                    "commit", tx, commit_start, commit_free, lane=lane, version=version
                )
            queue.push(commit_free, ("free", lane))
            wake_idle(commit_free)

        return session.finish()

    def _propose_waves(self, session: ProposeSession) -> ProposalResult:
        """Deterministic barrier rounds for real backends.

        The clock pays what the round costs on ``lanes`` simulated lanes
        (:meth:`ProposeSession.speculative_round`) plus the serial
        ``commit_overhead`` per commit.  Trace spans alone are placed on
        wall time: workers report elapsed wall time and have no shared
        clock origin, so a wave's executions all start at the wave start.
        """
        lanes = self.config.lanes
        model = self.cost_model
        # conformance yield points (repro.exec.hooks); None = production defaults
        probe = self.probe
        reserve = _ReserveTable(session)

        while not session.full():
            # yield point: a narrower wave models workers that started late
            # and popped nothing before the wave's snapshot was taken
            width = lanes
            if probe is not None:
                width = max(1, min(lanes, probe.wave_width(session.rounds, lanes)))
            wave_start = session.wall_us()
            wave = session.speculative_round(width)
            if wave is None:
                break
            batch, outs, snapshot_version = wave

            # -- deterministic commit section (parent only, batch order) -- #
            # yield point: any permutation of the wave's slots models workers
            # racing into Algorithm 1's critical section in a different order
            slot_order: List[int] = list(range(len(batch)))
            if probe is not None:
                permuted = apply_order(
                    probe.wave_commit_order(session.rounds - 1, len(batch)), len(batch)
                )
                if permuted is not None:
                    slot_order = permuted
            for slot in slot_order:
                tx, out = batch[slot], outs[slot]
                if out.invalid is not None:
                    session.drop_invalid(tx)
                    session.trace("invalid_tx", tx, wave_start, lane=slot)
                    continue
                session.trace(
                    "execute",
                    tx,
                    wave_start,
                    wave_start + out.elapsed_us,
                    lane=slot,
                    snapshot=snapshot_version,
                )
                if session.full():
                    # sealed earlier in this wave
                    session.defer(tx)
                    continue
                if reserve.stale(out, snapshot_version):
                    # some earlier wave member wrote a key this one read:
                    # first-committer-wins
                    retries = session.abort(tx)
                    session.trace(
                        "abort",
                        tx,
                        session.wall_us(),
                        lane=slot,
                        retries=retries,
                        snapshot=snapshot_version,
                    )
                    continue
                session.clock += model.commit_overhead
                version = reserve.commit(tx, out, snapshot_version)
                session.trace("commit", tx, session.wall_us(), lane=slot, version=version)

        return session.finish(
            {"waves": session.rounds},
            {"proposer.waves": session.rounds},
            trace_end=session.wall_us(),
        )
