"""Proposer strategy registry plus the two-phase OCC reference engine.

Three intra-block execution strategies share the proposer surface
(``propose(base, pool, ctx) -> ProposalResult``) and are selected by
:attr:`~repro.core.occ_wsi.ProposerConfig.strategy`:

``occ-wsi``
    Algorithm 1 (:class:`~repro.core.occ_wsi.OCCWSIProposer`): continuous
    optimistic lanes, reserve-table validation, abort-and-retry.
``two-phase``
    Saraph & Herlihy's speculative two-phase scheme (this module): a
    parallel phase executes a batch against the *round snapshot*, a
    greedy pass keeps the conflict-free prefix-closure, and everything
    that conflicted (or looked invalid) re-executes serially in phase 2.
``block-stm``
    Multi-version suspend-on-ESTIMATE
    (:class:`~repro.core.blockstm.BlockSTMProposer`).

All three commit through the same :class:`MultiVersionStore`, so sealing
and the conformance oracles treat their proposals uniformly; the
``strategy`` tag on :class:`ProposalResult` is what routes oracle version
semantics and names the engine in violation reports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from repro.core.blockstm import BlockSTMProposer
from repro.core.occ_wsi import OCCWSIProposer
from repro.core.session import (
    ProposalResult,
    ProposerConfig,
    ProposerEngine,
    ProposeSession,
)
from repro.evm.interpreter import EVM, ExecutionContext
from repro.exec.backend import ExecutionBackend
from repro.exec.hooks import ScheduleProbe
from repro.obs.metrics import MetricsRegistry
from repro.simcore.costmodel import CostModel
from repro.state.access import ReadWriteSet
from repro.state.statedb import StateSnapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

__all__ = [
    "STRATEGY_CHOICES",
    "TwoPhaseProposer",
    "build_proposer",
]

#: Accepted values for ``ProposerConfig.strategy`` / ``--strategy``.
STRATEGY_CHOICES = ("occ-wsi", "two-phase", "block-stm")


class TwoPhaseProposer(ProposerEngine):
    """Two-phase OCC: speculate a batch in parallel, redo conflicts serially.

    Each *round* pops up to ``lanes`` ready transactions:

    1. **Phase 1** executes the whole batch against the round snapshot
       (:meth:`ProposeSession.speculative_round`); the task inputs are the
       same on every executor, so block contents never depend on the
       backend.
    2. A greedy pass in batch order accepts every transaction whose
       read/write set does not conflict (rw, wr or ww) with an
       already-accepted member: the accepted set is pairwise
       independent, so committing it in batch order is serializable with
       all reads witnessed at the round snapshot.
    3. **Phase 2** re-executes the rejects *serially* against live
       committed state (the paper's fallback phase); transactions that
       remain invalid are dropped.

    The round barrier between the phases is the scheme's cost: one
    ``commit_sync_per_lane * lanes`` synchronisation per round plus the
    fully serial phase 2 — exactly the shape the ablation benchmark
    contrasts against OCC-WSI's abort storms and Block-STM's suspensions.

    The ``probe`` is accepted for constructor parity only: phase 1 is a
    barrier over the whole batch and both the greedy pass and phase 2 are
    defined in batch order, so there is no worker race to steer.
    """

    strategy = "two-phase"

    def propose(
        self, base: StateSnapshot, pool: TxPool, ctx: ExecutionContext
    ) -> ProposalResult:
        """Run speculative rounds until the gas limit or pool exhaustion."""
        model = self.cost_model
        session = ProposeSession(self, base, pool, ctx)
        phase2_runs = 0

        stop = False
        while not stop and not session.full():
            round_ = session.speculative_round(self.config.lanes)
            if round_ is None:
                break
            batch, outs, snapshot_version = round_

            # -- greedy conflict-free prefix (batch order) -------------- #
            accepted_sets: List[ReadWriteSet] = []
            retry: List[Transaction] = []
            for tx, out in zip(batch, outs):
                if stop or session.full():
                    stop = True
                    session.defer(tx)
                    continue
                if out.result is None or out.rw is None:
                    retry.append(tx)  # looked invalid at the round snapshot
                    continue
                if any(out.rw.conflicts_with(prev) for prev in accepted_sets):
                    session.aborts += 1  # phase-1 result discarded to phase 2
                    session.trace("two_phase_conflict", tx, session.clock)
                    retry.append(tx)
                    continue
                accepted_sets.append(out.rw)
                session.clock += model.commit_overhead
                version = session.commit(tx, out.result, out.rw, out.writes, snapshot_version)
                session.trace("commit", tx, session.clock, version=version)

            # -- phase 2: serial re-execution of the rejects ------------ #
            for tx in retry:
                if stop or session.full():
                    stop = True
                    session.defer(tx)
                    continue
                snapshot_version = session.store.committed_version
                out = session.speculate(tx)
                if out.result is None or out.rw is None:
                    session.drop_invalid(tx)
                    session.clock += model.tx_overhead
                    session.trace("invalid_tx", tx, session.clock)
                    continue
                phase2_runs += 1
                session.clock += session.charge(out) + model.commit_overhead
                version = session.commit(tx, out.result, out.rw, out.writes, snapshot_version)
                session.trace("commit", tx, session.clock, version=version, phase=2)

        return session.finish(
            {"rounds": session.rounds, "phase2_serial": phase2_runs},
            {"two_phase.rounds": session.rounds, "two_phase.serial_retries": phase2_runs},
        )


_ENGINES: Dict[str, Type[ProposerEngine]] = {
    "occ-wsi": OCCWSIProposer,
    "two-phase": TwoPhaseProposer,
    "block-stm": BlockSTMProposer,
}


def build_proposer(
    config: Optional[ProposerConfig] = None,
    *,
    evm: Optional[EVM] = None,
    cost_model: Optional[CostModel] = None,
    tracer: Any = None,
    metrics: Optional[MetricsRegistry] = None,
    backend: Optional[ExecutionBackend] = None,
    probe: Optional[ScheduleProbe] = None,
) -> ProposerEngine:
    """Instantiate the proposer engine selected by ``config.strategy``.

    Every engine shares the constructor surface, so call sites
    (:class:`~repro.network.node.ProposerNode`, the CLI, the fuzzer)
    switch strategies by configuration alone.
    """
    cfg = config or ProposerConfig()
    try:
        engine = _ENGINES[cfg.strategy]
    except KeyError:
        raise ValueError(
            f"unknown proposer strategy {cfg.strategy!r}; "
            f"expected one of {', '.join(STRATEGY_CHOICES)}"
        ) from None
    return engine(
        evm=evm,
        config=cfg,
        cost_model=cost_model,
        tracer=tracer,
        metrics=metrics,
        backend=backend,
        probe=probe,
    )
