"""Baseline executors the paper compares against.

* :class:`SerialExecutor` — geth-style serial processing, the denominator
  of every speedup figure.  One lane, block order, apply-as-you-go.
* :class:`TwoPhaseOCCExecutor` — the "OCC" comparator of Fig. 7(a),
  after Saraph & Herlihy [27]: phase one speculatively executes all
  transactions in parallel against the block-start snapshot; any
  transaction whose key-level footprint collides with another's write set
  is discarded and re-executed **serially** in phase two.  Under hotspot
  contention most of the block lands in phase two, which is why BlockPilot
  (serial chains *scheduled* across lanes) beats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.block import Block
from repro.chain.params import DEFAULT_CHAIN_PARAMS, ChainParams
from repro.core.proposer import finalize_block_state
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction, TxResult
from repro.simcore.costmodel import COST_MODEL
from repro.simcore.lanes import lpt_makespan
from repro.state.access import ReadWriteSet, RecordingState
from repro.state.statedb import StateDB, StateSnapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

__all__ = [
    "SerialResult",
    "SerialExecutor",
    "TwoPhaseOCCResult",
    "TwoPhaseOCCExecutor",
]


@dataclass
class SerialResult:
    """Outcome of a serial run (block validation or block building)."""

    post_state: StateSnapshot
    tx_results: List[TxResult]
    tx_costs: List[float]
    total_time: float
    total_fees: int
    packed: List[Transaction] = field(default_factory=list)
    invalid_dropped: int = 0

    @property
    def gas_used(self) -> int:
        return sum(r.gas_used for r in self.tx_results)


class SerialExecutor:
    """Geth-like serial execution: one thread, block order."""

    def __init__(self, params: ChainParams = DEFAULT_CHAIN_PARAMS) -> None:
        self.evm = EVM()
        self.params = params

    def execute_block(
        self, block: Block, parent_state: StateSnapshot, ctx: Optional[ExecutionContext] = None
    ) -> SerialResult:
        """Process a received block serially (the validator baseline).

        Raises :class:`InvalidTransaction` if the block contains one — a
        serial validator would reject such a block outright.
        """
        if ctx is None:
            ctx = ExecutionContext.from_header(block.header)
        model = COST_MODEL
        db = StateDB(parent_state)
        tx_results: List[TxResult] = []
        tx_costs: List[float] = []
        total_fees = 0
        time = 0.0
        for tx in block.transactions:
            result = self.evm.apply_transaction(db, tx, ctx)
            tx_results.append(result)
            cost = model.tx_cost(result.trace)
            tx_costs.append(cost)
            time += cost + model.applier_per_tx
            total_fees += result.fee
        time += model.block_epilogue + model.block_commit
        post_state = finalize_block_state(
            db,
            coinbase=block.header.coinbase,
            total_fees=total_fees,
            block_number=block.number,
            uncles=block.uncles,
            params=self.params,
        )
        return SerialResult(
            post_state=post_state,
            tx_results=tx_results,
            tx_costs=tx_costs,
            total_time=time,
            total_fees=total_fees,
            packed=list(block.transactions),
        )

    def propose_serial(
        self,
        base: StateSnapshot,
        pool: TxPool,
        ctx: ExecutionContext,
        *,
        gas_limit: int = 30_000_000,
        max_txs: Optional[int] = None,
    ) -> SerialResult:
        """Serial block building (the proposer baseline of Fig. 6).

        Pops the best-priced ready transaction, executes, commits, repeats
        until the gas limit; each commit pays the same ``commit_overhead``
        the parallel proposer's critical section does.
        """
        model = COST_MODEL
        db = StateDB(base)
        tx_results: List[TxResult] = []
        tx_costs: List[float] = []
        packed: List[Transaction] = []
        total_fees = 0
        invalid = 0
        cur_gas = 0
        time = 0.0
        while cur_gas < gas_limit and (max_txs is None or len(packed) < max_txs):
            tx = pool.pop_best()
            if tx is None:
                break
            try:
                result = self.evm.apply_transaction(db, tx, ctx)
            except InvalidTransaction:
                pool.drop(tx)
                invalid += 1
                time += model.tx_overhead
                continue
            cost = model.tx_cost(result.trace)
            time += cost + model.commit_overhead
            tx_results.append(result)
            tx_costs.append(cost)
            packed.append(tx)
            cur_gas += result.gas_used
            total_fees += result.fee
            pool.mark_packed(tx)
        post_state = db.commit()
        return SerialResult(
            post_state=post_state,
            tx_results=tx_results,
            tx_costs=tx_costs,
            total_time=time,
            total_fees=total_fees,
            packed=packed,
            invalid_dropped=invalid,
        )


@dataclass
class TwoPhaseOCCResult:
    """Outcome of the two-phase speculative OCC validator run."""

    post_state: StateSnapshot
    total_time: float
    phase1_time: float
    phase2_time: float
    conflicted: List[int]  # tx indices re-executed serially
    tx_results: List[TxResult]
    serial_time: float

    @property
    def speedup(self) -> float:
        return self.serial_time / self.total_time if self.total_time > 0 else 1.0


class TwoPhaseOCCExecutor:
    """Saraph & Herlihy's speculative two-phase scheduler [27]."""

    def __init__(self, lanes: int = 16, params: ChainParams = DEFAULT_CHAIN_PARAMS) -> None:
        self.evm = EVM()
        self.lanes = lanes
        self.params = params

    def execute_block(
        self, block: Block, parent_state: StateSnapshot, ctx: Optional[ExecutionContext] = None
    ) -> TwoPhaseOCCResult:
        if ctx is None:
            ctx = ExecutionContext.from_header(block.header)
        model = COST_MODEL
        n = len(block.transactions)

        # ---- phase 1: speculative execution against the parent snapshot --- #
        spec_rw: List[Optional[ReadWriteSet]] = [None] * n
        spec_cost: List[float] = [0.0] * n
        spec_invalid: List[bool] = [False] * n
        for index, tx in enumerate(block.transactions):
            scratch = StateDB(parent_state)
            rec = RecordingState(scratch)
            try:
                result = self.evm.apply_transaction(rec, tx, ctx)
            except InvalidTransaction:
                # e.g. second tx of a sender: nonce depends on the first —
                # inherently serial, goes to phase 2
                spec_invalid[index] = True
                spec_cost[index] = model.tx_overhead
                continue
            spec_rw[index] = rec.rw
            spec_cost[index] = model.tx_cost(result.trace)

        # conflict detection: key-level footprint collisions
        conflicted = set(i for i in range(n) if spec_invalid[i])
        for i in range(n):
            if spec_rw[i] is None:
                continue
            for j in range(i + 1, n):
                if spec_rw[j] is None:
                    continue  # already conflicted via spec_invalid
                if spec_rw[i].conflicts_with(spec_rw[j]):
                    conflicted.add(i)
                    conflicted.add(j)

        # phase-1 timing: txs spread over lanes, LPT by speculative cost
        phase1 = lpt_makespan(spec_cost, self.lanes)

        # ---- real execution, block order (ground-truth state) -------------- #
        truth = SerialExecutor(params=self.params).execute_block(block, parent_state, ctx)
        real_costs = truth.tx_costs

        # ---- phase 2: serial re-execution of conflicted transactions ------- #
        phase2 = sum(real_costs[i] for i in sorted(conflicted))

        total = (
            phase1
            + phase2
            + model.applier_per_tx * n
            + model.block_epilogue
            + model.block_commit
        )
        serial_time = (
            sum(real_costs)
            + model.applier_per_tx * n
            + model.block_epilogue
            + model.block_commit
        )
        return TwoPhaseOCCResult(
            post_state=truth.post_state,
            total_time=total,
            phase1_time=phase1,
            phase2_time=phase2,
            conflicted=sorted(conflicted),
            tx_results=truth.tx_results,
            serial_time=serial_time,
        )
