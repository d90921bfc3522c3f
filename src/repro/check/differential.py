"""Differential oracle: parallel execution vs the serial ground truth.

The strongest correctness statement BlockPilot can make is extensional:
whatever the proposer's OCC-WSI interleaving or the validator's component
schedule did, the sealed block must be *indistinguishable* from one
produced by executing its transactions serially in block order from the
parent snapshot.  This module re-derives that serial ground truth with a
fresh EVM and recording state, then diffs every observable artifact:

* the post-state root in the header,
* every receipt (success flag, gas, cumulative gas, log count),
* the block profile's per-transaction read/write sets and gas,
* total gas used,
* structural commitments (transaction root, receipt root, profile order).

:func:`diff_proposal` additionally audits the proposer's local artifacts —
the :class:`~repro.core.proposer.SealedProposal`'s post-state and the
:class:`~repro.simcore.stats.RunStats` bookkeeping — for internal
consistency with the block that shipped.

Findings are data, not exceptions: callers (tests, benchmarks, the
``python -m repro check`` CLI, the fuzzer) decide how to react.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.block import Block, receipts_root
from repro.chain.params import DEFAULT_CHAIN_PARAMS, ChainParams
from repro.core.proposer import SealedProposal, finalize_block_state
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction
from repro.state.access import RecordingState
from repro.state.statedb import StateDB, StateSnapshot

__all__ = ["DiffFinding", "DifferentialReport", "diff_block", "diff_proposal"]


@dataclass(frozen=True)
class DiffFinding:
    """One observable divergence between the block and its serial replay."""

    kind: str
    #: Transaction index the finding is anchored to (-1 = block level).
    index: int
    detail: str

    def describe(self) -> str:
        where = f"tx[{self.index}]" if self.index >= 0 else "block"
        return f"{self.kind} @ {where}: {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome of one serial-replay diff."""

    ok: bool
    n_txs: int
    findings: List[DiffFinding] = field(default_factory=list)
    #: Root the serial replay produced (None if replay aborted early).
    serial_state_root: Optional[bytes] = None
    #: Proposer strategy behind the diffed artifact ("" when unknown) —
    #: named in summaries so a divergence points at its engine.
    strategy: str = ""

    def add(self, kind: str, index: int, detail: str) -> None:
        self.findings.append(DiffFinding(kind, index, detail))
        self.ok = False

    def summary(self) -> str:
        origin = f"[{self.strategy}] " if self.strategy else ""
        head = (
            f"{origin}differential: {'OK' if self.ok else 'DIVERGED'} — "
            f"{self.n_txs} txs, {len(self.findings)} findings"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f.describe() for f in self.findings])


def diff_block(
    block: Block,
    parent_state: StateSnapshot,
    *,
    params: ChainParams = DEFAULT_CHAIN_PARAMS,
) -> DifferentialReport:
    """Re-execute ``block`` serially from ``parent_state`` and diff.

    ``params`` must match the chain's reward schedule or the fee/reward
    finalization will diverge on the state root alone.
    """
    evm = EVM()
    report = DifferentialReport(ok=True, n_txs=len(block.transactions))

    try:
        block.validate_structure()
    except ValueError as exc:
        report.add("structure", -1, str(exc))
    if block.receipts and receipts_root(block.receipts) != block.header.receipts_root:
        report.add("structure", -1, "receipts root mismatch")

    ctx = ExecutionContext.from_header(block.header)

    db = StateDB(parent_state)
    total_fees = 0
    total_gas = 0
    cumulative = 0
    if len(block.receipts) != len(block.transactions):
        report.add(
            "receipt_count",
            -1,
            f"{len(block.receipts)} receipts for {len(block.transactions)} txs",
        )

    for index, tx in enumerate(block.transactions):
        rec = RecordingState(db)
        try:
            result = evm.apply_transaction(rec, tx, ctx)
        except InvalidTransaction as exc:
            # A sealed block must not contain a transaction the serial
            # validator rejects; everything after this point would replay
            # against the wrong state, so stop here.
            report.add("invalid_tx", index, f"serial replay rejected tx: {exc}")
            return report
        total_fees += result.fee
        total_gas += result.gas_used
        cumulative += result.gas_used

        if index < len(block.receipts):
            receipt = block.receipts[index]
            if receipt.success != result.success:
                report.add(
                    "receipt_success",
                    index,
                    f"receipt says success={receipt.success}, "
                    f"serial replay got {result.success}",
                )
            if receipt.gas_used != result.gas_used:
                report.add(
                    "receipt_gas",
                    index,
                    f"receipt gas {receipt.gas_used} != serial {result.gas_used}",
                )
            if receipt.cumulative_gas != cumulative:
                report.add(
                    "receipt_cumulative_gas",
                    index,
                    f"receipt cumulative {receipt.cumulative_gas} != "
                    f"serial {cumulative}",
                )
            if receipt.log_count != len(result.logs):
                report.add(
                    "receipt_logs",
                    index,
                    f"receipt logs {receipt.log_count} != serial {len(result.logs)}",
                )

        if block.profile is not None and index < len(block.profile.entries):
            entry = block.profile.entries[index]
            frozen = rec.rw.freeze()
            if entry.gas_used != result.gas_used:
                report.add(
                    "profile_gas",
                    index,
                    f"profile gas {entry.gas_used} != serial {result.gas_used}",
                )
            if entry.success != result.success:
                report.add(
                    "profile_success",
                    index,
                    f"profile success={entry.success}, serial={result.success}",
                )
            if entry.rw.read_keys() != frozen.read_keys():
                missing = entry.rw.read_keys() ^ frozen.read_keys()
                report.add(
                    "profile_reads",
                    index,
                    f"profile read set differs from serial replay "
                    f"({len(missing)} keys)",
                )
            if entry.rw.write_items() != frozen.write_items():
                report.add(
                    "profile_writes",
                    index,
                    "profile write set (keys or values) differs from serial replay",
                )

    if total_gas != block.header.gas_used:
        report.add(
            "gas_used",
            -1,
            f"header gas_used {block.header.gas_used} != serial {total_gas}",
        )

    serial_post = finalize_block_state(
        db,
        coinbase=block.header.coinbase,
        total_fees=total_fees,
        block_number=block.number,
        uncles=block.uncles,
        params=params,
    )
    serial_root = serial_post.state_root()
    report.serial_state_root = bytes(serial_root)
    if serial_root != block.header.state_root:
        report.add(
            "state_root",
            -1,
            f"header root {block.header.state_root.hex()[:16]}… != "
            f"serial root {bytes(serial_root).hex()[:16]}…",
        )
    return report


def diff_proposal(
    sealed: SealedProposal,
    parent_state: StateSnapshot,
    *,
    params: ChainParams = DEFAULT_CHAIN_PARAMS,
) -> DifferentialReport:
    """Diff a sealed proposal against serial replay *and* its own books.

    Everything :func:`diff_block` checks, plus the proposer-local
    artifacts a validator never sees: the retained post-state, the
    commit-version sequence, and the RunStats counters the observability
    layer exports.  An inconsistency here means the proposer's block is
    (perhaps) fine but its bookkeeping lies — the kind of silent drift a
    refactor of the drivers could introduce without failing any
    state-root test.
    """
    report = diff_block(sealed.block, parent_state, params=params)
    proposal = sealed.proposal
    report.strategy = getattr(proposal, "strategy", "")
    committed = proposal.committed

    if sealed.post_state.state_root() != sealed.block.header.state_root:
        report.add(
            "post_state",
            -1,
            "sealed post_state root differs from the shipped header root",
        )

    if len(committed) != len(sealed.block.transactions):
        report.add(
            "committed_count",
            -1,
            f"{len(committed)} committed txs vs "
            f"{len(sealed.block.transactions)} in block",
        )

    for position, c in enumerate(committed, start=1):
        if c.version != position:
            report.add(
                "commit_version",
                position - 1,
                f"committed version {c.version} at position {position}",
            )
        if c.snapshot_version >= c.version:
            report.add(
                "snapshot_version",
                position - 1,
                f"snapshot v{c.snapshot_version} not before commit v{c.version}",
            )

    stats = proposal.stats
    recorded = stats.extra.get("committed")
    if recorded is not None and recorded != len(committed):
        report.add(
            "stats_committed",
            -1,
            f"RunStats.extra['committed']={recorded} but {len(committed)} committed",
        )
    if stats.aborts > stats.tasks:
        report.add(
            "stats_aborts",
            -1,
            f"RunStats reports {stats.aborts} aborts out of {stats.tasks} executions",
        )
    dropped = stats.extra.get("invalid_dropped")
    if dropped is not None and dropped != proposal.invalid_dropped:
        report.add(
            "stats_invalid_dropped",
            -1,
            f"RunStats.extra['invalid_dropped']={dropped} but proposal "
            f"recorded {proposal.invalid_dropped}",
        )
    if proposal.gas_used != sealed.block.header.gas_used:
        report.add(
            "proposal_gas",
            -1,
            f"proposal gas {proposal.gas_used} != header {sealed.block.header.gas_used}",
        )
    return report
