"""The applier: Algorithm 2's read/write-set and state verification.

"The applier collects read-write sets from workers, checks them against
the block profile, and authenticates them.  Once all read and write sets
in the block profile are verified, the applier confirms the world state
aligns with the expected one" (§4.4).

The checks are exact:

* the re-executed **read key set** must equal the profile's (versions are
  context-relative and not compared);
* the re-executed **write set** must match key-for-key *and value-for-
  value* — a proposer cannot claim writes it did not perform nor hide
  writes it did;
* per-transaction gas and success flag must match the profile;
* after all transactions, the recomputed state root must equal the
  header's, the recomputed receipts must hash to the header's receipt
  root (and give its gas total and logs bloom), and receipts the block
  ships must equal the recomputed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.chain.block import Block, Receipt, TxProfileEntry, receipts_root
from repro.chain.bloom import bloom_from_logs
from repro.evm.interpreter import TxResult
from repro.faults.errors import FailureReason, ValidationFailure
from repro.state.access import ReadWriteSet
from repro.state.statedb import StateSnapshot

__all__ = ["ProfileMismatch", "ValidationOutcome", "Applier"]


class ProfileMismatch(Exception):
    """Re-executed transaction disagrees with the block profile.

    ``code`` classifies the disagreement (read set, write set, or the
    gas/status claims) so callers can build a typed
    :class:`~repro.faults.errors.ValidationFailure` from it.
    """

    def __init__(
        self,
        tx_index: int,
        reason: str,
        code: FailureReason = FailureReason.PROFILE_GAS_MISMATCH,
    ) -> None:
        super().__init__(f"tx {tx_index}: {reason}")
        self.tx_index = tx_index
        self.reason = reason
        self.code = code

    def failure(self) -> ValidationFailure:
        return ValidationFailure(self.code, tx_index=self.tx_index, detail=self.reason)


@dataclass(frozen=True)
class ValidationOutcome:
    """Applier verdict for a whole block."""

    accepted: bool
    reason: Optional[str] = None
    failed_tx: Optional[int] = None
    failure: Optional[ValidationFailure] = None


class Applier:
    """Verifies execution results against the proposer's claims."""

    def verify_tx(
        self,
        index: int,
        entry: TxProfileEntry,
        rw: ReadWriteSet,
        result: TxResult,
    ) -> None:
        """Check one re-executed transaction against its profile entry.

        Raises :class:`ProfileMismatch` on the first disagreement.
        """
        if result.gas_used != entry.gas_used:
            raise ProfileMismatch(
                index,
                f"gas mismatch: executed {result.gas_used}, profile {entry.gas_used}",
                code=FailureReason.PROFILE_GAS_MISMATCH,
            )
        if result.success != entry.success:
            raise ProfileMismatch(
                index,
                f"status mismatch: executed {result.success}, "
                f"profile {entry.success}",
                code=FailureReason.PROFILE_GAS_MISMATCH,
            )
        expected_reads = entry.rw.read_keys()
        actual_reads = frozenset(rw.reads)
        if actual_reads != expected_reads:
            missing = expected_reads - actual_reads
            extra = actual_reads - expected_reads
            raise ProfileMismatch(
                index,
                f"read set mismatch: missing {len(missing)}, extra {len(extra)}",
                code=FailureReason.PROFILE_READ_MISMATCH,
            )
        expected_writes = dict(entry.rw.write_items())
        if dict(rw.writes) != expected_writes:
            raise ProfileMismatch(
                index, "write set mismatch", code=FailureReason.PROFILE_WRITE_MISMATCH
            )

    def verify_block(
        self,
        block: Block,
        computed_state: StateSnapshot,
        computed_receipts: Tuple[Receipt, ...],
    ) -> ValidationOutcome:
        """Final block-level checks after all transactions verified.

        The total gas and the logs bloom are derived from
        ``computed_receipts`` (see :func:`~repro.chain.block.build_receipts`);
        receipts the block ships must equal them field for field."""

        def failed(reason: str, code: FailureReason) -> ValidationOutcome:
            return ValidationOutcome(
                False, reason, failure=ValidationFailure(code, detail=reason)
            )

        header = block.header
        bloom = bloom_from_logs(
            log for receipt in computed_receipts for log in receipt.logs
        ).to_bytes()
        if bloom != header.logs_bloom:
            return failed("logs bloom mismatch", FailureReason.RECEIPT_MISMATCH)
        total_gas = computed_receipts[-1].cumulative_gas if computed_receipts else 0
        if total_gas != header.gas_used:
            return failed(
                f"block gas mismatch: executed {total_gas}, "
                f"header {header.gas_used}",
                FailureReason.RECEIPT_MISMATCH,
            )
        if receipts_root(computed_receipts) != header.receipts_root:
            return failed("receipts root mismatch", FailureReason.RECEIPT_MISMATCH)
        if block.receipts and block.receipts != computed_receipts:
            return failed(
                "shipped receipts differ from the executed ones",
                FailureReason.RECEIPT_MISMATCH,
            )
        if computed_state.state_root() != header.state_root:
            return failed("state root mismatch", FailureReason.STATE_ROOT_MISMATCH)
        return ValidationOutcome(True)
