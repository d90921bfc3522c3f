"""The typed validation-failure taxonomy.

Every way a block can fail validation gets one :class:`FailureReason`
variant, and each is a fault of the block, of its parent or of its
proposer: a local fault (a crashed or stalled worker lane, a lost or
lying follower) costs throughput, never a verdict, because the validator
then re-executes the block itself.  A rejection is a verdict on one
block and nothing more: no node keeps a record of it against the
proposer the header names, because nothing authenticates that name or
the profile.  The validator, pipeline and node
attach a :class:`ValidationFailure` to each rejection so benchmarks can count
*why* blocks were thrown out, not just that they were.  The string
``reason`` fields on ``ValidationResult``/``ValidationOutcome`` are kept
for human consumption and backward compatibility; the enum is the
machine-readable channel.

This module is imported by ``repro.core`` — it must stay dependency-free
(stdlib only) to avoid layering cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["FailureReason", "ValidationFailure"]


class FailureReason(enum.Enum):
    """Why a block was rejected by the validator stack."""

    #: Structural violation: tx root mismatch, profile misaligned,
    #: gas-limit overflow, invalid transaction, missing profile.
    MALFORMED_BLOCK = "malformed_block"
    #: Re-executed read key set disagrees with the block profile.
    PROFILE_READ_MISMATCH = "profile_read_mismatch"
    #: Re-executed write set (keys or values) disagrees with the profile.
    PROFILE_WRITE_MISMATCH = "profile_write_mismatch"
    #: Per-transaction gas or success flag disagrees with the profile.
    PROFILE_GAS_MISMATCH = "profile_gas_mismatch"
    #: Recomputed receipts/bloom/total-gas disagree with the header, or
    #: the receipts the block ships differ from the recomputed ones.
    RECEIPT_MISMATCH = "receipt_mismatch"
    #: Recomputed state root disagrees with the header.
    STATE_ROOT_MISMATCH = "state_root_mismatch"
    #: The block's parent state is not known to the pipeline.
    UNKNOWN_PARENT = "unknown_parent"
    #: The block's parent was itself rejected in the same batch.
    PARENT_REJECTED = "parent_rejected"

    def __str__(self) -> str:  # stable, compact (used in reports/counters)
        return self.value


@dataclass(frozen=True)
class ValidationFailure:
    """One structured rejection: what failed, where, and the evidence."""

    reason: FailureReason
    tx_index: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" @tx {self.tx_index}" if self.tx_index is not None else ""
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.reason.value}{where}{suffix}"
