"""Typed findings from the footprint race detector.

The component driver guards every worker task's state view: an access to
an account outside the component's profile-declared footprint means the
partition was wrong — either the proposer's profile lied or a scheduler
bug put conflicting transactions in "disjoint" components.  Production
behaviour on a miss is a silent, safe funnel (discard the parallel
attempt, fall back to the serial reference loop).  Safe, but silent:
a systematically lying profile would quietly cost the entire parallel
speedup and never fail a test.

A :class:`CheckLog` attached to a :class:`~repro.core.validator.
ParallelValidator` turns each miss into a typed :class:`FootprintViolation`
finding — which component, which transactions, which account, what the
declared footprint was — so the conformance suite (and operators reading
the ``repro.check.report`` summary) can distinguish "fell back because of
one odd transaction" from "the profile is garbage".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.types import Address

__all__ = ["FootprintViolation", "CheckLog"]


@dataclass(frozen=True)
class FootprintViolation:
    """One access outside a component's declared account footprint."""

    #: Hash (hex prefix) of the block whose validation tripped the guard.
    block: str
    #: Component index within the dependency-graph partition.
    component: int
    #: Transaction indices (block order, 0-based) the component contains.
    tx_indices: Tuple[int, ...]
    #: Account accessed outside the declared footprint.
    address: Address
    #: Size of the declared footprint the access escaped.
    declared: int

    def describe(self) -> str:
        return (
            f"block {self.block} component {self.component} "
            f"(txs {list(self.tx_indices)}) touched undeclared account "
            f"{self.address.hex()[:8]} (declared footprint: {self.declared} accounts)"
        )


@dataclass
class CheckLog:
    """Accumulates conformance findings across validation runs.

    One instance can observe many blocks; :meth:`reset` clears it between
    fuzzer schedules so each schedule's verdict is self-contained.
    """

    footprint_violations: List[FootprintViolation] = field(default_factory=list)

    def record_footprint(self, violation: FootprintViolation) -> None:
        self.footprint_violations.append(violation)

    def reset(self) -> None:
        self.footprint_violations.clear()

    @property
    def clean(self) -> bool:
        return not self.footprint_violations

    def by_block(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.footprint_violations:
            counts[violation.block] = counts.get(violation.block, 0) + 1
        return counts

    def summary(self) -> str:
        if self.clean:
            return "repro.check.report: clean (0 footprint violations)"
        lines = [
            f"repro.check.report: {len(self.footprint_violations)} footprint "
            f"violation(s) across {len(self.by_block())} block(s)"
        ]
        lines.extend("  " + v.describe() for v in self.footprint_violations)
        return "\n".join(lines)
