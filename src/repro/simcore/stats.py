"""Run statistics: what one simulated execution run reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Outcome of one simulated execution run."""

    makespan: float
    total_work: float
    lanes: int
    tasks: int = 0
    aborts: int = 0
    context_switches: int = 0
    #: transient worker-lane crashes observed during validation
    worker_faults: int = 0
    #: parallel re-execution attempts beyond the first
    exec_retries: int = 0
    #: blocks that degraded to serial re-execution after retry exhaustion
    serial_fallbacks: int = 0
    #: rejection counts keyed by ``FailureReason.value`` (insertion order
    #: follows block order, so same-seed runs produce identical dicts)
    failures: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def count_failure(self, reason: object) -> None:
        """Tally one typed rejection (``reason`` is a FailureReason)."""
        key = getattr(reason, "value", str(reason))
        self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def utilization(self) -> float:
        if self.makespan <= 0 or self.lanes <= 0:
            return 0.0
        return self.total_work / (self.makespan * self.lanes)
