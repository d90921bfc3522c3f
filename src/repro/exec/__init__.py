"""Real-parallelism execution backends (serial | thread | process).

The simulator models lanes on a discrete-event clock; this package runs
the same Algorithm 1 / Algorithm 2 work on actual cores behind a small
:class:`~repro.exec.backend.ExecutionBackend` protocol, with commit
decisions kept deterministic (and therefore backend-independent) by
resolving all conflicts in the parent, in a fixed order.  See
ARCHITECTURE.md §"Real-parallelism execution backends".
"""

from repro.exec.backend import (
    BACKEND_CHOICES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_workers,
    get_backend,
)
from repro.exec.hooks import IdentityProbe, ScheduleProbe
from repro.exec.tasks import FootprintMiss, GuardedSnapshot

__all__ = [
    "BACKEND_CHOICES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "default_workers",
    "FootprintMiss",
    "GuardedSnapshot",
    "ScheduleProbe",
    "IdentityProbe",
]
