"""A stable-ordered discrete-event queue.

Events are ordered by simulated time; ties break by insertion sequence so
that simulations are fully deterministic regardless of payload type (which
need not be comparable).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, List, NamedTuple


class Event(NamedTuple):
    """A scheduled occurrence at simulated ``time`` carrying ``payload``.

    The event is its own heap entry: ``seq`` is unique per queue, so tuple
    ordering is decided by ``(time, seq)`` and never reaches the payload.
    """

    time: float
    seq: int
    payload: Any


class EventQueue:
    """Min-heap of :class:`Event` with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, payload: Any) -> Event:
        """Schedule ``payload`` at ``time``; returns the created event."""
        if time != time or time < 0:  # NaN or negative
            raise ValueError(f"invalid event time: {time!r}")
        event = Event(time, next(self._counter), payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (FIFO among equal times)."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Time of the earliest pending event."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Event]:
        """Yield events in order until the queue is empty.

        New events pushed while draining are merged into the order, which is
        the usual event-loop idiom::

            for ev in queue.drain():
                handle(ev)   # may push more events
        """
        while self._heap:
            yield self.pop()
