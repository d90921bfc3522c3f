"""Simulated worker lanes (threads) and lane groups.

A :class:`Lane` models one worker thread: it is busy until ``available_at``
and accumulates utilisation statistics.  A :class:`LaneGroup` models a
thread pool; schedulers ask it for the earliest-available lane (stable
lowest-index tie-break) and charge task durations to it.

Lanes also track which *context* (e.g. which block) they last served so
that callers can charge a context-switch penalty — the mechanism behind the
multi-block pipeline's 4→8-block dip (paper §5.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

#: Name of the span a traced :class:`LaneGroup` records per task it runs.
TASK_SPAN = "exec_subgraph"


def lpt_makespan(durations: Sequence[float], lanes: int) -> float:
    """Makespan of greedy LPT: longest task first onto the least-loaded of
    ``lanes`` lanes (lowest index on ties) — what a :class:`LaneGroup`
    fed the same tasks in that order would report, without its lanes."""
    finish = [0.0] * max(1, lanes)
    for duration in sorted(durations, reverse=True):
        slot = min(range(len(finish)), key=lambda j: (finish[j], j))
        finish[slot] += duration
    return max(finish)


@dataclass
class Lane:
    """One simulated worker thread."""

    index: int
    available_at: float = 0.0
    busy_time: float = 0.0
    tasks_run: int = 0
    context_switches: int = 0
    context: Optional[Hashable] = None

    def run(
        self,
        duration: float,
        *,
        not_before: float = 0.0,
        context: Optional[Hashable] = None,
        switch_penalty: float = 0.0,
    ) -> tuple[float, float]:
        """Charge a task of ``duration`` to this lane.

        The task starts at ``max(available_at, not_before)``.  If ``context``
        differs from the lane's previous context, ``switch_penalty`` is added
        in front of the task (and counted).  Returns ``(start, end)`` where
        ``start`` is the instant productive work begins (after any penalty).
        """
        if duration < 0:
            raise ValueError(f"negative task duration: {duration}")
        start = max(self.available_at, not_before)
        if context is not None and self.context is not None and context != self.context:
            self.context_switches += 1
            start += switch_penalty
        if context is not None:
            self.context = context
        end = start + duration
        self.available_at = end
        self.busy_time += duration
        self.tasks_run += 1
        return start, end


class LaneGroup:
    """A pool of simulated lanes with earliest-available selection."""

    def __init__(self, count: int, *, tracer: Any = None) -> None:
        if count < 1:
            raise ValueError("LaneGroup needs at least one lane")
        self.lanes = [Lane(i) for i in range(count)]
        #: Optional :class:`repro.obs.tracer.Tracer`: every task run through
        #: the group is recorded as a :data:`TASK_SPAN` span on its lane
        #: (lane id = Chrome-trace thread) carrying the task's ``tag``.
        self.tracer = tracer

    def __len__(self) -> int:
        return len(self.lanes)

    def earliest(self, *, not_before: float = 0.0) -> Lane:
        """Lane that can start soonest at or after ``not_before``.

        Ties break toward the lowest index for determinism: lanes are held
        in index order and only a strictly earlier start replaces the pick.
        """
        best = self.lanes[0]
        best_start = max(best.available_at, not_before)
        for lane in self.lanes:
            start = lane.available_at if lane.available_at > not_before else not_before
            if start < best_start:
                best, best_start = lane, start
        return best

    def earliest_with_context(
        self, context: Hashable, *, not_before: float = 0.0
    ) -> Lane:
        """Prefer a lane already on ``context`` when it is no later than the
        globally earliest lane; otherwise fall back to :meth:`earliest`.

        This models a scheduler with context affinity: it avoids gratuitous
        context switches but never delays work to preserve affinity.
        """
        best = self.lanes[0]
        best_start = max(best.available_at, not_before)
        affine: Optional[Lane] = None
        affine_start = 0.0
        for lane in self.lanes:
            start = lane.available_at if lane.available_at > not_before else not_before
            if start < best_start:
                best, best_start = lane, start
            if lane.context == context and (affine is None or start < affine_start):
                affine, affine_start = lane, start
        if affine is not None and affine_start <= best_start:
            return affine
        return best

    def run_on_earliest(
        self,
        duration: float,
        *,
        not_before: float = 0.0,
        context: Optional[Hashable] = None,
        switch_penalty: float = 0.0,
        tag: Any = None,
    ) -> tuple[Lane, float, float]:
        """Schedule a task on the best lane; returns ``(lane, start, end)``."""
        if context is not None and switch_penalty > 0:
            lane = self.earliest_with_context(context, not_before=not_before)
        else:
            lane = self.earliest(not_before=not_before)
        start, end = lane.run(
            duration,
            not_before=not_before,
            context=context,
            switch_penalty=switch_penalty,
        )
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(TASK_SPAN, start, end, lane=lane.index, tag=tag)
        return lane, start, end

    @property
    def makespan(self) -> float:
        """Completion time of the last task across all lanes."""
        return max(l.available_at for l in self.lanes)

    @property
    def total_busy(self) -> float:
        return sum(l.busy_time for l in self.lanes)

    @property
    def total_context_switches(self) -> int:
        return sum(l.context_switches for l in self.lanes)

    def utilization(self) -> float:
        """Fraction of lane-time spent on productive work, in [0, 1]."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.total_busy / (span * len(self.lanes))

