"""Zero-dependency span tracing on the simulated clock.

A :class:`Span` is one named interval of **simulated** time (the same
microseconds the :class:`~repro.simcore.costmodel.CostModel` charges),
optionally pinned to a worker lane and a process (one process per network
node in multi-node traces).  Spans nest: a span recorded while another is
open via :meth:`Tracer.scope` becomes its child, which is how the
exporters reconstruct the propose→disseminate→validate→commit tree.

Because timestamps come from the simulation rather than the wall clock,
two runs with the same seed produce *identical* span lists — the property
the determinism test suite pins down to the exported JSON bytes.

The default tracer everywhere is the :data:`NULL_TRACER` singleton whose
``enabled`` flag is ``False``; instrumented hot paths hoist that flag into
a local (``trace_on = tracer.enabled``) so the uninstrumented cost is one
attribute read per run, not per transaction.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "ProcessTracer"]


class Span:
    """One named interval of simulated time.

    ``start``/``end`` are simulated microseconds; an *instant* event has
    ``end == start``.  ``lane`` maps to a Chrome-trace thread id, ``pid``
    to a process (network node).  ``attrs`` is free-form and lands in the
    Chrome-trace ``args`` block.
    """

    __slots__ = ("id", "name", "start", "end", "parent_id", "lane", "pid", "attrs")

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        end: Optional[float] = None,
        *,
        parent_id: Optional[int] = None,
        lane: Optional[int] = None,
        pid: int = 0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent_id = parent_id
        self.lane = lane
        self.pid = pid
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_instant(self) -> bool:
        return self.end is None or self.end == self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.id}, {self.name!r}, {self.start}..{self.end}, "
            f"lane={self.lane}, pid={self.pid})"
        )


class _Scope:
    """Context manager returned by :meth:`Tracer.scope`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc: object) -> None:
        stack = self._tracer._stack
        assert stack and stack[-1] is self.span, "unbalanced tracer scopes"
        stack.pop()
        if self.span.end is None:
            # close at the latest child end (or zero-width if childless)
            latest = self.span.start
            for other in self._tracer.spans:
                if other.parent_id == self.span.id and other.end is not None:
                    latest = max(latest, other.end)
            self.span.end = latest


class Tracer:
    """Collects spans; deterministic ids in creation order."""

    enabled: bool = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._stack: List[Span] = []
        #: pid -> human name, in registration order (pid 0 is the default
        #: process used when no :meth:`for_process` scoping happened)
        self.processes: Dict[int, str] = {0: "sim"}
        self._next_pid = itertools.count(1)

    # ------------------------------------------------------------------ #

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        lane: Optional[int] = None,
        pid: int = 0,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record one completed span, parented to the open scope (if any)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts: {start}..{end}")
        parent_id = parent.id if parent is not None else (
            self._stack[-1].id if self._stack else None
        )
        span = Span(
            next(self._ids), name, start, end,
            parent_id=parent_id, lane=lane, pid=pid, attrs=attrs or None,
        )
        self.spans.append(span)
        return span

    def instant(
        self,
        name: str,
        ts: float,
        *,
        lane: Optional[int] = None,
        pid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Record a zero-width event (abort, fault, quarantine, message)."""
        return self.record(name, ts, ts, lane=lane, pid=pid, **attrs)

    def scope(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        *,
        lane: Optional[int] = None,
        pid: int = 0,
        **attrs: Any,
    ) -> _Scope:
        """Open a span that parents everything recorded inside the ``with``.

        When ``end`` is omitted, the span closes at its latest child's end
        (callers may also set ``span.end`` explicitly before exit).
        """
        parent_id = self._stack[-1].id if self._stack else None
        span = Span(
            next(self._ids), name, start, end,
            parent_id=parent_id, lane=lane, pid=pid, attrs=attrs or None,
        )
        self.spans.append(span)
        return _Scope(self, span)

    # ------------------------------------------------------------------ #

    def for_process(self, name: str) -> "ProcessTracer":
        """A view of this tracer that stamps every span with a new pid.

        One Chrome-trace "process" per network node: register each node's
        id once and route its instrumentation through the returned proxy.
        """
        pid = next(self._next_pid)
        self.processes[pid] = name
        return ProcessTracer(self, pid)

    # -- queries used by exporters and tests --------------------------- #

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)


class ProcessTracer:
    """Per-node proxy: forwards to the root tracer with a fixed pid."""

    __slots__ = ("_root", "pid")

    def __init__(self, root: Tracer, pid: int) -> None:
        self._root = root
        self.pid = pid

    @property
    def enabled(self) -> bool:
        return self._root.enabled

    @property
    def spans(self) -> List[Span]:
        return self._root.spans

    # Tracer's keywords pass through; ``pid`` is always this view's own

    def record(self, name: str, start: float, end: float, **kwargs: Any) -> Span:
        kwargs["pid"] = self.pid
        return self._root.record(name, start, end, **kwargs)

    def instant(self, name: str, ts: float, **kwargs: Any) -> Span:
        kwargs["pid"] = self.pid
        return self._root.instant(name, ts, **kwargs)

    def scope(
        self, name: str, start: float, end: Optional[float] = None, **kwargs: Any
    ) -> _Scope:
        kwargs["pid"] = self.pid
        return self._root.scope(name, start, end, **kwargs)

    def for_process(self, name: str) -> "ProcessTracer":
        return self._root.for_process(name)


class _NullScope:
    """Reusable no-op context manager; yields the shared null span."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc: object) -> None:
        return None


class NullTracer:
    """The free default: every call is a no-op returning shared objects.

    Instrumentation sites additionally guard on :attr:`enabled` so that
    attribute-dict construction never happens on the production path.
    """

    enabled: bool = False

    def __init__(self) -> None:
        self._span = Span(-1, "null", 0.0, 0.0)
        self._scope = _NullScope(self._span)
        self.spans: List[Span] = []
        self.processes: Dict[int, str] = {}

    def record(self, name: str, start: float, end: float, **kwargs: Any) -> Span:
        return self._span

    def instant(self, name: str, ts: float, **kwargs: Any) -> Span:
        return self._span

    def scope(
        self, name: str, start: float, end: Optional[float] = None, **kwargs: Any
    ) -> _NullScope:
        return self._scope

    def for_process(self, name: str) -> "NullTracer":
        return self

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        return []

    def find(self, name: str) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())


#: Shared do-nothing tracer; the default for every instrumented component.
NULL_TRACER = NullTracer()
