"""Exporters: Chrome trace-event JSON, a text flame summary, a lane
timeline, and the fixed-width table every report prints.

The Chrome format (loadable in Perfetto or ``chrome://tracing``) maps the
simulation's structure onto the viewer's: one *process* per network node
(``Span.pid``), one *thread* per worker lane (``Span.lane``; spans without
a lane land on the control thread).  Timestamps are simulated
microseconds, which is exactly the unit the trace-event spec expects for
``ts``/``dur`` — traces open with real time axes.

Serialisation is deterministic (sorted keys, fixed separators, spans in
creation order), so same-seed runs export byte-identical files — the
contract the determinism tests pin.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "chrome_trace_json",
    "write_chrome_trace",
    "flame_summary",
    "render_timeline",
    "format_table",
    "CONTROL_TID",
]

#: Thread id used for spans not pinned to a worker lane (phase spans,
#: applier chain, failure events).  Lanes are numbered from 0, so the
#: control thread sorts first in viewers.
CONTROL_TID = -1


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Flatten a tracer into trace-event dicts (metadata first)."""
    events: List[dict] = []

    processes = dict(tracer.processes) or {0: "sim"}
    seen_threads: Dict[Tuple[int, int], None] = {}
    for span in tracer.spans:
        tid = span.lane if span.lane is not None else CONTROL_TID
        seen_threads.setdefault((span.pid, tid), None)
        processes.setdefault(span.pid, f"process-{span.pid}")

    for pid in sorted(processes):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": processes[pid]},
            }
        )
    for pid, tid in sorted(seen_threads):
        label = "control" if tid == CONTROL_TID else f"lane-{tid}"
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": label},
            }
        )

    for span in tracer.spans:
        tid = span.lane if span.lane is not None else CONTROL_TID
        args = {k: _jsonable(v) for k, v in sorted(span.attrs.items())}
        if span.is_instant:
            events.append(
                {
                    "ph": "i",
                    "pid": span.pid,
                    "tid": tid,
                    "ts": span.start,
                    "name": span.name,
                    "s": "t",
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "X",
                    "pid": span.pid,
                    "tid": tid,
                    "ts": span.start,
                    "dur": span.end - span.start,
                    "name": span.name,
                    "args": args,
                }
            )
    return events


def chrome_trace_json(tracer: Tracer, *, indent: Optional[int] = None) -> str:
    """Deterministic JSON document for the whole trace."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-us", "source": "repro.obs"},
    }
    if indent is None:
        return json.dumps(document, sort_keys=True, separators=(",", ":"))
    return json.dumps(document, sort_keys=True, indent=indent)


def write_chrome_trace(tracer: Tracer, path: str, *, indent: Optional[int] = None) -> str:
    """Write the trace JSON to ``path``; returns the path."""
    payload = chrome_trace_json(tracer, indent=indent)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------- #


class _Node:
    __slots__ = ("total", "self_time", "count", "children")

    def __init__(self) -> None:
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0
        self.children: Dict[str, "_Node"] = {}


def flame_summary(tracer: Tracer, *, min_share: float = 0.0) -> str:
    """Aggregate the span tree by name-path into a text flame view.

    Each line shows a span name at its nesting depth with its *total*
    simulated time, *self* time (total minus direct children), and call
    count; siblings sort by total descending.  Instant events are listed
    as counts only.  ``min_share`` (fraction of the root total) prunes
    noise lines.
    """
    by_id: Dict[int, Span] = {s.id: s for s in tracer.spans}
    root = _Node()

    def path_of(span: Span) -> List[str]:
        names: List[str] = []
        cursor: Optional[Span] = span
        while cursor is not None:
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id is not None else None
        return list(reversed(names))

    instants: Dict[str, int] = {}
    child_time: Dict[int, float] = {}
    for span in tracer.spans:
        if span.is_instant:
            instants[span.name] = instants.get(span.name, 0) + 1
            continue
        if span.parent_id is not None and span.parent_id in by_id:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration

    for span in tracer.spans:
        if span.is_instant:
            continue
        node = root
        for name in path_of(span):
            node = node.children.setdefault(name, _Node())
        node.total += span.duration
        node.self_time += max(span.duration - child_time.get(span.id, 0.0), 0.0)
        node.count += 1

    grand_total = sum(c.total for c in root.children.values())
    lines = [
        f"flame summary — {len(tracer.spans)} spans, "
        f"{grand_total:.1f}us total simulated time"
    ]

    def walk(node: _Node, depth: int) -> None:
        ordered = sorted(node.children.items(), key=lambda kv: (-kv[1].total, kv[0]))
        for name, child in ordered:
            if grand_total > 0 and child.total / grand_total < min_share:
                continue
            share = child.total / grand_total if grand_total > 0 else 0.0
            lines.append(
                f"{'  ' * depth}{name:<{max(36 - 2 * depth, 8)}} "
                f"total={child.total:12.1f}us  self={child.self_time:12.1f}us  "
                f"n={child.count:6d}  {share:6.1%}"
            )
            walk(child, depth + 1)

    walk(root, 0)
    if instants:
        lines.append("instant events:")
        for name, count in sorted(instants.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {name:<34} n={count:6d}")
    return "\n".join(lines) + "\n"


def render_timeline(
    tracer: Tracer,
    *,
    width: int = 72,
    label_of: Optional[Callable[[Any], Any]] = None,
) -> str:
    """Render the tracer's lane spans as one text bar per lane (a Gantt view).

    Every finished span pinned to a lane (``Span.lane``) is painted: a
    :class:`~repro.simcore.lanes.LaneGroup` built with ``tracer=`` emits
    one per task it runs, with the task's ``tag`` attr.  ``.`` marks idle
    time; a busy cell shows the first character of ``label_of(tag)`` if
    given, else of the span's name.  The fastest way to *see* why a
    schedule has the makespan it has (one long component pinning a lane,
    idle tails, context-switch gaps).
    """
    if not tracer.enabled:
        raise ValueError("render_timeline needs a recording Tracer, not the NullTracer")
    bars: List[Tuple[int, float, float, str]] = []
    for span in tracer.spans:
        if span.lane is None or span.is_instant:
            continue
        label = label_of(span.attrs.get("tag")) if label_of is not None else span.name
        bars.append((span.lane, span.start, span.start + span.duration, str(label)[:1] or "#"))
    if not bars:
        return "(empty timeline)\n"
    makespan = max(end for _, _, end, _ in bars)
    scale = width / makespan
    cells = [["."] * width for _ in range(max(lane for lane, _, _, _ in bars) + 1)]
    busy = [0.0] * len(cells)
    for lane, start, end, label in bars:
        a = min(width - 1, int(start * scale))
        b = min(width, max(a + 1, int(end * scale)))
        cells[lane][a:b] = [label] * (b - a)
        busy[lane] += end - start
    lines = [
        f"lane {lane:2d} |{''.join(row)}| {busy[lane] / makespan:4.0%}"
        for lane, row in enumerate(cells)
    ]
    lines.append(f"{'':8}0{' ' * (width - 10)}{makespan:9.1f}us")
    return "\n".join(lines) + "\n"


def format_table(rows: Sequence[Mapping], title: Optional[str] = None) -> str:
    """Render dict rows as an aligned text table (column order from row 0)."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)\n"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).rjust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).rjust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"
