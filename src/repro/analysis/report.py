"""Fixed-width text rendering of experiment outputs.

The harness prints the same rows/series the paper's figures plot; these
helpers keep every benchmark's output uniform and diffable (EXPERIMENTS.md
embeds them verbatim).
"""

from __future__ import annotations

import os
from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_histogram",
    "format_series",
    "format_failures",
    "write_report",
]


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


def format_histogram(
    values: Iterable[float],
    edges: Sequence[float],
    title: Optional[str] = None,
    width: int = 40,
) -> str:
    """ASCII histogram over half-open buckets (clamping like stats.histogram)."""
    from repro.simcore.stats import histogram

    counts = histogram(list(values), edges)
    peak = max(counts) if counts else 1
    lines = []
    if title:
        lines.append(title)
    for i, count in enumerate(counts):
        label = f"[{edges[i]:5.2f},{edges[i + 1]:5.2f})"
        bar = "#" * (round(count / peak * width) if peak else 0)
        lines.append(f"{label} {str(count).rjust(5)} {bar}")
    return "\n".join(lines) + "\n"


def format_series(
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str,
    y_label: str,
    title: Optional[str] = None,
) -> str:
    """Two-column series (the data behind a line plot)."""
    rows = [{x_label: x, y_label: round(y, 3)} for x, y in zip(xs, ys)]
    return format_table(rows, title=title)


def format_failures(stats, title: Optional[str] = None) -> str:
    """Render a run's typed failure counters as a table section.

    ``stats`` is a :class:`~repro.simcore.stats.RunStats` (whose
    ``failures`` dict maps ``FailureReason.value`` to a rejection count)
    or any mapping of reason -> count.  Robustness counters riding on the
    stats object (worker faults, retries, serial fallbacks) are appended
    so a report shows degradation next to outright rejection.
    """
    failures = stats if isinstance(stats, Mapping) else stats.failures
    total = sum(failures.values())
    rows: List[Mapping] = [
        {"reason": reason, "count": count, "share": f"{count / total:.0%}"}
        for reason, count in sorted(failures.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    rendered = format_table(rows, title=title or "failures by reason")
    if isinstance(stats, Mapping):
        return rendered
    extras = [
        ("worker_faults", stats.worker_faults),
        ("exec_retries", stats.exec_retries),
        ("serial_fallbacks", stats.serial_fallbacks),
    ]
    lines = [f"{name}: {value}" for name, value in extras if value]
    if lines:
        rendered += "\n".join(lines) + "\n"
    return rendered


def write_report(name: str, content: str, directory: Optional[str] = None) -> str:
    """Persist a benchmark's rendered output under ``benchmarks/results/``.

    Returns the path written.  The directory defaults to
    ``benchmarks/results`` relative to the cwd.
    """
    directory = directory or os.path.join("benchmarks", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return path
