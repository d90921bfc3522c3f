"""The experiment harness's arithmetic: speedup summaries, sweep tables,
ratio bucketing, correlation, histograms, and the conflict-source study.

Every experiment regenerates one of the paper's tables or figures; these
helpers turn raw per-block measurements into the same rows and series the
paper reports (rendered by :func:`repro.obs.export.format_table` and
:func:`format_histogram`, persisted by :func:`write_report`).

Conflict-source analysis (:func:`analyze_block_conflicts`) is the
§2.3/§3.1 empirical-study angle.  Garamvölgyi et al.'s study (which the
paper builds on) found that "the majority of data conflicts arise from
counters (e.g., balances) and storage"; it classifies every conflicting
key pair in a block by its source so the claim can be checked on any
workload:

* ``balance`` / ``nonce`` — account counters;
* ``storage`` — contract storage slots (SLOAD/SSTORE races);
* ``code`` — contract (re)deployment, essentially never in practice.

A *conflict edge* exists between transactions *i < j* for key *k* when
one of them writes *k* and the other reads or writes it.  The breakdown
counts edges per key kind; hot keys (most conflicted) are surfaced for
hotspot forensics.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.state.access import StateKey


@dataclass(frozen=True)
class SpeedupSummary:
    """Aggregate of per-block speedups for a configuration."""

    count: int
    mean: float
    median: float
    p10: float
    p90: float
    minimum: float
    maximum: float
    accelerated_fraction: float  # share of blocks with speedup > 1


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile on pre-sorted data, q in [0, 1]."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize_speedups(values: Iterable[float]) -> SpeedupSummary:
    """Summarise a collection of per-block speedups."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("no speedup samples")
    n = len(data)
    return SpeedupSummary(
        count=n,
        mean=sum(data) / n,
        median=_percentile(data, 0.5),
        p10=_percentile(data, 0.1),
        p90=_percentile(data, 0.9),
        minimum=data[0],
        maximum=data[-1],
        accelerated_fraction=sum(1 for v in data if v > 1.0) / n,
    )


def histogram(values: Iterable[float], edges: Sequence[float]) -> list[int]:
    """Count values into the half-open buckets ``[edges[i], edges[i+1])``.

    Values below the first edge or at/above the last edge are clamped into
    the first/last bucket so every sample is represented (benchmark
    histograms must account for all blocks).
    """
    if len(edges) < 2:
        raise ValueError("need at least two edges")
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"edges must be strictly increasing: {edges!r}")
    counts = [0] * (len(edges) - 1)
    last = len(counts) - 1
    for v in values:
        # bisect_right - 1 gives the bucket whose [lo, hi) contains v;
        # min/max clamp out-of-range samples into the end buckets
        counts[min(max(bisect_right(edges, v) - 1, 0), last)] += 1
    return counts


@dataclass(frozen=True)
class SweepPoint:
    """One configuration point of a parameter sweep with its samples."""

    x: float  # the swept parameter (threads, blocks, intensity, ...)
    summary: SpeedupSummary

    @classmethod
    def from_samples(cls, x: float, samples: Iterable[float]) -> "SweepPoint":
        return cls(x=x, summary=summarize_speedups(samples))


def scaling_sweep_table(
    points: Sequence[SweepPoint], x_label: str = "threads"
) -> List[dict]:
    """Rows for a thread/block-count scaling table."""
    rows = []
    for p in points:
        rows.append(
            {
                x_label: int(p.x) if float(p.x).is_integer() else p.x,
                "mean": round(p.summary.mean, 2),
                "median": round(p.summary.median, 2),
                "p10": round(p.summary.p10, 2),
                "p90": round(p.summary.p90, 2),
                "max": round(p.summary.maximum, 2),
                "accelerated": f"{p.summary.accelerated_fraction:.1%}",
            }
        )
    return rows


def bucket_by_ratio(
    pairs: Iterable[Tuple[float, float]],
    edges: Sequence[float],
) -> List[dict]:
    """Bucket (ratio, speedup) pairs by ratio — the Fig. 8 aggregation.

    Returns one row per non-empty bucket with the mean speedup inside it.
    """
    buckets: Dict[int, List[float]] = {}
    counts: Dict[int, int] = {}
    for ratio, speedup in pairs:
        for i in range(len(edges) - 1):
            if edges[i] <= ratio < edges[i + 1] or (
                i == len(edges) - 2 and ratio >= edges[-1]
            ):
                buckets.setdefault(i, []).append(speedup)
                counts[i] = counts.get(i, 0) + 1
                break
        else:
            if ratio < edges[0]:
                buckets.setdefault(0, []).append(speedup)
                counts[0] = counts.get(0, 0) + 1
    rows = []
    for i in sorted(buckets):
        values = buckets[i]
        rows.append(
            {
                "ratio_bucket": f"[{edges[i]:.2f},{edges[i + 1]:.2f})",
                "blocks": len(values),
                "mean_speedup": round(sum(values) / len(values), 2),
                "min": round(min(values), 2),
                "max": round(max(values), 2),
            }
        )
    return rows


def throughput_tps(tx_count: int, makespan_us: float) -> float:
    """Transactions per second implied by a simulated makespan.

    Throughput is the paper's motivating metric (§1: "the number of
    transactions executed per second"); this converts a block's simulated
    execution window into the TPS the execution layer could sustain if it
    were the only bottleneck.
    """
    if makespan_us <= 0:
        raise ValueError("makespan must be positive")
    return tx_count / (makespan_us / 1_000_000.0)


def correlation(pairs: Iterable[Tuple[float, float]]) -> float:
    """Pearson correlation of (x, y) pairs (Fig. 8's anticorrelation check)."""
    data = list(pairs)
    n = len(data)
    if n < 2:
        raise ValueError("need at least two pairs")
    xs = [p[0] for p in data]
    ys = [p[1] for p in data]
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in data)
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def format_histogram(
    values: Iterable[float],
    edges: Sequence[float],
    title: Optional[str] = None,
    width: int = 40,
) -> str:
    """ASCII histogram over half-open buckets (clamping like :func:`histogram`)."""
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


@dataclass(frozen=True)
class ConflictBreakdown:
    """Per-source conflict statistics for one block."""

    total_edges: int
    edges_by_kind: Dict[str, int]
    hot_keys: Tuple[Tuple[StateKey, int], ...]  # (key, edge count), descending
    conflicting_tx_fraction: float

    def counter_fraction(self) -> float:
        """Share of conflict edges caused by account counters."""
        if self.total_edges == 0:
            return 0.0
        counters = self.edges_by_kind.get("balance", 0) + self.edges_by_kind.get(
            "nonce", 0
        )
        return counters / self.total_edges

    def storage_fraction(self) -> float:
        if self.total_edges == 0:
            return 0.0
        return self.edges_by_kind.get("storage", 0) / self.total_edges

    def rows(self) -> List[dict]:
        """Table rows for the report renderer."""
        return [
            {
                "kind": kind,
                "edges": count,
                "share": f"{count / self.total_edges:.1%}" if self.total_edges else "0%",
            }
            for kind, count in sorted(
                self.edges_by_kind.items(), key=lambda kv: -kv[1]
            )
        ]


def analyze_block_conflicts(block: Block) -> ConflictBreakdown:
    """Classify the conflict edges implied by a block's profile.

    Requires the block profile (the proposer-published rw-sets); raises
    ``ValueError`` for profile-less blocks.
    """
    if block.profile is None:
        raise ValueError("block has no profile to analyse")

    readers: Dict[StateKey, List[int]] = {}
    writers: Dict[StateKey, List[int]] = {}
    for index, entry in enumerate(block.profile.entries):
        for key in entry.rw.read_keys():
            readers.setdefault(key, []).append(index)
        for key in entry.rw.write_keys():
            writers.setdefault(key, []).append(index)

    edges_by_kind: Counter = Counter()
    per_key: Counter = Counter()
    conflicting_txs = set()

    for key, writer_list in writers.items():
        reader_list = readers.get(key, [])
        w = len(writer_list)
        r_only = len(set(reader_list) - set(writer_list))
        # write-write pairs + read-write pairs (reader not itself a writer)
        edge_count = w * (w - 1) // 2 + r_only * w
        if edge_count:
            edges_by_kind[key[0]] += edge_count
            per_key[key] += edge_count
            involved = set(writer_list)
            if r_only:
                involved |= set(reader_list)
            if len(involved) > 1:
                conflicting_txs |= involved

    n = len(block.transactions)
    return ConflictBreakdown(
        total_edges=sum(edges_by_kind.values()),
        edges_by_kind=dict(edges_by_kind),
        hot_keys=tuple(per_key.most_common(10)),
        conflicting_tx_fraction=(len(conflicting_txs) / n) if n else 0.0,
    )
