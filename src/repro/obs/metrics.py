"""Named counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the single sink a run's instrumentation
writes to; :meth:`MetricsRegistry.snapshot` renders everything as plain
nested dicts (sorted keys) so snapshots can be served on ``/status``,
serialised into ``BENCH_*.json`` baselines, and compared for equality
across same-seed runs.  The registry is the one place a metric lives:
nothing copies it onto ``RunStats``.

Naming convention (see docs/ARCHITECTURE.md): dotted lowercase paths,
``<component>.<quantity>[_<unit>]`` — e.g. ``proposer.aborts``,
``validator.exec_us``, ``scheduler.subgraph_size``.

:data:`NULL_METRICS` is "nobody listening": a component given
``metrics=None`` stores it, so a counted fact is one line either way;
per-transaction loops hoist its ``enabled`` flag like ``tracer.enabled``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetrics", "NULL_METRICS", "flat_name"]


def flat_name(
    name: str, *parts: Union[str, int], **labels: Union[str, int]
) -> str:
    """Build a flat dotted metric key from a stem plus suffixes.

    Positional parts are appended verbatim (``flat_name("validator.failure",
    reason.value)`` keeps the historical ``validator.failure.<reason>``
    keys); keyword labels are appended as sorted ``key.value`` pairs, so
    ``flat_name("store.append", gen=3)`` → ``store.append.gen.3``.  This is
    the sanctioned replacement for ad-hoc f-string metric names: the label
    order is canonical, so two call sites can never mint two spellings of
    the same metric.
    """
    pieces = [name, *(str(p) for p in parts)]
    for key in sorted(labels):
        pieces.append(f"{key}.{labels[key]}")
    return ".".join(pieces)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n


class Gauge:
    """Last-write-wins value with min/max/samples bookkeeping.

    ``set`` is also how time-series-ish quantities (txpool depth over
    time) are observed: the snapshot keeps the last value plus the range
    the gauge moved through.
    """

    __slots__ = ("name", "value", "minimum", "maximum", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.samples = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        self.samples += 1


class Histogram:
    """Fixed-bucket histogram over half-open buckets ``[e[i], e[i+1])``.

    Out-of-range samples clamp into the first/last bucket (the same
    semantics as the experiment harness's ``histogram`` in
    ``benchmarks/analysis.py``, so rendered and snapshot histograms
    agree).  Placement is a :func:`bisect.bisect_right`
    over the sorted edges — O(log buckets) per sample.
    """

    __slots__ = ("name", "edges", "counts", "total", "count", "minimum", "maximum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if len(edges) < 2:
            raise ValueError("need at least two edges")
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {name}: edges must be sorted")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) - 1)
        self.total = 0.0
        self.count = 0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_right(self.edges, value) - 1
        if index < 0:
            index = 0  # below the first edge: clamp low
        elif index >= len(self.counts):
            index = len(self.counts) - 1  # at/above the last edge: clamp high
        self.counts[index] += 1
        self.total += value
        self.count += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry for a run's named metrics."""

    #: ``False`` only on :class:`NullMetrics`: loops that would compute a
    #: value per transaction just to observe it skip the work on this flag
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #

    def counter(
        self, name: str, *parts: Union[str, int], **labels: Union[str, int]
    ) -> Counter:
        if parts or labels:
            name = flat_name(name, *parts, **labels)
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(
        self, name: str, *parts: Union[str, int], **labels: Union[str, int]
    ) -> Gauge:
        if parts or labels:
            name = flat_name(name, *parts, **labels)
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self,
        name: str,
        edges: Sequence[float],
        *parts: Union[str, int],
        **labels: Union[str, int],
    ) -> Histogram:
        if parts or labels:
            name = flat_name(name, *parts, **labels)
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(f"histogram {name} re-registered with different edges")
        return metric

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric {name!r} already registered with another type")

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Plain sorted dicts — JSON-ready, equality-comparable."""
        counters = {n: c.value for n, c in sorted(self._counters.items())}
        gauges = {
            n: {
                "value": g.value,
                "min": g.minimum,
                "max": g.maximum,
                "samples": g.samples,
            }
            for n, g in sorted(self._gauges.items())
        }
        histograms = {
            n: {
                "edges": list(h.edges),
                "counts": list(h.counts),
                "count": h.count,
                "total": h.total,
                "mean": h.mean,
                "min": h.minimum,
                "max": h.maximum,
            }
            for n, h in sorted(self._histograms.items())
        }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullCounter(Counter):
    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class NullMetrics(MetricsRegistry):
    """The free default: every lookup returns one shared no-op instrument
    and nothing is registered, so :meth:`snapshot` stays empty."""

    enabled: bool = False
    _counter = _NullCounter("null")
    _gauge = _NullGauge("null")
    _histogram = _NullHistogram("null", (0.0, 1.0))

    def counter(self, name: str, *parts: Union[str, int], **labels: Union[str, int]) -> Counter:
        return self._counter

    def gauge(self, name: str, *parts: Union[str, int], **labels: Union[str, int]) -> Gauge:
        return self._gauge

    def histogram(
        self, name: str, edges: Sequence[float], *parts: Union[str, int], **labels: Union[str, int]
    ) -> Histogram:
        return self._histogram


NULL_METRICS = NullMetrics()
