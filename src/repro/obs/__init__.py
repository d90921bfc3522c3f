"""Observability: sim-clock span tracing, metrics and exporters.

Everything here runs on the **simulated** clock — span timestamps are the
same microseconds the cost model charges, so traces from same-seed runs
are bit-identical and diffable.  The pieces:

* :mod:`repro.obs.tracer` — nested spans (``Tracer``) with a free
  ``NullTracer`` default so uninstrumented hot paths pay one branch.
* :mod:`repro.obs.metrics` — named counters/gauges/histograms with a
  plain-dict ``snapshot()``; the registry is the one place they live.
  Its free default, ``NULL_METRICS``, hands out shared no-op instruments,
  so a counted fact is one line whether or not anyone listens, and a
  per-transaction loop pays one ``metrics.enabled`` branch.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), a text flame summary, a lane timeline (Gantt)
  and the fixed-width table every report prints.

The ``BENCH_<name>.json`` goldens and their comparator belong to the
experiment harness, ``benchmarks/baseline.py``.

Live telemetry (the ``repro serve`` surfaces, one ``NULL_EMITTER`` guard
away from free when off):

* :mod:`repro.obs.events` — schema-versioned JSONL event log with
  rotation and torn-tail-tolerant readback.
* :mod:`repro.obs.slo` — ring-buffer SLO windows (seal-latency
  percentiles, abort rate, store write latency).
* :mod:`repro.obs.httpd` — stdlib loopback HTTP endpoint: Prometheus
  text at ``/metrics``, JSON ``/status``, watchdog-fed ``/healthz``.
* :mod:`repro.obs.live` — :class:`LiveTelemetry`, the façade the serve
  loop drives with each sealed block's own results (events, SLO windows,
  stall watchdog).
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    NULL_EMITTER,
    EventEmitter,
    JsonlEventLog,
    NullEmitter,
    iter_event_files,
    read_events,
)
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    flame_summary,
    format_table,
    render_timeline,
    write_chrome_trace,
)
from repro.obs.httpd import StatusServer, render_prometheus
from repro.obs.live import LiveTelemetry, StallWatchdog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    NULL_METRICS,
    MetricsRegistry,
    flat_name,
)
from repro.obs.slo import SloWindows, WindowStats, percentile
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "flat_name",
    "chrome_trace_events",
    "chrome_trace_json",
    "flame_summary",
    "write_chrome_trace",
    "render_timeline",
    "format_table",
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventEmitter",
    "NullEmitter",
    "NULL_EMITTER",
    "JsonlEventLog",
    "read_events",
    "iter_event_files",
    "SloWindows",
    "WindowStats",
    "percentile",
    "StatusServer",
    "render_prometheus",
    "LiveTelemetry",
    "StallWatchdog",
]
