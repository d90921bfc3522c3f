"""Live telemetry façade for the long-running node.

:class:`LiveTelemetry` sits between the serve loop and the three output
surfaces built in this package:

* the structured JSONL event log (:mod:`repro.obs.events`),
* the rolling SLO windows (:mod:`repro.obs.slo`),
* the HTTP status endpoint (:mod:`repro.obs.httpd`).

It derives per-block figures from the **existing metrics seams**: the
proposer/validator/pipeline/store already maintain counters in the shared
:class:`~repro.obs.metrics.MetricsRegistry`, so :class:`MetricsDelta`
diffs those counters between blocks instead of threading new hooks
through every hot path.  The production default is a
:data:`~repro.obs.events.NULL_EMITTER` and no HTTP server, which keeps
the whole layer at the one-guard cost the observability overhead
benchmark bounds below 3%.

Determinism contract: with the wall-clock sampler off (the default), the
emitted event stream of a fixed-seed serve run is byte-identical across
runs and across ``serial|thread|process`` backends — timestamps are
simulated header seconds and every counted quantity is sim-deterministic.
The stall watchdog is the one wall-clock citizen (a stalled pipeline is
invisible on the simulated clock); it only feeds ``/healthz``, never the
event log.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.events import (
    NULL_EMITTER,
    EventEmitter,
    JsonlEventLog,
)
from repro.obs.httpd import StatusServer, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloWindows

__all__ = [
    "LiveConfig",
    "StallWatchdog",
    "MetricsDelta",
    "LiveTelemetry",
]

#: Counter names the per-block delta scan watches (all maintained by the
#: existing proposer/validator/pipeline/node/store instrumentation).
WATCHED_COUNTERS: Tuple[str, ...] = (
    "proposer.executions",
    "proposer.aborts",
    "pipeline.exec_retries",
    "pipeline.serial_fallbacks",
    "pipeline.worker_faults",
    "node.proposers_quarantined",
    "store.blocks_appended",
    "store.bytes_appended",
    "store.snapshots",
    "store.compactions",
)


@dataclass(frozen=True)
class LiveConfig:
    """Everything that shapes one node's live telemetry."""

    #: JSONL event log path (None = NullEmitter, the free default)
    events_path: Optional[str] = None
    rotate_bytes: int = 16 * 1024 * 1024
    max_event_files: int = 4
    event_fsync: bool = False
    #: SLO window width in clock seconds and retained window count
    window_s: float = 60.0
    history: int = 30
    #: sample SLO windows (and stamp events) on the wall clock instead of
    #: the simulated one — serve-mode diagnostics only, breaks determinism
    wall_clock: bool = False
    #: HTTP status endpoint (None = off, 0 = ephemeral port)
    http_port: Optional[int] = None
    http_host: str = "127.0.0.1"
    #: /healthz flips unhealthy after ``stall_factor * stall_interval_s``
    #: wall seconds without a sealed block
    stall_interval_s: float = 5.0
    stall_factor: float = 4.0


class StallWatchdog:
    """Wall-clock liveness: unhealthy after ``factor×interval`` of silence.

    The serve loop calls :meth:`beat` after every sealed block; the HTTP
    thread calls :meth:`status` on each probe.  Because the status read
    recomputes silence from the wall clock, ``/healthz`` flips while the
    loop is *stuck*, not merely after it recovers.  ``unhealthy_intervals``
    counts threshold crossings for the exit summary.
    """

    def __init__(
        self,
        *,
        interval_s: float = 5.0,
        factor: float = 4.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0 or factor <= 0:
            raise ValueError("watchdog interval and factor must be positive")
        self.interval_s = interval_s
        self.factor = factor
        self.clock = clock
        self.ready = False
        self.unhealthy_intervals = 0
        self._started = clock()
        self._last_beat: Optional[float] = None

    @property
    def threshold_s(self) -> float:
        return self.interval_s * self.factor

    def _last(self) -> float:
        return self._last_beat if self._last_beat is not None else self._started

    def mark_ready(self) -> None:
        """Recovery finished; the loop is about to produce."""
        self.ready = True
        self._started = self.clock()

    def beat(self) -> None:
        now = self.clock()
        if now - self._last() > self.threshold_s:
            self.unhealthy_intervals += 1
        self._last_beat = now

    def status(self) -> Dict[str, Any]:
        silent_s = self.clock() - self._last()
        healthy = silent_s <= self.threshold_s
        detail = (
            f"no block sealed for {silent_s:.1f}s "
            f"(threshold {self.threshold_s:.1f}s)"
            if not healthy
            else "ok"
        )
        return {
            "healthy": healthy,
            "ready": self.ready,
            "silent_s": silent_s,
            "threshold_s": self.threshold_s,
            "unhealthy_intervals": self.unhealthy_intervals,
            "detail": detail,
        }


class MetricsDelta:
    """Per-block counter deltas over the shared registry.

    Reading the registry *is* the existing metrics seam: the hot paths
    already pay for these counters, so live telemetry derives its events
    from their movement instead of new instrumentation calls.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        names: Tuple[str, ...] = WATCHED_COUNTERS,
    ) -> None:
        self.registry = registry
        self.names = names
        self._last: Dict[str, int] = {}
        self.rebase()

    def _read(self) -> Dict[str, int]:
        return {name: self.registry.counter_value(name) for name in self.names}

    def rebase(self) -> None:
        """Forget history (e.g. after recovery replayed into the counters)."""
        self._last = self._read()

    def delta(self) -> Dict[str, int]:
        """Counter movement since the previous call (never negative)."""
        current = self._read()
        moved = {
            name: max(current[name] - self._last.get(name, 0), 0)
            for name in self.names
        }
        self._last = current
        return moved


class LiveTelemetry:
    """The serve loop's one telemetry object (also the HTTP provider)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        config: Optional[LiveConfig] = None,
        emitter: Optional[EventEmitter] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or LiveConfig()
        self.registry = registry
        if emitter is not None:
            self.emitter = emitter
        elif self.config.events_path:
            self.emitter = JsonlEventLog(
                self.config.events_path,
                rotate_bytes=self.config.rotate_bytes,
                max_files=self.config.max_event_files,
                wall_clock=clock if self.config.wall_clock else None,
                fsync=self.config.event_fsync,
            )
        else:
            self.emitter = NULL_EMITTER
        self.slo = SloWindows(
            window_s=self.config.window_s, history=self.config.history
        )
        self.watchdog = StallWatchdog(
            interval_s=self.config.stall_interval_s,
            factor=self.config.stall_factor,
            clock=clock,
        )
        self.scanner = MetricsDelta(registry)
        self.server: Optional[StatusServer] = None
        self.clock = clock
        self._lock = threading.Lock()
        self._status: Dict[str, Any] = {"schema": 1}
        self._started_wall = clock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start_server(self) -> Optional[Tuple[str, int]]:
        """Bind the status endpoint when the config asks for one."""
        if self.config.http_port is None:
            return None
        self.server = StatusServer(
            self, host=self.config.http_host, port=self.config.http_port
        )
        return self.server.start()

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.stop_server()
        self.emitter.close()

    # ------------------------------------------------------------------ #
    # serve-loop hooks
    # ------------------------------------------------------------------ #

    def seed_totals(self, height: int) -> None:
        """Re-seed monotonic counters from the recovered chain height.

        After a kill-and-resume, ``/metrics`` must expose *cumulative*
        figures: a node at height H that only produced two blocks this
        session still reports H blocks total.
        """
        # inc(0) still registers the counter, so a scrape that lands
        # before the first block already sees the metric
        self.registry.counter("serve.blocks_total").inc(height)
        self.slo.total_blocks += height
        self.registry.gauge("serve.height").set(float(height))
        # recovery replay already moved store/proposer counters; events
        # must narrate post-recovery movement only
        self.scanner.rebase()

    def serve_started(self, ts: float, *, height: int, resumed: bool) -> None:
        if self.emitter.enabled:
            self.emitter.emit(
                "serve_start", ts, height=height, resumed=bool(resumed)
            )

    def recovery_finished(
        self, ts: float, *, height: int, replayed: int, healed: int
    ) -> None:
        self.watchdog.mark_ready()
        if self.emitter.enabled:
            self.emitter.emit(
                "recovery", ts, height=height, replayed=replayed, healed=healed
            )

    def block_sealed(
        self,
        *,
        height: int,
        sim_ts: float,
        txs: int,
        gas_used: int,
        seal_latency_us: float,
        wall_latency_us: Optional[float] = None,
        store_write_us: Optional[float] = None,
    ) -> None:
        """Fold one sealed block into every surface.

        ``sim_ts``/``seal_latency_us`` are simulated (deterministic);
        the wall variants only matter when the wall-clock sampler is on.
        """
        moved = self.scanner.delta()
        aborts = moved["proposer.aborts"]
        retries = moved["pipeline.exec_retries"]
        fallbacks = moved["pipeline.serial_fallbacks"]
        faults = moved["pipeline.worker_faults"]
        quarantines = moved["node.proposers_quarantined"]

        wall_mode = self.config.wall_clock
        ts = self.clock() - self._started_wall if wall_mode else sim_ts
        latency = (
            wall_latency_us
            if wall_mode and wall_latency_us is not None
            else seal_latency_us
        )
        self.slo.observe_block(
            ts,
            seal_latency_us=latency,
            txs=txs,
            executions=moved["proposer.executions"],
            aborts=aborts,
            retries=retries,
            fallbacks=fallbacks,
            worker_faults=faults,
        )
        if store_write_us is not None:
            self.slo.observe_store_write(ts, store_write_us)

        self.registry.counter("serve.blocks_total").inc()
        self.registry.gauge("serve.height").set(float(height))
        self.watchdog.beat()

        if self.emitter.enabled:
            emit = self.emitter.emit
            emit(
                "block_sealed",
                sim_ts,
                height=height,
                txs=txs,
                gas=gas_used,
                aborts=aborts,
                retries=retries,
                fallbacks=fallbacks,
                latency_us=round(seal_latency_us, 3),
            )
            if aborts:
                emit("proposal_abort", sim_ts, height=height, count=aborts)
            if retries:
                emit("proposal_retry", sim_ts, height=height, count=retries)
            if fallbacks:
                emit("serial_fallback", sim_ts, height=height, count=fallbacks)
            if faults:
                emit("worker_fault", sim_ts, height=height, count=faults)
            if quarantines:
                emit("quarantine", sim_ts, height=height, count=quarantines)

    def serve_stopped(
        self, ts: float, *, height: int, produced: int, sealed: bool
    ) -> None:
        if self.emitter.enabled:
            self.emitter.emit(
                "serve_stop",
                ts,
                height=height,
                produced=produced,
                sealed=bool(sealed),
            )
        self.emitter.flush()

    # ------------------------------------------------------------------ #
    # StatusProvider: what the HTTP thread reads
    # ------------------------------------------------------------------ #

    def refresh(self, **top_level: Any) -> None:
        """Cache a consistent snapshot for scrapes (called per block)."""
        doc: Dict[str, Any] = {"schema": 1}
        doc.update(top_level)
        doc["uptime_s"] = self.clock() - self._started_wall
        doc["slo"] = self.slo.snapshot()
        doc["metrics"] = self.registry.snapshot()
        doc["events"] = {
            "enabled": bool(self.emitter.enabled),
            "seq": getattr(self.emitter, "seq", 0),
            "dropped": getattr(self.emitter, "dropped", 0),
            "rotations": getattr(self.emitter, "rotations", 0),
        }
        with self._lock:
            self._status = doc

    def health(self) -> Dict[str, Any]:
        return self.watchdog.status()

    def status_json(self) -> Dict[str, Any]:
        with self._lock:
            doc = dict(self._status)
        doc["health"] = self.health()
        return doc

    def metrics_text(self) -> str:
        with self._lock:
            snapshot = self._status.get("metrics")
            slo = self._status.get("slo")
        if snapshot is None:
            snapshot = self.registry.snapshot()
        if slo is None:
            slo = self.slo.snapshot()
        return render_prometheus(snapshot, slo=slo, health=self.health())
