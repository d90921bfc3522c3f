"""Rolling-window SLO aggregation for the live node.

Block-STM-style speculative executors are tuned off their *live* abort
and re-validation rates, and a sharding master judges follower health off
recent — not lifetime — latency.  This module keeps a ring buffer of
fixed-duration windows over an abstract clock (simulated header-timestamp
seconds by default; wall seconds in serve mode when requested) and
computes per-window:

* p50/p95/p99 block seal latency (µs),
* abort rate (aborts / executions),
* retry / serial-fallback / worker-fault counts,
* store write latency percentiles (µs),

plus cumulative totals since the aggregator was created (or re-seeded
after recovery).  Percentiles are nearest-rank over the raw samples of
one window, which stays exact and cheap because a window only ever holds
one sample per block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["WindowStats", "SloWindows", "percentile"]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted samples."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(int(q * len(ordered) + 0.5), 1)
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class WindowStats:
    """Everything observed inside one fixed-duration window."""

    index: int  # ts // window_s — identifies the window on the clock
    start_ts: float
    seal_latencies_us: List[float] = field(default_factory=list)
    store_write_us: List[float] = field(default_factory=list)
    blocks: int = 0
    txs: int = 0
    executions: int = 0
    aborts: int = 0
    retries: int = 0
    fallbacks: int = 0
    worker_faults: int = 0

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.executions if self.executions else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Plain sorted-key dict for /status JSON and tests."""
        return {
            "index": self.index,
            "start_ts": self.start_ts,
            "blocks": self.blocks,
            "txs": self.txs,
            "executions": self.executions,
            "aborts": self.aborts,
            "abort_rate": self.abort_rate,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "worker_faults": self.worker_faults,
            "seal_p50_us": percentile(self.seal_latencies_us, 0.50),
            "seal_p95_us": percentile(self.seal_latencies_us, 0.95),
            "seal_p99_us": percentile(self.seal_latencies_us, 0.99),
            "store_p50_us": percentile(self.store_write_us, 0.50),
            "store_p95_us": percentile(self.store_write_us, 0.95),
            "store_p99_us": percentile(self.store_write_us, 0.99),
        }


class SloWindows:
    """Ring buffer of :class:`WindowStats` keyed on an external clock.

    Callers pass explicit timestamps (the sim clock by default), so the
    aggregator itself never reads a clock — the wall-clock option in
    serve mode is purely the caller feeding wall seconds instead.
    Observations older than the current window are folded into the
    current one rather than lost (the clock is monotone per caller, so
    this only happens for same-instant feeds).
    """

    def __init__(self, *, window_s: float = 60.0, history: int = 30) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if history < 1:
            raise ValueError("need at least one window of history")
        self.window_s = float(window_s)
        self.history = history
        self._windows: Deque[WindowStats] = deque(maxlen=history)
        # cumulative totals survive window eviction (and are re-seedable
        # from a recovered chain height, see LiveTelemetry.seed_totals)
        self.total_blocks = 0
        self.total_txs = 0
        self.total_aborts = 0
        self.total_retries = 0
        self.total_fallbacks = 0
        self.total_worker_faults = 0

    # ------------------------------------------------------------------ #

    def _window_at(self, ts: float) -> WindowStats:
        index = int(ts // self.window_s)
        if self._windows and index <= self._windows[-1].index:
            return self._windows[-1]
        window = WindowStats(index=index, start_ts=index * self.window_s)
        self._windows.append(window)
        return window

    def observe_block(
        self,
        ts: float,
        *,
        seal_latency_us: float,
        txs: int = 0,
        executions: int = 0,
        aborts: int = 0,
        retries: int = 0,
        fallbacks: int = 0,
        worker_faults: int = 0,
    ) -> None:
        """Fold one sealed block's figures into the window at ``ts``."""
        window = self._window_at(ts)
        window.blocks += 1
        window.txs += txs
        window.executions += executions
        window.aborts += aborts
        window.retries += retries
        window.fallbacks += fallbacks
        window.worker_faults += worker_faults
        window.seal_latencies_us.append(float(seal_latency_us))
        self.total_blocks += 1
        self.total_txs += txs
        self.total_aborts += aborts
        self.total_retries += retries
        self.total_fallbacks += fallbacks
        self.total_worker_faults += worker_faults

    def observe_store_write(self, ts: float, latency_us: float) -> None:
        self._window_at(ts).store_write_us.append(float(latency_us))

    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Optional[WindowStats]:
        return self._windows[-1] if self._windows else None

    def windows(self) -> List[WindowStats]:
        """Oldest-first retained windows."""
        return list(self._windows)

    def totals(self) -> Dict[str, int]:
        return {
            "blocks": self.total_blocks,
            "txs": self.total_txs,
            "aborts": self.total_aborts,
            "retries": self.total_retries,
            "fallbacks": self.total_fallbacks,
            "worker_faults": self.total_worker_faults,
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: totals plus the retained window series."""
        return {
            "window_s": self.window_s,
            "history": self.history,
            "totals": self.totals(),
            "windows": [w.snapshot() for w in self._windows],
        }
