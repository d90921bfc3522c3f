"""SLO windows, nearest-rank percentiles, and the stall watchdog."""

import pytest

from repro.obs.live import StallWatchdog
from repro.obs.slo import SloWindows, WindowStats, percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank_exact(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.50) == 20.0
        assert percentile(samples, 0.95) == 40.0
        assert percentile(samples, 0.0) == 10.0
        assert percentile(samples, 1.0) == 40.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestWindowStats:
    def test_abort_rate_guards_zero_executions(self):
        window = WindowStats(index=0, start_ts=0.0)
        assert window.abort_rate == 0.0
        window.executions, window.aborts = 10, 3
        assert window.abort_rate == pytest.approx(0.3)

    def test_snapshot_carries_percentiles(self):
        window = WindowStats(index=2, start_ts=120.0)
        window.seal_latencies_us.extend([100.0, 300.0, 200.0])
        snap = window.snapshot()
        assert snap["seal_p50_us"] == 200.0
        assert snap["seal_p99_us"] == 300.0
        assert snap["index"] == 2


class TestSloWindows:
    def test_blocks_land_in_their_window(self):
        slo = SloWindows(window_s=60.0, history=4)
        slo.observe_block(10.0, seal_latency_us=100.0, txs=5)
        slo.observe_block(59.0, seal_latency_us=200.0, txs=5)
        slo.observe_block(61.0, seal_latency_us=300.0, txs=5)
        windows = slo.windows()
        assert [w.index for w in windows] == [0, 1]
        assert windows[0].blocks == 2
        assert windows[1].blocks == 1

    def test_history_is_a_ring(self):
        slo = SloWindows(window_s=1.0, history=3)
        for second in range(10):
            slo.observe_block(float(second), seal_latency_us=1.0)
        assert len(slo.windows()) == 3
        assert slo.windows()[-1].index == 9
        # cumulative totals survive eviction
        assert slo.total_blocks == 10

    def test_totals_accumulate(self):
        slo = SloWindows()
        slo.observe_block(
            0.0,
            seal_latency_us=10.0,
            txs=7,
            executions=9,
            aborts=2,
            retries=1,
            fallbacks=1,
            worker_faults=1,
        )
        assert slo.totals() == {
            "blocks": 1,
            "txs": 7,
            "aborts": 2,
            "retries": 1,
            "fallbacks": 1,
            "worker_faults": 1,
        }

    def test_store_write_percentiles(self):
        slo = SloWindows(window_s=60.0)
        slo.observe_store_write(5.0, 111.0)
        slo.observe_store_write(6.0, 333.0)
        current = slo.current
        assert current.store_write_us == [111.0, 333.0]
        snap = current.snapshot()
        assert (snap["store_p50_us"], snap["store_p99_us"]) == (111.0, 333.0)

    def test_snapshot_shape(self):
        slo = SloWindows(window_s=30.0, history=2)
        slo.observe_block(0.0, seal_latency_us=50.0, txs=1)
        snap = slo.snapshot()
        assert snap["window_s"] == 30.0
        assert snap["totals"]["blocks"] == 1
        assert snap["windows"][-1]["seal_p50_us"] == 50.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SloWindows(window_s=0.0)
        with pytest.raises(ValueError):
            SloWindows(history=0)


class TestStallWatchdog:
    def _dog(self, **kwargs):
        clock = {"now": 0.0}
        dog = StallWatchdog(
            interval_s=kwargs.pop("interval_s", 5.0),
            factor=kwargs.pop("factor", 4.0),
            clock=lambda: clock["now"],
        )
        return dog, clock

    def test_healthy_while_beating(self):
        dog, clock = self._dog()
        dog.mark_ready()
        for _ in range(10):
            clock["now"] += 5.0
            dog.beat()
        status = dog.status()
        assert status["healthy"] is True
        assert status["ready"] is True
        assert status["unhealthy_intervals"] == 0

    def test_flips_unhealthy_after_threshold_silence(self):
        dog, clock = self._dog(interval_s=5.0, factor=4.0)
        dog.mark_ready()
        dog.beat()
        clock["now"] += 20.0
        assert dog.status()["healthy"] is True  # exactly at threshold
        clock["now"] += 0.1
        status = dog.status()
        assert status["healthy"] is False
        assert "no block sealed" in status["detail"]

    def test_flips_while_stuck_not_only_after(self):
        """status() recomputes silence — no beat is needed to notice."""
        dog, clock = self._dog(interval_s=1.0, factor=2.0)
        dog.mark_ready()
        dog.beat()
        clock["now"] += 100.0
        assert dog.status()["healthy"] is False
        # recovery: one beat restores health and counts the episode
        dog.beat()
        assert dog.status()["healthy"] is True
        assert dog.unhealthy_intervals == 1

    def test_not_ready_until_marked(self):
        dog, _ = self._dog()
        assert dog.status()["ready"] is False
        dog.mark_ready()
        assert dog.status()["ready"] is True

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StallWatchdog(interval_s=0.0)
        with pytest.raises(ValueError):
            StallWatchdog(factor=-1.0)
