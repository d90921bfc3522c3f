"""Unit tests for the observability layer (tracer, metrics, exporters)."""

import json

import pytest

from benchmarks.baseline import (
    compare,
    direction_of,
    flatten_numbers,
    load_baseline,
    write_baseline,
)
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    flame_summary,
    write_chrome_trace,
)
from repro.obs.export import CONTROL_TID
from repro.obs.metrics import Counter, Gauge, Histogram


class TestTracer:
    def test_record_and_duration(self):
        tracer = Tracer()
        span = tracer.record("exec", 10.0, 25.0, lane=3, tx="ab")
        assert span.duration == 15.0
        assert span.lane == 3
        assert span.attrs == {"tx": "ab"}
        assert not span.is_instant
        assert len(tracer) == 1

    def test_instant_is_zero_width(self):
        tracer = Tracer()
        span = tracer.instant("abort", 5.0, retries=2)
        assert span.is_instant
        assert span.duration == 0.0

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("bad", 10.0, 5.0)

    def test_scope_parents_children(self):
        tracer = Tracer()
        with tracer.scope("block", 0.0) as block:
            child = tracer.record("exec", 1.0, 2.0)
            with tracer.scope("validate", 2.0) as validate:
                grandchild = tracer.record("apply", 2.0, 3.0)
        assert child.parent_id == block.id
        assert grandchild.parent_id == validate.id
        assert validate.parent_id == block.id
        assert [s.name for s in tracer.children_of(block.id)] == ["exec", "validate"]

    def test_scope_closes_at_latest_child_end(self):
        tracer = Tracer()
        with tracer.scope("outer", 0.0):
            tracer.record("a", 0.0, 4.0)
            tracer.record("b", 1.0, 9.0)
        assert tracer.find("outer")[0].end == 9.0

    def test_scope_explicit_end_wins(self):
        tracer = Tracer()
        scope = tracer.scope("outer", 0.0)
        with scope:
            tracer.record("a", 0.0, 4.0)
            scope.span.end = 100.0
        assert scope.span.end == 100.0

    def test_for_process_stamps_pids(self):
        tracer = Tracer()
        alice = tracer.for_process("alice")
        bob = tracer.for_process("bob")
        a = alice.record("x", 0.0, 1.0)
        b = bob.instant("y", 2.0)
        assert (a.pid, b.pid) == (1, 2)
        assert tracer.processes == {0: "sim", 1: "alice", 2: "bob"}

    def test_ids_are_creation_ordered(self):
        tracer = Tracer()
        spans = [tracer.record(str(i), 0.0, 1.0) for i in range(5)]
        assert [s.id for s in spans] == [0, 1, 2, 3, 4]

    def test_null_tracer_is_free(self):
        null = NullTracer()
        assert not null.enabled
        span = null.record("anything", 0.0, 1.0, lane=5)
        assert span is null.instant("other", 2.0)
        with null.scope("s", 0.0) as inner:
            assert inner is span
        assert len(null) == 0
        assert list(null) == []
        assert null.for_process("node") is null
        assert not NULL_TRACER.enabled


class TestMetrics:
    def test_counter_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_range(self):
        g = Gauge("x")
        g.set(5)
        g.set(2)
        g.set(9)
        assert (g.value, g.minimum, g.maximum, g.samples) == (9.0, 2.0, 9.0, 3)

    def test_histogram_clamps_like_stats(self):
        h = Histogram("x", (1, 2, 3))
        for v in (0.5, 1.0, 2.0, 2.5, 99.0):
            h.observe(v)
        assert h.counts == [2, 3]
        assert h.count == 5
        assert h.minimum == 0.5 and h.maximum == 99.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("x", (1,))
        with pytest.raises(ValueError):
            Histogram("x", (3, 1, 2))

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", (0, 1)) is reg.histogram("h", (0, 1))

    def test_registry_cross_type_collision(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_registry_histogram_edge_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", (0, 1))
        with pytest.raises(ValueError):
            reg.histogram("h", (0, 2))

    def test_snapshot_is_plain_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.depth").set(7)
        reg.histogram("c.us", (0, 10, 20)).observe(15)
        snap = reg.snapshot()
        assert snap["counters"] == {"b.count": 2}
        assert snap["gauges"]["a.depth"]["value"] == 7.0
        assert snap["histograms"]["c.us"]["counts"] == [0, 1]
        json.dumps(snap)  # must serialise without custom encoders

    def test_counter_value_reads_without_registering(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert reg.counter_value("x") == 1
        assert reg.counter_value("never.moved") == 0
        assert reg.snapshot()["counters"] == {"x": 1}


class TestNullMetrics:
    def test_flags(self):
        assert MetricsRegistry().enabled
        assert not NULL_METRICS.enabled
        assert isinstance(NULL_METRICS, MetricsRegistry)

    def test_lookups_return_the_shared_no_op_instruments(self):
        counter = NULL_METRICS.counter("a")
        gauge = NULL_METRICS.gauge("b")
        histogram = NULL_METRICS.histogram("c", (0, 1))
        assert NULL_METRICS.counter("validator.failure", "timeout") is counter
        assert NULL_METRICS.counter("store.compacted_blocks", gen=3) is counter
        assert NULL_METRICS.gauge("b", "x", shard=1) is gauge
        assert NULL_METRICS.histogram("other", (0, 5, 9), "y", gen=2) is histogram
        counter.inc(7)
        gauge.set(3.0)
        histogram.observe(0.5)
        assert counter.value == 0
        assert (gauge.value, gauge.samples) == (0.0, 0)
        assert (histogram.count, histogram.counts) == (0, [0])

    def test_registers_nothing(self):
        NULL_METRICS.counter("a").inc()
        NULL_METRICS.gauge("a").set(1)  # another type under the same name
        NULL_METRICS.histogram("a", (0, 1)).observe(0.5)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert NULL_METRICS.counter_value("a") == 0


class TestChromeExport:
    def _traced(self):
        tracer = Tracer()
        node = tracer.for_process("node-a")
        with node.scope("block", 0.0) as block:
            node.record("exec", 0.0, 5.0, lane=0, tx="aa")
            node.record("exec", 0.0, 7.0, lane=1, tx="bb")
            node.instant("abort", 3.0, retries=1)
            block.end = 7.0
        return tracer

    def test_events_have_required_keys(self):
        events = chrome_trace_events(self._traced())
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event, event
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert all("dur" in e for e in complete)

    def test_metadata_names_processes_and_lanes(self):
        events = chrome_trace_events(self._traced())
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "node-a") in names
        assert ("thread_name", "lane-0") in names
        assert ("thread_name", "control") in names

    def test_unlaned_spans_land_on_control_thread(self):
        events = chrome_trace_events(self._traced())
        block = next(e for e in events if e["name"] == "block")
        assert block["tid"] == CONTROL_TID

    def test_json_is_deterministic(self):
        a = chrome_trace_json(self._traced())
        b = chrome_trace_json(self._traced())
        assert a == b
        doc = json.loads(a)
        assert doc["otherData"]["clock"] == "simulated-us"

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(self._traced(), str(tmp_path / "t.json"))
        assert json.loads(open(path).read())["traceEvents"]

    def test_flame_summary_aggregates(self):
        out = flame_summary(self._traced())
        assert "block" in out
        assert "exec" in out
        assert "n=     2" in out  # the two exec spans fold into one line
        assert "abort" in out  # instants listed by count

    def test_flame_min_share_prunes(self):
        tracer = Tracer()
        tracer.record("big", 0.0, 100.0)
        tracer.record("tiny", 0.0, 0.5)
        out = flame_summary(tracer, min_share=0.1)
        assert "big" in out and "tiny" not in out


class TestBaselines:
    def test_direction_heuristics(self):
        assert direction_of("mean_speedup") == 1
        assert direction_of("by_threads.16.blockpilot_speedup") == 1
        assert direction_of("parallel_tps") == 1
        assert direction_of("makespan") == -1
        assert direction_of("validator.exec_us") == -1
        assert direction_of("aborts") == -1
        assert direction_of("blocks") == 0

    def test_flatten_numbers(self):
        flat = flatten_numbers(
            {"a": {"b": 1, "name": "skip"}, "list": [2, 3], "ok": True}
        )
        assert flat == {"a.b": 1.0, "list[0]": 2.0, "list[1]": 3.0, "ok": 1.0}

    def test_write_load_roundtrip(self, tmp_path):
        path = write_baseline(
            "unit", {"speedup": 2.0}, config={"lanes": 4}, directory=str(tmp_path)
        )
        doc = load_baseline(path)
        assert doc["name"] == "unit"
        assert doc["headline"]["speedup"] == 2.0
        assert doc["config"]["lanes"] == 4

    def test_load_rejects_non_baseline(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_compare_flags_regression_and_improvement(self):
        old = {"name": "x", "headline": {"speedup": 4.0, "makespan": 100.0}}
        worse = {"name": "x", "headline": {"speedup": 3.0, "makespan": 100.0}}
        better = {"name": "x", "headline": {"speedup": 5.0, "makespan": 80.0}}
        down = compare(old, worse)
        assert not down.ok
        assert down.regressions[0].key == "speedup"
        up = compare(old, better)
        assert up.ok and len(up.improvements) == 2

    def test_compare_respects_tolerance(self):
        old = {"name": "x", "headline": {"speedup": 4.0}}
        slight = {"name": "x", "headline": {"speedup": 3.9}}
        assert compare(old, slight, tolerance=0.05).ok
        assert not compare(old, slight, tolerance=0.01).ok

    def test_self_compare_always_clean(self, tmp_path):
        path = write_baseline(
            "self", {"speedup": 3.3, "nested": {"exec_us": 12.5}},
            directory=str(tmp_path),
        )
        result = compare(path, path)
        assert result.ok
        assert not result.regressions and not result.improvements
        assert not result.missing_keys and not result.new_keys
