"""LiveTelemetry: per-block events, counter re-seeding, registry helpers."""

import urllib.request

import pytest

from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry, flat_name
from repro.store.service import NodeService, ServeConfig


class TestFlatName:
    def test_positional_parts_verbatim(self):
        assert flat_name("validator.failure", "bad_root") == "validator.failure.bad_root"
        assert flat_name("artifacts", "hits") == "artifacts.hits"

    def test_labels_sorted_key_value(self):
        assert flat_name("store.append", gen=3) == "store.append.gen.3"
        assert (
            flat_name("store.append", zeta=1, alpha=2)
            == "store.append.alpha.2.zeta.1"
        )

    def test_parts_then_labels(self):
        assert flat_name("a", "b", c=1) == "a.b.c.1"

    def test_registry_accepts_labelled_calls(self):
        registry = MetricsRegistry()
        registry.counter("store.compacted_blocks", gen=2).inc(5)
        assert registry.snapshot()["counters"]["store.compacted_blocks.gen.2"] == 5


class TestLiveTelemetry:
    def test_default_is_null_emitter(self):
        telemetry = LiveTelemetry(MetricsRegistry())
        assert telemetry.emitter.enabled is False
        assert telemetry.server is None

    def test_block_sealed_derives_events_from_counter_motion(self, tmp_path):
        registry = MetricsRegistry()
        telemetry = LiveTelemetry(registry, events_path=str(tmp_path / "e.jsonl"))
        telemetry.block_sealed(
            height=1,
            sim_ts=12.0,
            txs=9,
            gas_used=1000,
            executions=10,
            aborts=3,
            retries=0,
            fallbacks=1,
            worker_faults=0,
            seal_latency_us=55.0,
        )
        telemetry.close()
        from repro.obs.events import read_events

        events = read_events(str(tmp_path / "e.jsonl"))
        kinds = [e["kind"] for e in events]
        assert kinds == ["block_sealed", "proposal_abort", "serial_fallback"]
        assert events[0]["aborts"] == 3
        assert telemetry.slo.total_aborts == 3
        assert telemetry.slo.current.abort_rate == 0.3
        assert registry.snapshot()["counters"]["serve.blocks_total"] == 1

    def test_seed_totals_reseeds_cumulative_counters(self):
        registry = MetricsRegistry()
        telemetry = LiveTelemetry(registry)
        telemetry.seed_totals(6)
        assert registry.snapshot()["counters"]["serve.blocks_total"] == 6
        assert telemetry.slo.total_blocks == 6
        telemetry.block_sealed(
            height=7,
            sim_ts=84.0,
            txs=1,
            gas_used=10,
            executions=2,
            aborts=1,
            retries=0,
            fallbacks=0,
            worker_faults=0,
            seal_latency_us=5.0,
        )
        assert telemetry.slo.total_blocks == 7
        # recovered blocks count towards blocks, never towards aborts
        assert telemetry.slo.total_aborts == 1
        assert registry.snapshot()["counters"]["serve.blocks_total"] == 7


@pytest.mark.store
class TestResumedServeExposesCumulativeCounters:
    """Acceptance: a resumed node's /metrics carries chain-cumulative totals."""

    def test_second_session_reports_total_height(self, tmp_path):
        data_dir = str(tmp_path / "node")

        def session(target):
            cfg = ServeConfig(
                data_dir=data_dir,
                txs_per_block=12,
                max_height=target,
                snapshot_interval=4,
                fsync=False,
                events=True,
                status_port=0,
            )
            service = NodeService(cfg)
            report = service.run(handle_signals=False)
            return service, report

        _, first = session(3)
        assert first.height == 3 and first.produced == 3

        service, second = session(6)
        assert second.produced == 3  # only the new blocks this session
        assert second.height == 6  # …but the counters are cumulative
        assert second.resumed_from == 3
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["serve.blocks_total"] == 6
        assert snapshot["gauges"]["serve.height"]["value"] == 6.0
        assert "height=6 produced=3 aborts=" in second.summary()

    def test_metrics_endpoint_scrapes_mid_run(self, tmp_path):
        """Drive the provider exactly as the HTTP thread does mid-run."""
        cfg = ServeConfig(
            data_dir=str(tmp_path / "node"),
            txs_per_block=12,
            max_height=4,
            snapshot_interval=4,
            fsync=False,
            status_port=0,
        )
        service = NodeService(cfg)
        scrapes = []
        original = NodeService._build_telemetry

        def hooked(self):
            telemetry = original(self)
            real = telemetry.refresh

            def refresh(**kw):
                real(**kw)
                if telemetry.server is not None:
                    url = f"http://127.0.0.1:{telemetry.server.port}"
                    with urllib.request.urlopen(f"{url}/metrics", timeout=5) as r:
                        scrapes.append(r.read().decode())
            telemetry.refresh = refresh
            return telemetry

        NodeService._build_telemetry = hooked
        try:
            report = service.run(handle_signals=False)
        finally:
            NodeService._build_telemetry = original
        assert report.status_url is not None
        assert len(scrapes) >= 4
        assert "repro_serve_blocks_total_total 4" in scrapes[-1]
        assert "repro_healthy 1" in scrapes[-1]
