"""Live telemetry against the real serve loop.

Three guarantees land here:

* a running ``repro serve --status-port 0`` exposes valid Prometheus
  text, JSON status and a healthz probe over loopback, and a SIGTERM
  still seals cleanly;
* a serve killed mid-run (with a torn telemetry tail on disk) resumes
  without telemetry interfering, and the resumed session's counters are
  chain-cumulative, not session-local;
* each block's narration carries that block's own proposer and pipeline
  figures, so its sums agree with the registry the hot paths fed.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.obs.events import read_events
from repro.store.manifest import Manifest
from repro.store.service import NodeService, ServeConfig

pytestmark = pytest.mark.store

REPO_ROOT = Path(__file__).resolve().parents[1]
URL_RE = re.compile(r"status endpoint listening on (http://[\d.]+:\d+)")


def _env(crash=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_STORE_CRASH", None)
    if crash:
        env["REPRO_STORE_CRASH"] = crash
    return env


def _serve_args(data_dir, *extra):
    return [
        sys.executable,
        "-m",
        "repro",
        "--txs-per-block",
        "12",
        "serve",
        "--data-dir",
        str(data_dir),
        "--snapshot-interval",
        "4",
        "--no-fsync",
        *extra,
    ]


def _run(data_dir, *extra, crash=None, check=True):
    proc = subprocess.run(
        _serve_args(data_dir, *extra),
        env=_env(crash),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"serve failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _get(url, timeout=5):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


class TestServeStatusEndpointSmoke:
    @pytest.fixture()
    def running(self, tmp_path):
        """An unbounded serve with events + ephemeral status port."""
        proc = subprocess.Popen(
            _serve_args(tmp_path / "node", "--events", "--status-port", "0"),
            env=_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        url = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            match = URL_RE.search(line or "")
            if match:
                url = match.group(1)
                break
            if proc.poll() is not None:
                break
        if url is None:
            proc.kill()
            out, err = proc.communicate(timeout=30)
            raise AssertionError(f"no status URL announced:\n{out}\n{err}")
        try:
            yield proc, url
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_scrape_then_sigterm_seals(self, running, tmp_path):
        proc, url = running

        code, body = _get(f"{url}/healthz", timeout=10)
        assert (code, body) == (200, "ok\n")

        code, metrics = _get(f"{url}/metrics")
        assert code == 200
        # exposition validity: every non-comment line is `name[{labels}] value`
        for line in metrics.strip().splitlines():
            if line.startswith("# TYPE "):
                continue
            assert re.fullmatch(
                r'[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9.+eEInf]+', line
            ), f"malformed exposition line: {line!r}"
        assert "repro_up 1" in metrics
        assert "repro_serve_blocks_total_total" in metrics

        code, status = _get(f"{url}/status")
        assert code == 200
        doc = json.loads(status)
        assert doc["schema"] == 1
        assert doc["health"]["ready"] is True
        assert doc["events"]["enabled"] is True

        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "sealed=True" in stdout
        assert "height=" in stdout

    def test_status_cli_renders_dashboard(self, running):
        _, url = running
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "status", "--url", url],
            env=_env(),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "health healthy" in proc.stdout
        assert "totals blocks=" in proc.stdout


class TestKillAndResumeWithTelemetry:
    def test_torn_telemetry_tail_never_blocks_recovery(self, tmp_path):
        data_dir = tmp_path / "node"
        proc = _run(
            data_dir,
            "--blocks",
            "8",
            "--events",
            crash="after_append:3",
            check=False,
        )
        assert proc.returncode == 137, proc.stderr

        events_path = data_dir / "events.jsonl"
        assert events_path.exists()
        # make the crash worse than reality: tear the final event mid-line
        torn = events_path.read_bytes().rstrip(b"\n")[:-7]
        events_path.write_bytes(torn)

        final = _run(data_dir, "--blocks", "8", "--events")
        assert "sealed=True" in final.stdout
        assert "height=8 produced=5" in final.stdout
        assert Manifest.load(str(data_dir)).height == 8

        # the healed event file parses end to end, and the resumed
        # session's records narrate the post-recovery suffix
        events = read_events(str(events_path), strict=True)
        kinds = [e["kind"] for e in events]
        assert kinds.count("serve_start") == 2
        resumed_start = max(
            i for i, e in enumerate(events) if e["kind"] == "serve_start"
        )
        assert events[resumed_start]["resumed"] is True
        sealed_after = [
            e for e in events[resumed_start:] if e["kind"] == "block_sealed"
        ]
        assert sealed_after and sealed_after[-1]["height"] == 8
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)  # monotone across the kill

    def test_event_stream_matches_uninterrupted_run_modulo_lifecycle(
        self, tmp_path
    ):
        """Killed+resumed narration agrees with one clean run per height.

        Telemetry is best-effort and trails the store: the crash lands
        *inside* the commit path, so the crash-height block is durable but
        its ``block_sealed`` event may never have been written.  Every
        event that did get written must match the clean run exactly, and
        only the crash height may be missing.
        """
        clean_dir = tmp_path / "clean"
        _run(clean_dir, "--blocks", "6", "--events")
        crashed_dir = tmp_path / "crashed"
        proc = _run(
            crashed_dir,
            "--blocks",
            "6",
            "--events",
            crash="after_manifest:3",
            check=False,
        )
        assert proc.returncode == 137
        _run(crashed_dir, "--blocks", "6", "--events")

        def narration(path):
            return {
                e["height"]: {k: v for k, v in e.items() if k != "seq"}
                for e in read_events(str(path / "events.jsonl"))
                if e["kind"] == "block_sealed"
            }

        clean = narration(clean_dir)
        crashed = narration(crashed_dir)
        assert set(clean) == set(range(1, 7))
        missing = set(clean) - set(crashed)
        assert missing <= {3}  # only the crash height may have been eaten
        for height, event in crashed.items():
            assert event == clean[height], f"height {height} diverged"


class TestBlockFactsReachTheNarration:
    """The loop hands telemetry each block's results: a swapped or
    mis-routed count shows up against the registry's own counters."""

    def _config(self, data_dir, **extra):
        return ServeConfig(
            data_dir=str(data_dir),
            txs_per_block=12,
            scenario="counter-shared",
            max_height=6,
            snapshot_interval=4,
            fsync=False,
            **extra,
        )

    def test_block_sealed_matches_the_registry(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        # the makespan gauges hold exactly the block being sealed when the
        # loop calls block_sealed; remember them per height
        expected_latency = {}
        build = NodeService._build_telemetry

        def hooked(service):
            telemetry = build(service)
            sealed = telemetry.block_sealed

            def block_sealed(**kw):
                expected_latency[kw["height"]] = round(
                    metrics.gauge("proposer.makespan_us").value
                    + metrics.gauge("pipeline.makespan_us").value,
                    3,
                )
                sealed(**kw)

            telemetry.block_sealed = block_sealed
            return telemetry

        monkeypatch.setattr(NodeService, "_build_telemetry", hooked)
        service = NodeService(self._config(tmp_path / "node", events=True), metrics=metrics)
        report = service.run(handle_signals=False)

        events = read_events(str(tmp_path / "node" / "events.jsonl"))
        sealed = [e for e in events if e["kind"] == "block_sealed"]
        assert [e["height"] for e in sealed] == list(range(1, 7))
        aborts = metrics.counter_value("proposer.aborts")
        assert aborts > 0  # counter-shared contends: the check has teeth
        assert sum(e["aborts"] for e in sealed) == aborts == report.aborts
        executions = sum(w.executions for w in service.telemetry.slo.windows())
        assert executions == metrics.counter_value("proposer.executions")
        assert executions > aborts
        assert sum(e["retries"] for e in sealed) == metrics.counter_value(
            "pipeline.exec_retries"
        )
        for event in sealed:
            assert event["latency_us"] == expected_latency[event["height"]]

    def test_totals_need_no_registry(self, tmp_path):
        """A service built without a registry still reports its aborts."""
        metrics = MetricsRegistry()
        instrumented = NodeService(self._config(tmp_path / "a"), metrics=metrics)
        with_registry = instrumented.run(handle_signals=False)
        bare = NodeService(self._config(tmp_path / "b")).run(handle_signals=False)
        assert bare.aborts == with_registry.aborts == metrics.counter_value(
            "proposer.aborts"
        )
        assert bare.aborts > 0
        assert bare.fallbacks == with_registry.fallbacks
        assert bare.height == 6
