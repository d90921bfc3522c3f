"""The JSONL event log: schema, rotation, degradation, determinism.

The determinism contract under test: with the wall-clock sampler off, the
event stream of a fixed-seed serve run is *byte-identical* across runs
and across the serial | thread | process execution backends — timestamps
are simulated header seconds, and every counted quantity is derived from
the deterministic cost model.
"""

import json
import os
import stat

import pytest

from repro.exec import get_backend
from repro.obs import MetricsRegistry
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    NULL_EMITTER,
    JsonlEventLog,
    NullEmitter,
    iter_event_files,
    read_events,
)
from repro.store.service import NodeService, ServeConfig


class TestEnvelope:
    def test_records_carry_versioned_envelope(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlEventLog(path) as log:
            log.emit("block_sealed", 12.0, height=1, txs=3)
            log.emit("store_append", 24.0, height=2, bytes=100)
        events = read_events(path)
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["v"] == EVENT_SCHEMA_VERSION for e in events)
        assert events[0]["kind"] == "block_sealed"
        assert events[0]["ts"] == 12.0
        assert events[0]["txs"] == 3

    def test_unknown_kind_is_a_programming_error(self, tmp_path):
        with JsonlEventLog(str(tmp_path / "e.jsonl")) as log:
            with pytest.raises(ValueError, match="unknown event kind"):
                log.emit("block_selaed", 0.0)

    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        with JsonlEventLog(path) as log:
            log.emit("recovery", 0.0, height=5, replayed=2, healed=0)
        line = open(path, encoding="utf-8").read().strip()
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "e.jsonl"
        record = {"v": EVENT_SCHEMA_VERSION + 1, "seq": 0, "ts": 0.0, "kind": "recovery"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="newer than supported"):
            read_events(str(path))

    def test_wall_field_only_with_wall_clock_sampler(self, tmp_path):
        plain = str(tmp_path / "plain.jsonl")
        walled = str(tmp_path / "wall.jsonl")
        with JsonlEventLog(plain) as log:
            log.emit("serve_start", 0.0, height=0)
        ticks = iter(range(100))
        with JsonlEventLog(walled, wall_clock=lambda: float(next(ticks))) as log:
            log.emit("serve_start", 0.0, height=0)
        assert "wall" not in read_events(plain)[0]
        assert read_events(walled)[0]["wall"] == 0.0


class TestNullEmitter:
    def test_disabled_and_free(self, tmp_path):
        assert NULL_EMITTER.enabled is False
        # no attribute mutation, no I/O, no error on any call
        NULL_EMITTER.emit("block_sealed", 0.0, height=1)
        NULL_EMITTER.flush()
        NULL_EMITTER.close()
        assert isinstance(NULL_EMITTER, NullEmitter)
        assert not list(tmp_path.iterdir())


class TestRotation:
    def test_rotation_shifts_generations_and_keeps_seq(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = JsonlEventLog(path, rotate_bytes=200, max_files=2)
        for height in range(20):
            log.emit("block_sealed", float(height), height=height, txs=1)
        log.close()
        assert log.rotations >= 2
        assert os.path.exists(f"{path}.1")
        # at most max_files rotated generations survive
        assert not os.path.exists(f"{path}.3")
        # seq never resets: reading oldest-first yields a strict prefix run
        seqs = []
        for name in iter_event_files(path, max_files=2):
            seqs.extend(e["seq"] for e in read_events(name))
        assert seqs == sorted(seqs)
        assert seqs[-1] == log.seq - 1
        assert len(seqs) == len(set(seqs))

    def test_events_survive_across_rotation_boundary(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = JsonlEventLog(path, rotate_bytes=150, max_files=4)
        for height in range(12):
            log.emit("store_append", float(height), height=height, bytes=10)
        log.close()
        recovered = []
        for name in iter_event_files(path):
            recovered.extend(read_events(name))
        assert [e["height"] for e in recovered] == list(range(12))


class TestDegradation:
    def test_unwritable_path_degrades_instead_of_raising(self, tmp_path):
        target = tmp_path / "denied"
        target.mkdir()
        os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
        if os.access(str(target / "x"), os.W_OK) or os.geteuid() == 0:
            pytest.skip("cannot revoke write permission (running as root)")
        log = JsonlEventLog(str(target / "events.jsonl"))
        assert log.failed is True and log.enabled is False
        log.emit("block_sealed", 0.0, height=1)
        assert log.dropped == 1

    def test_write_failure_counts_drops(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = JsonlEventLog(path)
        log.emit("serve_start", 0.0, height=0)
        log._fh.close()  # simulate the fd dying under the emitter
        log.emit("serve_stop", 1.0, height=0, produced=0, sealed=False)
        assert log.failed is True
        assert log.dropped == 1
        log.emit("serve_stop", 2.0, height=0, produced=0, sealed=False)
        assert log.dropped == 2
        # the durable prefix is still readable
        assert [e["kind"] for e in read_events(path)] == ["serve_start"]


class TestTornTail:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        with JsonlEventLog(path) as log:
            log.emit("block_sealed", 1.0, height=1, txs=2)
            log.emit("block_sealed", 2.0, height=2, txs=2)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"seq":2,"ts":3.0,"kind":"block_se')  # torn
        events = read_events(path)
        assert [e["height"] for e in events] == [1, 2]
        with pytest.raises(ValueError, match="undecodable"):
            read_events(path, strict=True)

    def test_mid_file_damage_raises_even_lenient(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"broken\n{"v":1,"seq":1,"ts":0.0,"kind":"recovery"}\n')
        with pytest.raises(ValueError, match="undecodable"):
            read_events(str(path))


@pytest.mark.store
class TestCrossBackendDeterminism:
    """Same seed ⇒ byte-identical events.jsonl on every real-core backend."""

    BLOCKS = 4

    def _stream(self, tmp_path, label, backend_name):
        data_dir = tmp_path / label
        backend = None if backend_name == "sim" else get_backend(backend_name, 2)
        try:
            cfg = ServeConfig(
                data_dir=str(data_dir),
                txs_per_block=12,
                max_height=self.BLOCKS,
                snapshot_interval=4,
                fsync=False,
                events=True,
            )
            NodeService(cfg, backend=backend).run(handle_signals=False)
        finally:
            if backend is not None:
                backend.close()
        return (data_dir / "events.jsonl").read_bytes()

    def test_event_streams_byte_identical_across_backends(self, tmp_path):
        """serial | thread | process feed the same cost model, so their
        fixed-seed event streams must agree byte-for-byte (the sim
        backend runs a different abort schedule and pins its own
        trajectory — covered by the rerun test below)."""
        streams = {
            name: self._stream(tmp_path, name, name)
            for name in ("serial", "thread", "process")
        }
        reference = streams["serial"]
        assert reference  # produced something
        for name, stream in streams.items():
            assert stream == reference, f"{name} backend diverged"

    def test_seal_latency_on_a_backend_includes_the_proposer(self, tmp_path):
        """``block_sealed.latency_us`` is proposer + pipeline simulated
        makespan; the proposer half must not vanish when a backend is
        attached.  The chain grows one block per ``run()`` so the two
        gauges read after it belong to exactly that block."""
        for height in range(1, self.BLOCKS):
            metrics = MetricsRegistry()
            cfg = ServeConfig(
                data_dir=str(tmp_path / "node"),
                txs_per_block=12,
                max_height=height,
                snapshot_interval=4,
                fsync=False,
                events=True,
            )
            with get_backend("serial") as backend:
                NodeService(cfg, backend=backend, metrics=metrics).run(handle_signals=False)
            proposer_us = metrics.gauge("proposer.makespan_us").value
            pipeline_us = metrics.gauge("pipeline.makespan_us").value
            (event,) = [
                e
                for e in read_events(str(tmp_path / "node" / "events.jsonl"))
                if e["kind"] == "block_sealed" and e["height"] == height
            ]
            assert proposer_us > 0
            assert event["latency_us"] > round(pipeline_us, 3)
            assert event["latency_us"] == round(proposer_us + pipeline_us, 3)

    def test_sim_backend_stream_reproducible(self, tmp_path):
        first = self._stream(tmp_path, "sim-a", "sim")
        second = self._stream(tmp_path, "sim-b", "sim")
        assert first and first == second

    def test_all_emitted_kinds_are_registered(self, tmp_path):
        stream = self._stream(tmp_path, "kinds", "sim")
        kinds = {json.loads(line)["kind"] for line in stream.splitlines()}
        assert kinds <= EVENT_KINDS
        assert {"serve_start", "recovery", "block_sealed", "store_append"} <= kinds
