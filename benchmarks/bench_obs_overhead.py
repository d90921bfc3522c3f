"""Observability overhead, export-contract and live-telemetry benchmarks.

Three claims behind the ``repro.obs`` layer:

* **Off by default, free by default** — the production path runs with
  :data:`~repro.obs.tracer.NULL_TRACER` and no metrics registry, so the
  instrumentation reduces to boolean guards.  The guard microbenchmark
  bounds their cost below 3% of a block's validation wall time.
* **Deterministic export** — the traced run's *simulated* timing is
  bit-identical to the untraced run (tracing rides the one timing walk; it
  never perturbs the model), the Chrome-trace JSON of two identical traced
  runs is byte-identical, and it carries the ``ph``/``ts``/``pid``/``tid``/
  ``name`` keys Perfetto needs.
* **A replayable event stream** — a fixed-seed ``serve`` run with telemetry
  on writes the same bytes every time; ``BENCH_obs_live.json`` pins its
  shape.  (What telemetry costs in wall time is ``benchmarks/e2e``'s
  ``trace.overhead_share``, not this file's.)
"""

import json
import tempfile
import time
from pathlib import Path

from benchmarks.world import Outcome, World
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs import NULL_EMITTER, NULL_TRACER, MetricsRegistry, Tracer, chrome_trace_json
from repro.obs.events import read_events
from repro.obs.export import format_table
from repro.store.service import NodeService, ServeConfig

GUARD_ITERATIONS = 200_000
#: generous upper bound on NullTracer/metrics guard evaluations per tx
#: (occ-wsi loop + validator phases + scheduler are each a handful)
GUARDS_PER_TX = 32


def _validate_all(validator, entries):
    results = [validator.validate_block(entry.block, entry.parent_state) for entry in entries]
    assert all(result.accepted for result in results)
    return results


def run_guards(world: World, blocks: int) -> Outcome:
    """Default NullTracer instrumentation must cost <3% wall time."""
    entries = world.chain(blocks)
    untraced = ParallelValidator(config=ValidatorConfig(lanes=16))

    # Measure the primitive the production path actually pays: one
    # ``tracer.enabled`` / ``metrics is not None`` guard evaluation, plus
    # the ``emitter.enabled`` guard the live-telemetry seams add.
    tracer = NULL_TRACER
    metrics = None
    emitter = NULL_EMITTER
    start = time.perf_counter()
    for _ in range(GUARD_ITERATIONS):
        if tracer.enabled:
            raise AssertionError("NullTracer must be disabled")
        if metrics is not None:
            raise AssertionError
        if emitter.enabled:
            raise AssertionError("NullEmitter must be disabled")
    guard_wall = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(GUARD_ITERATIONS):
        pass
    empty_wall = time.perf_counter() - start
    guard_cost = max(guard_wall - empty_wall, 0.0) / GUARD_ITERATIONS

    _validate_all(untraced, entries)  # warm up the interpreter path
    start = time.perf_counter()
    _validate_all(untraced, entries)
    base = time.perf_counter() - start
    txs = sum(len(e.block) for e in entries)
    guard_share = (guard_cost * GUARDS_PER_TX * txs) / base

    report = format_table(
        [
            {
                "config": "NullTracer (default)",
                "validate_s": round(base, 4),
                "guard_ns": round(guard_cost * 1e9, 1),
                "overhead": f"{guard_share:+.2%} (guard bound)",
            }
        ],
        title=f"Observability guards ({len(entries)} blocks, 16 lanes)",
    )
    return Outcome({"guard_share": guard_share}, report)


def check_guards(headline: dict) -> None:
    share = headline["guard_share"]
    assert share < 0.03, f"NullTracer guards cost {share:.2%} of validation wall time"


def run_export(world: World, blocks: int) -> Outcome:
    """Tracing never perturbs simulated timing; the export replays byte for byte."""
    entries = world.chain(blocks)

    def traced_run():
        tracer = Tracer()
        validator = ParallelValidator(
            config=ValidatorConfig(lanes=16), tracer=tracer, metrics=MetricsRegistry()
        )
        return _validate_all(validator, entries), chrome_trace_json(tracer)

    untraced = _validate_all(ParallelValidator(config=ValidatorConfig(lanes=16)), entries)
    traced, first = traced_run()
    _, second = traced_run()
    events = json.loads(first)["traceEvents"]
    headline = {
        "timing_mismatches": sum(
            a.phases != b.phases or a.post_state.state_root() != b.post_state.state_root()
            for a, b in zip(untraced, traced)
        ),
        "export_replays": first == second,
        "events": len(events),
        "complete_events": sum(e["ph"] == "X" for e in events),
        "events_missing_keys": sum(
            any(key not in e for key in ("ph", "ts", "pid", "tid", "name")) for e in events
        ),
    }
    report = format_table([headline], title=f"Trace export contract ({len(entries)} blocks)")
    return Outcome(headline, report)


def check_export(headline: dict) -> None:
    assert headline["timing_mismatches"] == 0, "tracing perturbed a phase boundary or a root"
    assert headline["export_replays"], "same-seed traced runs must export identical JSON"
    assert headline["events"] > 0 and headline["complete_events"] > 0
    assert headline["events_missing_keys"] == 0


def run_live(world: World, blocks: int) -> Outcome:
    """Events-on serve lane: the *simulated* shape of a fixed-seed serve run
    with telemetry on — event counts, sequence numbers, narrated aborts, file
    bytes — so the gate catches any drift in the event schema or the abort
    schedule.  (``serve`` builds its own universe, so ``world`` goes unused.)"""

    def serve(data_dir: Path, events: bool):
        config = ServeConfig(
            data_dir=str(data_dir),
            txs_per_block=12,
            max_height=blocks,
            snapshot_interval=4,
            fsync=False,
            events=events,
        )
        return NodeService(config).run(handle_signals=False)

    with tempfile.TemporaryDirectory() as tmp:
        assert serve(Path(tmp, "off"), False).events_written == 0
        on_report = serve(Path(tmp, "on"), True)
        serve(Path(tmp, "again"), True)
        reference = Path(tmp, "on", "events.jsonl").read_bytes()
        # same seed, same bytes: the event stream is part of the repro surface
        replays = Path(tmp, "again", "events.jsonl").read_bytes() == reference
        events = read_events(str(Path(tmp, "on", "events.jsonl")))

    kinds = [event["kind"] for event in events]
    sealed = [event for event in events if event["kind"] == "block_sealed"]
    assert replays, "event streams diverged"
    assert len(sealed) == blocks
    assert on_report.events_written == len(events)
    assert [event["seq"] for event in events] == list(range(len(events)))

    headline = {
        "events_total": len(events),
        "sealed_events": len(sealed),
        "append_events": kinds.count("store_append"),
        "narrated_aborts": sum(e["aborts"] for e in sealed),
        "final_seq": events[-1]["seq"],
        "event_bytes": len(reference),
    }
    report = format_table(
        [headline], title=f"Live telemetry lane ({blocks} blocks, sim backend)"
    )
    config = {"blocks": blocks, "txs_per_block": 12, "seed": 42, "backend": "sim"}
    return Outcome(headline, report, config)


def check_live(headline: dict) -> None:
    assert headline["final_seq"] == headline["events_total"] - 1
    assert headline["sealed_events"] == headline["append_events"] > 0
