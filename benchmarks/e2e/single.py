"""One benchmark run: ``--workload W --seed N --seconds S --trace 0|1``.

``--trace 0`` does ``PASSES`` lifecycle passes and prints the end-to-end
metrics; ``--trace 1`` does ``TRACE_PAIRS`` times an
untraced and a traced pass, then the layer probes, and prints the per-layer
metrics.  Either way the last line of stdout is the result
object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

from .kernel import CAL_REF_S, Kernel, kernel_hash
from .lifecycle import (
    GENERATE,
    PROPOSE,
    VALIDATE,
    BlockSample,
    PassResult,
    Timed,
    make_root,
    pin_to_one_cpu,
    run_pass,
)
from .probes import run_probes
from .spec import OUT_DIR, SNAPSHOT_INTERVAL, WORKLOADS, Workload, load_contract
from .trace import SpanRecorder, write_trace

#: lifecycle passes of a ``--trace 0`` run; each gives one set-up and one
#: recovery sample and one time per block height, and the run reports medians
#: over them.  A constant, not "as many as fit into --seconds": a median of 4
#: and a median of 5 of the same right-skewed times differ by several percent.
#: ``BENCHMARK.json``'s ``run_seconds`` is what they take here.
PASSES = 5

#: (untraced pass, traced pass) pairs of a ``--trace 1`` run, interleaved, so
#: that ``trace.overhead_share`` can set the fastest of three passes against
#: the fastest of three (see ``per_layer``)
TRACE_PAIRS = 3

#: the stage spans that partition a block (see README, "Per-layer metrics")
FIRST_HALF_STAGES = ("workload.generate", "txpool.admit", "core.propose", "core.seal")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(load_contract()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blocks", type=int, default=0, help="override the workload's block count (smoke runs)"
    )
    parser.add_argument("--detail", help="also write everything measured to this JSON file")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(passes: List[PassResult]) -> Tuple[Dict[str, Dict[str, float]], float]:
    """``{metric: {"value": calibrated, "raw": plain wall}}`` over all passes,
    and the run's stall seconds.

    ``raw`` has nothing taken out: for the three rates it is committed
    transactions over the wall sums of every block of every pass.  ``value``
    is calibrated, and for the rates it is the rate of the *typical pass*
    below.  Stall seconds are the loop wall time the typical passes do not
    account for: filesystem stalls mostly, ordinary jitter otherwise.
    """
    blocks: List[BlockSample] = [b for p in passes for b in p.blocks]
    committed = sum(b.committed for b in blocks)
    stages = (GENERATE, PROPOSE, VALIDATE)

    def pair(cal: float, raw: float) -> Dict[str, float]:
        return {"value": cal, "raw": raw}

    def median_of(timed: List[Optional[Timed]]) -> Dict[str, float]:
        samples = [t for t in timed if t is not None]
        if not samples:
            return pair(0.0, 0.0)
        return pair(
            statistics.median(t.cal_s for t in samples),
            statistics.median(t.wall_s for t in samples),
        )

    # A "typical pass": per stage, the sum over block heights of the median
    # over passes of that block's own time (collector pauses taken out).  All
    # passes of a run replay the same seed, so height i is the same work in
    # each, and the median drops the rare 0.2-0.6 s filesystem stall (README,
    # "Stalls") that would otherwise move a whole run's rate by 10-20%.
    depth = min((len(p.blocks) for p in passes), default=0)

    def typical(own: Any) -> List[float]:
        return [
            sum(statistics.median(own(p.blocks[i], stage) for p in passes) for i in range(depth))
            for stage in stages
        ]

    own_cal = typical(lambda b, stage: b.cal(stage) - b.gc_cal(stage))
    own_wall = typical(lambda b, stage: b.wall_s[stage] - b.gc_s[stage])
    # Full-collection pauses are put back as a surcharge in proportion to each
    # stage's own time, not billed to whichever stage they happened to
    # interrupt (lifecycle.FullCollections says why).
    gc_cal = sum(b.total_gc_cal for b in blocks)
    gc_wall = sum(sum(b.gc_s) for b in blocks)
    plain_wall = [sum(b.wall_s[stage] for b in blocks) for stage in stages]
    surcharge_cal = 1.0 + _rate(gc_cal, sum(b.total_cal for b in blocks) - gc_cal)
    surcharge_wall = 1.0 + _rate(gc_wall, sum(plain_wall) - gc_wall)
    per_pass = committed / len(passes)

    def rate(*which: int) -> Dict[str, float]:
        return pair(
            _rate(per_pass, sum(own_cal[s] for s in which) * surcharge_cal),
            _rate(committed, sum(plain_wall[s] for s in which)),
        )

    stall_s = sum(plain_wall) - len(passes) * sum(own_wall) * surcharge_wall
    metrics = {
        "tx_per_s": rate(*stages),
        "propose_tx_per_s": rate(PROPOSE),
        "validate_tx_per_s": rate(VALIDATE),
        "block_ms_p50": pair(
            statistics.median(b.total_cal for b in blocks) * 1e3 if blocks else 0.0,
            statistics.median(b.total_wall for b in blocks) * 1e3 if blocks else 0.0,
        ),
        "setup_s": median_of([p.setup for p in passes]),
        "recover_s": median_of([p.recover for p in passes]),
        # after the first pass, so the value does not depend on the pass count
        "peak_rss_mb": pair(passes[0].peak_rss_mb, passes[0].peak_rss_mb),
    }
    return metrics, stall_s


def _stage_seconds(traced: PassResult, recorder: SpanRecorder) -> List[Dict[str, float]]:
    """Per block of a traced pass: calibrated seconds by stage span, net of
    the instrument's own spans.  All but ``exec.map`` partition the block."""
    rows = recorder.by_block()
    out: List[Dict[str, float]] = []
    for sample in traced.blocks:
        row = rows.get(sample.height, {})
        first, second = sample.factor(PROPOSE), sample.factor(VALIDATE)
        named = {name: row.get(name, 0.0) * first for name in FIRST_HALF_STAGES}
        named["store.commit"] = row.get("store.commit", 0.0) * second
        named["core.validate"] = (row.get("core.validate", 0.0) * second) - named["store.commit"]
        # what the block span covers beyond its named children: the loop's own glue
        named["node.other"] = row.get("self:block", 0.0) * (first + second) / 2
        named["exec.map"] = row.get("exec.map", 0.0) * (first + second) / 2
        out.append(named)
    return out


def _fast_pass(passes: List[List[float]], pauses: List[List[float]]) -> float:
    """Loop seconds of the passes' common work with the waiting taken out:
    per height the fastest pass's own time, plus the mean pass's collector
    pauses (those fall at other heights from pass to pass, so a minimum per
    height would drop them from one side and not from the other)."""
    own = [[t - g for t, g in zip(times, gcs)] for times, gcs in zip(passes, pauses)]
    return sum(min(column) for column in zip(*own)) + statistics.mean(sum(g) for g in pauses)


def per_layer(
    untraced: List[PassResult],
    traced_passes: List[Tuple[PassResult, SpanRecorder]],
    registry: MetricsRegistry,
    probes: Dict[str, float],
    import_s: float,
) -> Dict[str, float]:
    """The per-layer table.  Stage times are means over the blocks of every
    traced pass; counts, probes and recovery come from the last one, whose
    ``registry`` this is."""
    traced = traced_passes[-1][0]
    staged = [_stage_seconds(p, recorder) for p, recorder in traced_passes]
    every_block = [block for blocks in staged for block in blocks]
    n = max(len(traced.blocks), 1)
    names = list(FIRST_HALF_STAGES) + ["core.validate", "store.commit", "exec.map", "node.other"]
    out = {
        name + "_ms": sum(block[name] for block in every_block) * 1e3 / max(len(every_block), 1)
        for name in names
    }
    # the end-to-end rates leave rare filesystem stalls out (end_to_end above);
    # here one shows: a stalled commit is several times a snapshot-writing one
    out["store.commit_max_ms"] = max((b["store.commit"] for b in every_block), default=0.0) * 1e3
    traced_cal = [
        [sum(v for k, v in block.items() if k != "exec.map") for block in blocks]
        for blocks in staged
    ]
    traced_gc = [[b.total_gc_cal for b in p.blocks] for p, _ in traced_passes]
    untraced_cal = [[b.total_cal for b in p.blocks] for p in untraced]
    untraced_gc = [[b.total_gc_cal for b in p.blocks] for p in untraced]
    every_total = [t for totals in traced_cal for t in totals]
    out["trace.coverage"] = 1.0 - _rate(sum(b["node.other"] for b in every_block), sum(every_total))
    # Height i is the same work in every pass, so each side is represented by
    # its fastest pass at each height.  A ratio of plain sums is useless here:
    # one stall or slow host phase in either pass moves it by more than the
    # limit it is checked against.
    out["trace.overhead_share"] = (
        _rate(_fast_pass(traced_cal, traced_gc), _fast_pass(untraced_cal, untraced_gc)) - 1.0
        if every_total
        else 0.0
    )
    both = sorted([t for totals in untraced_cal for t in totals] + every_total)
    out["node.block_ms_p90"] = both[int(0.9 * (len(both) - 1))] * 1e3 if both else 0.0

    counts = traced.counts
    counters = registry.snapshot()["counters"]
    lookups = counters.get("state.base_cache.hits", 0) + counters.get("state.base_cache.misses", 0)
    graphs = max(counts.get("core.planned_blocks", 0), 1)
    out.update(
        {
            "core.executions": counts.get("core.executions", 0),
            "core.commits": counts.get("core.commits", 0),
            "core.aborts": counts.get("core.aborts", 0),
            "core.useful_ratio": _rate(
                counts.get("core.commits", 0), counts.get("core.executions", 0)
            ),
            "core.serial_fallbacks": counts.get("core.serial_fallbacks", 0),
            "core.exec_retries": counts.get("core.exec_retries", 0),
            "core.components_per_block": counts.get("core.components", 0) / graphs,
            "core.largest_component_ratio": counts.get("core.largest_component_ratio_sum", 0.0)
            / graphs,
            "state.base_cache_hit_ratio": _rate(counters.get("state.base_cache.hits", 0), lookups),
            "chain.gas_per_block": counts.get("chain.gas", 0) / n,
            "workload.txs_generated": counts.get("workload.txs_generated", 0),
            "store.bytes_per_block": counters.get("store.bytes_appended", 0) / n,
            "store.snapshots": counters.get("store.snapshots", 0),
            "store.compactions": counters.get("store.compactions", 0),
            "store.manifest_writes": counters.get("store.manifest_writes", 0),
        }
    )
    out.update(traced.exec_counts)
    out.update(probes)
    replayed = len(traced.blocks) % SNAPSHOT_INTERVAL or 1
    recover_ms = traced.recover.cal_s * 1e3 if traced.recover else 0.0
    out["store.recover_replay_ms_per_block"] = (
        max(recover_ms - probes.get("store.snapshot_load_ms", 0.0), 0.0) / replayed
    )
    out["node.import_s"] = import_s
    return out


def _cross_check(passes: List[PassResult], problems: List[str]) -> None:
    """Same seed, same process: every pass must seal the same chain."""
    first = passes[0]
    for index, other in enumerate(passes[1:], start=2):
        if other.heads != first.heads:
            problems.append(f"pass {index} sealed a different chain than pass 1")
        if other.counts != first.counts:
            problems.append(f"pass {index} exact counts differ from pass 1")


def run(args: argparse.Namespace, kernel: Kernel, import_s: float) -> int:
    contract = load_contract()
    workload: Workload = WORKLOADS[args.workload]
    blocks = args.blocks or workload.blocks
    home_cpus = pin_to_one_cpu()
    started = time.perf_counter()
    root = make_root()
    layer: Optional[Dict[str, float]] = None

    def one_pass(which: Workload, **tracing: Any) -> PassResult:
        done = run_pass(
            which, args.seed, root, kernel, blocks=blocks, home_cpus=home_cpus, **tracing
        )
        gc.collect()
        return done

    try:
        passes: List[PassResult] = []
        traced_passes: List[Tuple[PassResult, SpanRecorder]] = []
        registry = MetricsRegistry()  # each traced pass brings its own
        # a smoke run (--blocks) wants every metric once, not a steady overhead figure
        pairs = 1 if args.blocks else TRACE_PAIRS
        for index in range(pairs if args.trace else PASSES):
            passes.append(one_pass(workload))
            # safety valve for a host several times slower than the builder's
            if passes[-1].problems or time.perf_counter() - started > 2 * args.seconds:
                break
            if args.trace:
                recorder, registry = SpanRecorder(), MetricsRegistry()
                traced = one_pass(workload, recorder=recorder, metrics=registry)
                if index + 1 < pairs:
                    # the probes replay the last traced pass only; kept alive,
                    # an earlier one's blocks and states would lengthen every
                    # full collection of the untraced pass after it
                    traced.drop_replay_material()
                traced_passes.append((traced, recorder))
        metrics, stall_s = end_to_end(passes)
        checked = passes + [p for p, _ in traced_passes]
        reference: Optional[PassResult] = None
        if traced_passes:
            if workload.backend is not None:
                # the repo's cross-backend guarantee: real workers seal exactly
                # the chain SerialBackend (the reference semantics) seals.
                reference = one_pass(dataclasses.replace(workload, backend="serial"))
            traced, recorder = traced_passes[-1]
            probes = run_probes(traced, workload, root, kernel) if traced.sealed else {}
            layer = per_layer(passes, traced_passes, registry, probes, import_s)
            write_trace(
                os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                recorder,
                origin=started,
                meta={
                    "workload": workload.name,
                    "seed": args.seed,
                    "blocks": blocks,
                    "kernel_hash": kernel_hash(),
                    "cal_ref_s": CAL_REF_S,
                    "kernel_s": [list(b.kernel_s) for b in traced.blocks],
                },
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    problems = [problem for p in checked for problem in p.problems]
    _cross_check(checked, problems)
    if reference is not None and (reference.problems or reference.heads != passes[0].heads):
        problems.append(f"{workload.backend} backend and SerialBackend seal different chains")
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    if problems:
        failed = max(failed, len(problems))

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    section = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else {name: m["value"] for name, m in metrics.items()}
    missing = [m["name"] for m in contract[section] if m["name"] not in values]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": units[m["name"]]}
            for m in contract[section]
        },
    }
    if args.detail:
        detail: Dict[str, Any] = {
            "workload": workload.name,
            "seed": args.seed,
            "blocks": blocks,
            "passes": len(passes),
            "kernel_hash": kernel_hash(),
            "cal_ref_s": CAL_REF_S,
            "end_to_end": metrics,
            "stall_s": stall_s,
            "per_layer": layer,
            "heads": passes[0].heads,
            "counts": passes[0].counts,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "kernel_ms_median": statistics.median(
                k * 1e3 for p in passes for b in p.blocks for k in b.kernel_s
            )
            if passes[0].blocks
            else 0.0,
        }
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    for problem in problems:
        print("FAILED CHECK:", problem)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
