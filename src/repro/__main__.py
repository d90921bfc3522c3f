"""Command-line interface: quick experiments without writing a script.

Usage::

    python -m repro demo                       # one propose/validate round
    python -m repro simulate --followers 3     # multi-round consensus
    python -m repro trace --out trace.json     # traced run -> Perfetto JSON
    python -m repro check                      # conformance oracles over a chain
    python -m repro check failing.json         # replay fuzzer repro schedules
    python -m repro fuzz --schedules 200       # schedule fuzzer (repro.check)
    python -m repro serve --data-dir ./node    # durable long-running node
    python -m repro status --port 8545         # dashboard of a serving node

The paper's figures are not subcommands: each is an experiment of the
bench manifest (``python -m benchmarks list``), e.g. ``python -m
benchmarks run fig6_proposer`` for the proposer thread sweep.

All subcommands run on a freshly generated universe; ``--seed``,
``--txs-per-block`` and ``--blocks-per-point`` control workload size.

``--backend sim|serial|thread|process`` selects the execution substrate:
``sim`` (default) keeps the simulated-clock event loop every figure
experiment uses; the other three run the same algorithms on real cores
(see :mod:`repro.exec`).  Proposer makespans stay simulated microseconds
on every backend (:mod:`repro.core.session`, "the clock rule"); OCC-WSI
switches to its wave schedule there, which seals a different block than
the async lanes.

``--strategy occ-wsi|two-phase|block-stm`` picks the proposer engine
(see :mod:`repro.core.strategies`); ``demo``, ``trace``, ``check`` and
``fuzz`` honour it, so ``python -m repro --strategy block-stm fuzz``
fuzzes the Block-STM scheduler's yield points.  ``serve`` and
``simulate`` always run OCC-WSI (``simulate`` also always runs on the
``sim`` backend) and refuse any other value with exit status 2.

``--scenario <name>`` swaps the workload for a named scenario stream
(see :mod:`repro.workload.scenarios`): conflict-taming counter variants,
burst arrivals, MEV bundles, the streaming long tail, or the
day-in-the-life replay — ``python -m repro --scenario mev-bundles demo``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.chain.blockchain import Blockchain
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import ProposerConfig
from repro.core.strategies import STRATEGY_CHOICES
from repro.exec import BACKEND_CHOICES, get_backend
from repro.network.node import ProposerNode, ValidatorNode
from repro.obs.export import format_table
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import get_scenario, mainnet_scenario, scenario_names
from repro.workload.universe import build_universe


def _setup(args):
    """Universe + block source + chain for the workload the flags select.

    With ``--scenario`` the block source is the named scenario stream
    (which duck-types ``generate_block_txs``); otherwise it is the plain
    mainnet-calibrated generator.
    """
    if getattr(args, "scenario", None):
        stream = get_scenario(
            args.scenario, seed=args.seed, txs_per_block=args.txs_per_block
        )
        return stream.universe, stream, Blockchain(stream.universe.genesis)
    universe = build_universe()
    config = dataclasses.replace(
        mainnet_scenario(seed=args.seed), txs_per_block=args.txs_per_block
    )
    generator = BlockWorkloadGenerator(universe, config)
    chain = Blockchain(universe.genesis)
    return universe, generator, chain


def _proposer_config(args) -> ProposerConfig:
    """The CLI's one ProposerConfig factory — every subcommand that builds
    blocks goes through it so ``--strategy`` is honoured everywhere."""
    return ProposerConfig(strategy=args.strategy)


def cmd_demo(args) -> int:
    universe, generator, chain = _setup(args)
    backend = args.exec_backend
    proposer = ProposerNode(
        "cli-proposer", config=_proposer_config(args), backend=backend
    )
    validator = ValidatorNode("cli-validator", universe.genesis, backend=backend)
    txs = generator.generate_block_txs()
    sealed = proposer.build_block(chain.genesis.header, universe.genesis, txs)
    outcome = validator.receive_blocks([sealed.block])
    res = outcome.pipeline.results[0]
    print(
        format_table(
            [
                {
                    "txs": len(sealed.block),
                    "proposer_aborts": sealed.proposal.stats.aborts,
                    "proposer_makespan_us": round(sealed.proposal.stats.makespan, 1),
                    "validator_speedup": round(res.speedup, 2),
                    "max_subgraph": f"{res.graph.largest_component_ratio():.1%}",
                    "accepted": bool(outcome.accepted),
                }
            ],
            title="demo: one proposer/validator round trip",
        )
    )
    return 0 if outcome.accepted else 1


def cmd_simulate(args) -> int:
    """Multi-round consensus simulation, optionally with follower pools."""
    from repro.network.simnet import NetworkConfig, NetworkSimulation
    from repro.obs import MetricsRegistry

    if args.scenario:
        stream = get_scenario(
            args.scenario, seed=args.seed, txs_per_block=args.txs_per_block
        )
        universe, generator = stream.universe, stream
    else:
        universe, generator = build_universe(), None
    metrics = MetricsRegistry()
    sim = NetworkSimulation(
        universe,
        config=NetworkConfig(
            rounds=args.rounds,
            n_proposers=args.proposers,
            n_validators=args.validators,
            seed=args.seed,
            followers=args.followers,
        ),
        generator=generator,
        metrics=metrics,
    )
    result = sim.run()
    print(
        format_table(
            [
                {
                    "rounds": len(result.rounds),
                    "height": result.final_height,
                    "canonical_txs": result.total_txs,
                    "accepted": sum(r.accepted for r in result.rounds),
                    "chains_agree": result.chains_agree,
                    "followers": args.followers,
                }
            ],
            title="network simulation",
        )
    )
    if args.followers > 0:
        counters = metrics.snapshot()["counters"]
        dist = {k: v for k, v in counters.items() if k.startswith("dist.")}
        print(format_table([dist or {"dist.blocks": 0}], title="distributed counters"))
    return 0 if result.chains_agree else 1


def cmd_trace(args) -> int:
    """Run a fully traced scenario and export Chrome-trace + flame files."""
    from repro.obs import MetricsRegistry, Tracer, flame_summary, write_chrome_trace

    universe, generator, chain = _setup(args)
    tracer = Tracer()
    metrics = MetricsRegistry()

    if args.mode == "network":
        from repro.network.simnet import NetworkConfig, NetworkSimulation

        sim = NetworkSimulation(
            universe,
            config=NetworkConfig(rounds=args.rounds, seed=args.seed),
            tracer=tracer,
            metrics=metrics,
        )
        sim.run()
    else:  # "round": proposer -> validator round trips on one chain
        proposer = ProposerNode(
            "proposer",
            config=_proposer_config(args),
            tracer=tracer,
            metrics=metrics,
            backend=args.exec_backend,
        )
        validator = ValidatorNode(
            "validator",
            universe.genesis,
            tracer=tracer,
            metrics=metrics,
            backend=args.exec_backend,
        )
        parent_header, parent_state = chain.genesis.header, universe.genesis
        for _ in range(args.rounds):
            txs = generator.generate_block_txs()
            sealed = proposer.build_block(parent_header, parent_state, txs)
            outcome = validator.receive_blocks([sealed.block])
            if not outcome.accepted:
                break
            head = validator.chain.head
            parent_header = head.header
            parent_state = validator.chain.state_at(head.hash)

    trace_path = write_chrome_trace(tracer, args.out, indent=2)
    flame = flame_summary(tracer, min_share=args.min_share)
    flame_path = os.path.splitext(args.out)[0] + "_flame.txt"
    with open(flame_path, "w", encoding="utf-8") as fh:
        fh.write(flame)

    print(flame, end="")
    snapshot = metrics.snapshot()
    print(
        f"metrics: {len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms"
    )
    print(f"wrote {trace_path} ({len(tracer)} spans) — open in https://ui.perfetto.dev")
    print(f"wrote {flame_path}")
    return 0


def _fuzz_scenario(args):
    """The shared fuzz target — ``fuzz`` and ``check <repro>`` must agree
    on it so a repro file's recorded decisions land on the same workload."""
    from repro.check.fuzzer import ConformanceScenario

    if getattr(args, "scenario", None):
        return ConformanceScenario.named(
            args.scenario, n_txs=args.txs, seed=args.seed, strategy=args.strategy
        )
    return ConformanceScenario.hotspot(
        n_txs=args.txs, seed=args.seed, strategy=args.strategy
    )


def cmd_check(args) -> int:
    """Run the conformance oracles; exit non-zero on any violation."""
    from repro.check import diff_proposal, verify_commit_order, verify_schedule
    from repro.check.fuzzer import load_schedule_json, run_schedule

    if args.repro:
        # replay mode: each schedule in the repro file is re-run against the
        # standard fuzz scenario (same as `python -m repro fuzz` builds)
        scenario = _fuzz_scenario(args)
        failures = []
        for index, schedule in enumerate(load_schedule_json(args.repro)):
            failure = run_schedule(scenario, schedule)
            if failure is None:
                print(f"schedule {index}: ok")
            else:
                print(f"schedule {index}: FAIL\n{failure.describe()}")
                failures.append(failure)
        return 1 if failures else 0

    universe, generator, chain = _setup(args)
    serial = SerialExecutor()
    proposer = ProposerNode(
        "cli-check", config=_proposer_config(args), backend=args.exec_backend
    )
    parent_header, parent_state = chain.genesis.header, universe.genesis
    rows, bad = [], 0
    for number in range(args.blocks_per_point):
        txs = generator.generate_block_txs()
        sealed = proposer.build_block(parent_header, parent_state, txs)
        sched = verify_schedule(sealed.block, strategy=args.strategy)
        order = verify_commit_order(sealed.proposal)
        diff = diff_proposal(sealed, parent_state)
        if not (sched.ok and order.ok and diff.ok):
            bad += 1
            for report in (sched, order, diff):
                if not report.ok:
                    print(report.summary())
        rows.append(
            {
                "block": number + 1,
                "txs": len(sealed.block),
                "conflict_edges": sum(sched.edge_counts().values()),
                "serializable": sched.ok and order.ok,
                "serial_equivalent": diff.ok,
            }
        )
        sres = serial.execute_block(sealed.block, parent_state)
        parent_header, parent_state = sealed.block.header, sres.post_state
    print(format_table(rows, title="conformance check (oracle + differential)"))
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    """Explore seeded driver interleavings; exit non-zero on any failure."""
    from repro.check.fuzzer import fuzz_conformance, save_failures

    scenario = _fuzz_scenario(args)
    result = fuzz_conformance(
        scenario, args.schedules, seed=args.seed, budget_s=args.budget
    )
    print(result.summary())
    if args.out and result.failures:
        save_failures(result, args.out)
        print(f"wrote failing schedules to {args.out}")
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """Run the durable node: recover the data dir, produce blocks, seal."""
    from repro.faults.storage import CrashPlan
    from repro.obs import MetricsRegistry
    from repro.store.service import NodeService, ServeConfig

    cfg = ServeConfig(
        data_dir=args.data_dir,
        seed=args.seed,
        txs_per_block=args.txs_per_block,
        scenario=args.scenario,
        max_height=args.blocks,
        block_interval=args.block_interval,
        snapshot_interval=args.snapshot_interval,
        compact=not args.no_compact,
        fsync=not args.no_fsync,
        report_every=args.report_every,
        events=args.events,
        status_port=args.status_port,
        wall_clock_slo=args.wall_clock_slo,
        stall_interval_s=args.stall_interval,
        stall_factor=args.stall_factor,
    )
    service = NodeService(
        cfg,
        backend=args.exec_backend,
        metrics=MetricsRegistry(),
        crash=CrashPlan.from_env(),
    )
    report = service.run()
    if service.recovery is not None and not service.recovery.fresh:
        print(service.recovery_summary)
    print(report.summary())
    return report.exit_code


def _render_status(doc: dict) -> str:
    """One compact dashboard frame from a /status JSON document."""
    health = doc.get("health", {})
    slo = doc.get("slo", {})
    totals = slo.get("totals", {})
    windows = slo.get("windows") or []
    current = windows[-1] if windows else {}
    events = doc.get("events", {})
    state = "healthy" if health.get("healthy", False) else "UNHEALTHY"
    if not health.get("ready", False):
        state = "recovering"
    lines = [
        f"node   height={doc.get('height', '?')} head={str(doc.get('head', ''))[:12]} "
        f"produced={doc.get('produced', '?')} "
        f"resumed_from={doc.get('resumed_from', '?')}",
        f"health {state} silent={health.get('silent_s', 0.0):.1f}s "
        f"threshold={health.get('threshold_s', 0.0):.1f}s "
        f"unhealthy_intervals={health.get('unhealthy_intervals', 0)}",
        f"totals blocks={totals.get('blocks', 0)} txs={totals.get('txs', 0)} "
        f"aborts={totals.get('aborts', 0)} retries={totals.get('retries', 0)} "
        f"fallbacks={totals.get('fallbacks', 0)}",
        f"window seal_p50={current.get('seal_p50_us', 0.0):.0f}us "
        f"p95={current.get('seal_p95_us', 0.0):.0f}us "
        f"p99={current.get('seal_p99_us', 0.0):.0f}us "
        f"abort_rate={current.get('abort_rate', 0.0):.3f}",
        f"store  write_p95={current.get('store_p95_us', 0.0):.0f}us "
        f"events_seq={events.get('seq', 0)} "
        f"dropped={events.get('dropped', 0)} "
        f"rotations={events.get('rotations', 0)}",
    ]
    return "\n".join(lines)


def cmd_status(args) -> int:
    """Scrape a running node's /status endpoint and render a dashboard."""
    import json
    import time
    import urllib.error
    import urllib.request

    if args.url:
        base = args.url.rstrip("/")
    elif args.port is not None:
        base = f"http://127.0.0.1:{args.port}"
    else:
        print("status: need --url or --port", file=sys.stderr)
        return 2

    def fetch() -> dict:
        with urllib.request.urlopen(f"{base}/status", timeout=5) as resp:
            return json.load(resp)

    try:
        while True:
            try:
                doc = fetch()
            except (urllib.error.URLError, OSError) as exc:
                print(f"status: {base} unreachable: {exc}", file=sys.stderr)
                return 1
            frame = _render_status(doc)
            if args.watch:
                # clear + home, like a one-page `top`
                print(f"\x1b[2J\x1b[H{base}\n{frame}", flush=True)
                time.sleep(args.interval)
            else:
                print(frame)
                return 0
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BlockPilot reproduction — quick experiment driver",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--txs-per-block", type=int, default=132)
    parser.add_argument("--blocks-per-point", type=int, default=4)
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="sim",
        help="execution substrate: sim (event-loop clock, default) or a "
        "real-core backend (serial | thread | process)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for real-core backends (default: all CPUs)",
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="occ-wsi",
        help="proposer execution engine: occ-wsi (paper Alg. 1, default), "
        "two-phase (Saraph & Herlihy), or block-stm (Gelashvili et al.)",
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default=None,
        help="named workload scenario stream (repro.workload.scenarios); "
        "default: the paper-calibrated mainnet mix",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="one propose/validate round trip")
    p = sub.add_parser(
        "simulate", help="multi-round consensus simulation (repro.network)"
    )
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--proposers", type=int, default=2)
    p.add_argument("--validators", type=int, default=2)
    p.add_argument(
        "--followers",
        type=int,
        default=0,
        help="shard validation across N follower nodes per validator",
    )
    p = sub.add_parser("trace", help="traced run -> Chrome-trace JSON + flame")
    p.add_argument(
        "--mode",
        choices=["round", "network"],
        default="round",
        help="round: proposer/validator round trips; network: full simnet",
    )
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--out", default="trace.json")
    p.add_argument(
        "--min-share",
        type=float,
        default=0.0,
        help="prune flame lines below this fraction of total time",
    )
    p = sub.add_parser(
        "check", help="conformance oracles: serializability + serial-equivalence"
    )
    p.add_argument(
        "repro",
        nargs="?",
        default=None,
        help="optional fuzzer repro JSON: replay its schedules instead of "
        "building a fresh chain",
    )
    p.add_argument(
        "--txs",
        type=int,
        default=18,
        help="scenario block size for repro replays (must match the fuzz run)",
    )
    p = sub.add_parser(
        "fuzz",
        help="deterministic schedule fuzzer over the thread-backend drivers",
    )
    p.add_argument("--schedules", type=int, default=50)
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (stops early when exceeded)",
    )
    p.add_argument("--txs", type=int, default=18, help="scenario block size")
    p.add_argument(
        "--out", default=None, help="write failing schedules to this JSON file"
    )
    p = sub.add_parser(
        "serve",
        help="durable long-running node: block log + snapshots + recovery",
    )
    p.add_argument(
        "--data-dir", required=True, help="directory for log/snapshots/manifest"
    )
    p.add_argument(
        "--blocks",
        type=int,
        default=0,
        help="stop once the chain reaches this height (0 = run until signal)",
    )
    p.add_argument(
        "--block-interval",
        type=int,
        default=12,
        help="simulated seconds between blocks (header-timestamp step)",
    )
    p.add_argument(
        "--snapshot-interval",
        type=int,
        default=64,
        help="write a full state snapshot every N canonical blocks",
    )
    p.add_argument(
        "--no-compact",
        action="store_true",
        help="keep the full block log (skip post-snapshot compaction)",
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync calls (faster; durable only against process death)",
    )
    p.add_argument(
        "--report-every",
        type=int,
        default=0,
        help="every N blocks print height, blocks/s over those N blocks and "
        "peak RSS (0 = quiet)",
    )
    p.add_argument(
        "--events",
        action="store_true",
        help="write a structured JSONL event log next to the block log",
    )
    p.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="loopback HTTP status endpoint (/metrics /status /healthz); "
        "0 picks an ephemeral port, printed to stderr",
    )
    p.add_argument(
        "--wall-clock-slo",
        action="store_true",
        help="sample SLO windows on the wall clock instead of the "
        "simulated one (diagnostics only; breaks event determinism)",
    )
    p.add_argument(
        "--stall-interval",
        type=float,
        default=5.0,
        help="expected seconds between sealed blocks (watchdog base)",
    )
    p.add_argument(
        "--stall-factor",
        type=float,
        default=4.0,
        help="/healthz flips unhealthy after factor×interval of silence",
    )
    p = sub.add_parser(
        "status",
        help="scrape a running serve node's /status endpoint and render it",
    )
    p.add_argument(
        "--url",
        default=None,
        help="status endpoint base URL (default: http://127.0.0.1:<port>)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="shorthand for --url http://127.0.0.1:<port>",
    )
    p.add_argument(
        "--watch",
        action="store_true",
        help="refresh the dashboard every --interval seconds until ^C",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period for --watch (wall seconds)",
    )
    return parser


COMMANDS = {
    "demo": cmd_demo,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "check": cmd_check,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "status": cmd_status,
}


#: global flags a subcommand (or trace mode) does not honour: it runs their defaults only
UNHONOURED = {
    "serve": ("strategy",),
    "simulate": ("strategy", "backend"),
    "trace --mode network": ("strategy", "backend"),
    "fuzz": ("backend", "workers"),
    "check <repro>": ("backend", "workers"),
}
#: what a run does in place of an unhonoured flag, where that is not the flag's default
RUNS_INSTEAD = dict.fromkeys(
    ("fuzz", "check <repro>"), "the thread backend on its scenario's workers"
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = args.command
    if run == "trace":
        run = f"trace --mode {args.mode}"
    elif run == "check" and args.repro:
        run = "check <repro>"
    for flag in UNHONOURED.get(run, ()):
        default = parser.get_default(flag)
        if getattr(args, flag) != default:
            runs = RUNS_INSTEAD.get(run, default)
            parser.error(f"--{flag} {getattr(args, flag)}: {run} always runs {runs}")
    # one backend per invocation, shared by every engine the command builds
    args.exec_backend = get_backend(args.backend, args.workers)
    try:
        return COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # `serve` installs its own SIGINT handler and seals first; every
        # other command just stops cleanly with the conventional code
        print(
            f"interrupted: {args.command} stopped before finishing (exit 130)",
            file=sys.stderr,
        )
        return 130
    finally:
        if args.exec_backend is not None:
            args.exec_backend.close()


if __name__ == "__main__":
    sys.exit(main())
