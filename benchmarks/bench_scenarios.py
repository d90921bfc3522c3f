"""Scenario diversity sweep — per-scenario speedup / abort-rate table.

Every scenario registered in :mod:`repro.workload.scenarios` runs through
the full propose → oracle → validate chain on the simulated clock: the
OCC-WSI proposer (strict serializability checks on), the commit-order
oracle's conflict-edge census, and the parallel validator whose speedup
is the paper's headline metric.  Scenarios with per-height dynamics
(bursts, the diurnal cycle) are swept across enough consecutive heights
to cover both phases of their envelope.

The committed ``BENCH_scenarios.json`` golden regenerates byte for byte.
The acceptance bar: the partitioned-counter ERC-20 variant must beat the
shared-counter variant on proposer speedup *and* carry strictly fewer
conflict edges — the semantic conflict-reduction result of Garamvölgyi et
al. on identical traffic.
"""

from __future__ import annotations

from statistics import mean
from typing import List

from benchmarks.world import Outcome, World
from repro.chain.blockchain import Blockchain
from repro.check.oracle import verify_commit_order
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import ProposerConfig
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode
from repro.obs.export import format_table
from repro.workload.scenarios import get_scenario, scenario_names

LANES = 16
SEED = 42


def run(world: World, txs_per_block: int, blocks_per_point: int) -> Outcome:
    """Every scenario builds its own universe, so ``world`` goes unused."""
    rows: List[dict] = []
    headline: dict = {}
    for name in scenario_names():
        stream = get_scenario(name, seed=SEED, txs_per_block=txs_per_block)
        chain = Blockchain(stream.universe.genesis)
        proposer = ProposerNode(
            "bench",
            config=ProposerConfig(lanes=LANES, strict_checks=True),
        )
        validator = ParallelValidator(config=ValidatorConfig(lanes=LANES))
        serial = SerialExecutor()
        parent_header = chain.genesis.header
        parent_state = stream.universe.genesis
        committed = aborts = edges = 0
        makespan = serial_time = 0.0
        val_speedups: List[float] = []
        for _ in range(blocks_per_point):
            txs = stream.generate_block_txs()
            sealed = proposer.build_block(parent_header, parent_state, txs)
            proposal = sealed.proposal
            committed += len(proposal.committed)
            aborts += proposal.stats.aborts
            makespan += proposal.stats.makespan
            order = verify_commit_order(proposal)
            if not order.ok:
                raise AssertionError(
                    f"scenario {name!r} produced a non-serializable schedule:\n"
                    + order.summary()
                )
            edges += sum(order.edge_counts().values())
            serial_time += serial.execute_block(sealed.block, parent_state).total_time
            verdict = validator.validate_block(sealed.block, parent_state)
            if not verdict.accepted:
                raise AssertionError(f"scenario {name!r} block rejected")
            val_speedups.append(verdict.speedup)
            parent_header = sealed.block.header
            parent_state = verdict.post_state
        throughput = committed * 1e6 / makespan if makespan else 0.0
        abort_rate = aborts / max(1, committed + aborts)
        # proposer speedup is key-granular (OCC-WSI footprints), so it is
        # the metric that sees semantic conflict reduction; the validator
        # partitions at account granularity and reacts to component shape
        proposer_speedup = serial_time / makespan if makespan else 0.0
        headline[name] = {
            "proposer_speedup": round(proposer_speedup, 3),
            "validator_speedup": round(mean(val_speedups), 3),
            "abort_rate": round(abort_rate, 4),
            "conflict_edges": edges,
            "throughput_tps": round(throughput, 1),
        }
        rows.append(
            {
                "scenario": name,
                "committed": committed,
                "aborts": aborts,
                "conflict_edges": edges,
                "proposer_speedup": round(proposer_speedup, 2),
                "validator_speedup": round(mean(val_speedups), 2),
                "throughput_tps": round(throughput, 1),
            }
        )

    # the conflict-taming headline: same traffic, different counter layout
    shared = headline["counter-shared"]
    partitioned = headline["counter-partitioned"]
    headline["partitioned_vs_shared_speedup"] = round(
        partitioned["proposer_speedup"] / shared["proposer_speedup"], 3
    )
    headline["partitioned_vs_shared_edge_ratio"] = round(
        partitioned["conflict_edges"] / max(1, shared["conflict_edges"]), 3
    )
    report = format_table(
        rows,
        title="Scenario diversity sweep — per-scenario conflict shape (occ-wsi, sim clock)",
    )
    config = {
        "lanes": LANES, "seed": SEED,
        "txs_per_block": txs_per_block, "blocks_per_point": blocks_per_point,
    }
    return Outcome(headline, report, config)


def check(headline: dict) -> None:
    # partitioned counters must lift parallelism AND shed edges
    assert headline["partitioned_vs_shared_speedup"] > 1.0
    assert (
        headline["counter-partitioned"]["conflict_edges"]
        < headline["counter-shared"]["conflict_edges"]
    )
    # every scenario commits work and parallelises at least a little
    for name in scenario_names():
        assert headline[name]["throughput_tps"] > 0, name
        assert headline[name]["validator_speedup"] >= 1.0, name
