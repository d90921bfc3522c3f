"""Workload study — where conflicts come from (§2.3/§3.1).

The paper grounds its design in Garamvölgyi et al.'s empirical finding
that "the majority of data conflicts encountered in parallel Ethereum
workloads are derived from storage and counters".  This benchmark
reproduces that table on the generated chain: conflict edges classified
by key kind, the hottest keys, and the share of transactions entangled
in at least one conflict.
"""

from benchmarks.analysis import analyze_block_conflicts
from benchmarks.world import Outcome, World
from repro.obs.export import format_table


def run(world: World, blocks: int) -> Outcome:
    totals = {}
    edges = 0
    conflicting_fractions = []
    for entry in world.chain(blocks):
        breakdown = analyze_block_conflicts(entry.block)
        edges += breakdown.total_edges
        for kind, count in breakdown.edges_by_kind.items():
            totals[kind] = totals.get(kind, 0) + count
        conflicting_fractions.append(breakdown.conflicting_tx_fraction)

    rows = [
        {
            "conflict_source": kind,
            "edges": count,
            "share": f"{count / edges:.1%}",
        }
        for kind, count in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
    mean_conflicting = sum(conflicting_fractions) / len(conflicting_fractions)
    report = format_table(
        rows,
        title=(
            "Conflict sources across the chain (§2.3 claim: counters + storage "
            f"dominate); {mean_conflicting:.0%} of txs touch a conflict"
        ),
    )
    return Outcome({"edges": edges, "edges_by_kind": totals}, report)


def check(headline: dict) -> None:
    # the study's claim holds on the calibrated workload
    totals = headline["edges_by_kind"]
    counters = totals.get("balance", 0) + totals.get("nonce", 0)
    storage = totals.get("storage", 0)
    assert (counters + storage) / headline["edges"] > 0.95
    assert storage > 0 and counters > 0
    assert totals.get("code", 0) == 0
