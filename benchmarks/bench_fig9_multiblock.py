"""Figure 9 — Multi-block evaluation of the validator pipeline.

Paper: concurrently validating B same-height blocks on 16 worker threads,
speedup (over serially processing the B blocks) rises from 1 to 4 blocks,
peaking at 7.72×, then dips slightly toward 8 blocks (context switching
and result-shipping overhead on a fixed pool).

The same-height burst is produced exactly as the paper does it: multiple
proposers race over the same pending set (ForkSimulator), giving B valid
sibling blocks.
"""

from benchmarks.world import Outcome, World
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ValidatorConfig
from repro.network.dissemination import ForkSimulator
from repro.obs.export import format_table

BLOCK_COUNTS = (1, 2, 3, 4, 5, 6, 8)
PAPER = {1: 3.18, 2: "—", 4: 7.72, 8: "≈7 (slight dip)"}


def run(world: World) -> Outcome:
    entry = world.chain(1)[0]
    pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16))
    parent_states = {entry.parent_header.hash: entry.parent_state}

    rows = []
    peak = 0.0
    for count in BLOCK_COUNTS:
        forks = ForkSimulator(count, seed=21).propose_forks(
            entry.parent_header, entry.parent_state, entry.txs
        )
        res = pipe.process_blocks(forks.blocks, parent_states)
        assert res.all_accepted, [r.reason for r in res.results]
        peak = max(peak, res.speedup)
        rows.append(
            {
                "blocks": count,
                "speedup": round(res.speedup, 2),
                "paper": PAPER.get(count, "—"),
                "makespan_us": round(res.makespan, 1),
                "ctx_switches": res.context_switches,
                "pool_util": f"{res.stats.utilization:.0%}",
            }
        )

    report = format_table(
        rows,
        title="Fig. 9 — pipeline speedup vs concurrent same-height blocks (16 worker lanes)",
    )
    headline = {
        "by_blocks": {
            str(row["blocks"]): {
                "speedup": row["speedup"],
                "makespan_us": row["makespan_us"],
                "ctx_switches": row["ctx_switches"],
            }
            for row in rows
        },
        "peak_speedup": peak,
    }
    return Outcome(headline, report, {"block_counts": list(BLOCK_COUNTS), "worker_lanes": 16})


def check(headline: dict) -> None:
    # rises to a peak in the 4-6 block region, then declines at 8
    speedups = {count: headline["by_blocks"][str(count)]["speedup"] for count in BLOCK_COUNTS}
    peak_count = max(speedups, key=speedups.get)
    assert 3 <= peak_count <= 6, f"peak at {peak_count} blocks"
    assert speedups[peak_count] > 2 * speedups[1]
    assert speedups[8] < speedups[peak_count]
    assert 5.0 <= speedups[peak_count] <= 10.0
