"""Figure 7(a) — Single-block validator scalability, BlockPilot vs OCC.

Paper: 1.7× / 2.5× / 3.03× / 3.18× at 2/4/8/16 threads; scaling flattens
past ~6 threads (hotspot critical path); the two-phase OCC comparator
[27] stays below BlockPilot throughout.
"""

from benchmarks.analysis import SweepPoint
from benchmarks.world import Outcome, World
from repro.core.baselines import TwoPhaseOCCExecutor
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs.export import format_table

SWEEP = (2, 4, 6, 8, 12, 16)
PAPER_MEANS = {2: 1.7, 4: 2.5, 8: 3.03, 16: 3.18}


def run(world: World, blocks: int) -> Outcome:
    bench_chain = world.chain(blocks)
    rows = []
    for lanes in SWEEP:
        validator = ParallelValidator(config=ValidatorConfig(lanes=lanes))
        occ = TwoPhaseOCCExecutor(lanes=lanes)
        bp_samples = []
        occ_samples = []
        for entry in bench_chain:
            res = validator.validate_block(entry.block, entry.parent_state)
            assert res.accepted, res.reason
            bp_samples.append(res.speedup)
            occ_samples.append(
                occ.execute_block(entry.block, entry.parent_state).speedup
            )
        bp = SweepPoint.from_samples(lanes, bp_samples)
        oc = SweepPoint.from_samples(lanes, occ_samples)
        rows.append(
            {
                "threads": lanes,
                "blockpilot": round(bp.summary.mean, 2),
                "occ_2phase": round(oc.summary.mean, 2),
                "paper_blockpilot": PAPER_MEANS.get(lanes, "—"),
                "bp_p90": round(bp.summary.p90, 2),
            }
        )

    report = format_table(
        rows,
        title="Fig. 7(a) — single-block validator speedup vs threads (BlockPilot vs two-phase OCC)",
    )
    headline = {
        "by_threads": {
            str(row["threads"]): {
                "blockpilot_speedup": row["blockpilot"],
                "occ_2phase_speedup": row["occ_2phase"],
            }
            for row in rows
        },
    }
    return Outcome(headline, report, {"blocks": len(bench_chain), "thread_sweep": list(SWEEP)})


def check(headline: dict) -> None:
    # monotone-ish rise with a knee (little gain past 8 threads), BlockPilot
    # dominates OCC at every point
    points = [headline["by_threads"][str(lanes)] for lanes in SWEEP]
    bp_means = [point["blockpilot_speedup"] for point in points]
    assert all(b >= a * 0.98 for a, b in zip(bp_means, bp_means[1:]))
    knee_gain = bp_means[SWEEP.index(16)] / bp_means[SWEEP.index(8)]
    assert knee_gain < 1.15, "no knee: scaling should flatten past ~8 threads"
    for point in points:
        assert point["blockpilot_speedup"] > point["occ_2phase_speedup"]
