"""Chain sync — pipelining *different heights* (Figure 5's other half).

Fig. 9 measures same-height siblings; Figure 5 also shows consecutive
heights overlapping: block N+1's execution may begin once block N's
execution has produced its post-state, while the validation phases stay
strictly ordered.  The natural workload for that shape is a validator
catching up on a chain segment (sync): all blocks are available at once,
and the pipeline overlaps execution across heights.

Measured result: cross-height pipelining holds the per-block speedup
steady (each child's execution can only overlap its parent's validation
tail, not its execution), so syncing N blocks takes ~N single-block
windows.  The contrast with Fig. 9's same-height overlap (7x) is the
point: BlockPilot's pipeline wins come from *forks*, not depth — which is
why §3.4 motivates the design with the Byzantium network's sibling
blocks.
"""

from benchmarks.world import Outcome, World
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ValidatorConfig
from repro.obs.export import format_table


def run(world: World) -> Outcome:
    pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16))

    rows = []
    speedups = {}
    for depth in (1, 2, 4, 8, 12):
        segment = world.chain(depth)
        blocks = [e.block for e in segment]
        parent_states = {
            segment[0].parent_header.hash: segment[0].parent_state
        }
        res = pipe.process_blocks(blocks, parent_states)
        assert res.all_accepted, [r.reason for r in res.results]
        speedups[depth] = res.speedup
        rows.append(
            {
                "chain_depth": depth,
                "speedup": round(res.speedup, 2),
                "makespan_us": round(res.makespan, 1),
                "pool_util": f"{res.stats.utilization:.0%}",
            }
        )

    report = format_table(
        rows,
        title=(
            "Chain sync — pipelining consecutive heights (Figure 5): "
            "execution overlaps, validation serialises"
        ),
    )
    return Outcome({"speedup_by_depth": speedups}, report)


def check(headline: dict) -> None:
    speedups = headline["speedup_by_depth"]
    # the per-height execution dependency binds: throughput stays at the
    # single-block level regardless of depth (no multiplication, and no
    # collapse either — the validation-tail overlap offsets switch costs)
    for depth, value in speedups.items():
        assert 0.7 * speedups[1] <= value <= 1.3 * speedups[1], (depth, value)
    # and far below the same-height overlap of Fig. 9 at similar counts
    assert speedups[4] < 5.0
