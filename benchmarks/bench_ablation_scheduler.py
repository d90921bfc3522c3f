"""Ablation — scheduler policy (§4.3 / §5.4 design choice).

The paper schedules subgraphs by gas-weighted LPT because gas approximates
running time.  This ablation swaps the policy (count-LPT, block order,
round-robin, random) and measures single-block validator speedup at 16
threads — quantifying how much of BlockPilot's validator win comes from
the gas heuristic versus mere parallel structure.
"""

from benchmarks.analysis import SweepPoint
from benchmarks.world import Outcome, World
from repro.core.scheduler import SCHEDULER_POLICIES
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs.export import format_table


def run(world: World, blocks: int) -> Outcome:
    bench_chain = world.chain(blocks)
    rows = []
    for policy in SCHEDULER_POLICIES:
        validator = ParallelValidator(
            config=ValidatorConfig(lanes=16, policy=policy, seed=5)
        )
        samples = []
        for entry in bench_chain:
            res = validator.validate_block(entry.block, entry.parent_state)
            assert res.accepted, res.reason
            samples.append(res.speedup)
        point = SweepPoint.from_samples(0, samples)
        rows.append(
            {
                "policy": policy,
                "mean_speedup": round(point.summary.mean, 3),
                "min": round(point.summary.minimum, 3),
                "max": round(point.summary.maximum, 3),
            }
        )
    rows.sort(key=lambda r: -r["mean_speedup"])

    report = format_table(
        rows,
        title="Ablation — validator scheduler policy @16 threads (paper uses gas-LPT)",
    )
    return Outcome({row["policy"]: row["mean_speedup"] for row in rows}, report)


def check(headline: dict) -> None:
    # gas-LPT must not lose to load-blind policies
    assert headline["gas_lpt"] >= headline["round_robin"] * 0.999
    assert headline["gas_lpt"] >= headline["block_order"] * 0.999
