"""Ablation — storage prefetching (§5.4 experimental setup).

The paper's single-block evaluation enables geth's prefetcher "to reduce
the I/O impact in executing transactions and prefetch all required
storage slots to memory".  This ablation disables it: every SLOAD pays
the cold trie/disk path instead.  Both the parallel validator and its
serial baseline pay the cold cost, so *speedup* barely moves — but
absolute block latency balloons, which is exactly why the paper
normalises the comparison this way.
"""

from benchmarks.world import Outcome, World
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs.export import format_table


def run(world: World, blocks: int) -> Outcome:
    warm = ParallelValidator(config=ValidatorConfig(lanes=16, prefetch=True))
    cold = ParallelValidator(config=ValidatorConfig(lanes=16, prefetch=False))

    rows = []
    for entry in world.chain(blocks):
        res_warm = warm.validate_block(entry.block, entry.parent_state)
        res_cold = cold.validate_block(entry.block, entry.parent_state)
        assert res_warm.accepted and res_cold.accepted
        slowdown = res_cold.makespan / res_warm.makespan
        rows.append(
            {
                "height": entry.block.number,
                "warm_makespan": round(res_warm.makespan, 1),
                "cold_makespan": round(res_cold.makespan, 1),
                "latency_x": round(slowdown, 2),
                "warm_speedup": round(res_warm.speedup, 2),
                "cold_speedup": round(res_cold.speedup, 2),
            }
        )

    report = format_table(
        rows,
        title="Ablation — storage prefetch (§5.4): warm (prefetched) vs cold SLOAD paths @16 threads",
    )
    return Outcome({"rows": rows}, report)


def check(headline: dict) -> None:
    for row in headline["rows"]:
        # cold execution is substantially slower in absolute terms...
        assert row["latency_x"] > 1.3, row
        # ...while relative speedup moves far less (both sides pay the I/O)
        assert abs(row["cold_speedup"] - row["warm_speedup"]) < 1.5
