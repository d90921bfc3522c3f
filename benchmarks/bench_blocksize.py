"""Block-size sweep — the §2.2 motivation quantified.

"Researchers have attempted to address the issue of throughput by
increasing block sizes.  However ... nodes with lower performance may
struggle to keep up."  The constraint is validation latency: a block must
validate well inside the block interval or slow nodes fall behind and
fork rates climb.

This benchmark sweeps transactions-per-block and reports per-block
latency and implied execution-layer TPS for serial vs BlockPilot
validation.  Two effects show up:

* at and below the calibrated size (~132 tx), parallel validation cuts
  latency ~3.3-3.8x — the same latency budget admits a ~3x larger block;
* growing blocks *further over fixed state percolates the conflict
  graph*: with more transactions touching the same accounts, components
  merge into a giant subgraph and the parallel speedup collapses toward
  serial (1.2x at 4x the calibrated size).

The second effect sharpens the paper's §2.2 caution: block size cannot be
scaled naively even with parallel execution — contention, not just
propagation, caps it.
"""

import dataclasses

from benchmarks.analysis import throughput_tps
from benchmarks.world import Outcome, World
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode
from repro.obs.export import format_table
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import mainnet_scenario

BLOCK_SIZES = (33, 66, 132, 264, 528)


def run(world: World) -> Outcome:
    bench_universe = world.universe
    validator = ParallelValidator(config=ValidatorConfig(lanes=16))
    proposer = ProposerNode("size")
    chain = Blockchain(bench_universe.genesis)

    rows = []
    speedups = {}
    for size in BLOCK_SIZES:
        uni = dataclasses.replace(bench_universe, nonces={})
        cfg = dataclasses.replace(
            mainnet_scenario(seed=31), txs_per_block=size, tx_count_jitter=0.0
        )
        generator = BlockWorkloadGenerator(uni, cfg)
        txs = generator.generate_block_txs()
        sealed = proposer.build_block(
            chain.genesis.header, bench_universe.genesis, txs
        )
        res = validator.validate_block(sealed.block, bench_universe.genesis)
        assert res.accepted, res.reason
        speedups[size] = res.speedup
        rows.append(
            {
                "txs_per_block": size,
                "max_subgraph": f"{res.graph.largest_component_ratio():.0%}",
                "serial_us": round(res.serial_time, 1),
                "blockpilot_us": round(res.makespan, 1),
                "speedup": round(res.speedup, 2),
                "serial_tps": f"{throughput_tps(size, res.serial_time):,.0f}",
                "blockpilot_tps": f"{throughput_tps(size, res.makespan):,.0f}",
            }
        )

    report = format_table(
        rows,
        title=(
            "Block-size sweep (§2.2): validation latency and implied "
            "execution-layer TPS, serial vs BlockPilot @16 threads"
        ),
    )
    return Outcome({"speedup_by_size": speedups}, report)


def check(headline: dict) -> None:
    speedups = headline["speedup_by_size"]
    # strong wins at/below the calibrated size...
    for size in (33, 66, 132):
        assert speedups[size] > 2.5, (size, speedups[size])
    # ...and conflict percolation erodes them as blocks outgrow the state:
    # every transaction still accelerates, but the giant component binds
    assert speedups[528] < speedups[132]
    assert speedups[528] > 1.0
