#!/usr/bin/env python3
"""Visualizing pipeline schedules as lane timelines.

Renders the shared 16-lane worker pool as an ASCII Gantt chart while the
validator pipeline processes 1, then 4, same-height blocks — making the
paper's Fig. 9 mechanism *visible*: a single block strands most lanes
idle behind its hotspot chain, while four sibling blocks interleave their
subgraphs and fill the pool.

Run:  python examples/schedule_timeline.py
"""

from repro import build_universe
from repro.chain.blockchain import Blockchain
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ValidatorConfig
from repro.network.dissemination import ForkSimulator
from repro.obs import Tracer, render_timeline
from repro.workload.generator import BlockWorkloadGenerator


def main() -> None:
    universe = build_universe()
    generator = BlockWorkloadGenerator(universe)
    chain = Blockchain(universe.genesis)
    txs = generator.generate_block_txs()
    parent_states = {chain.genesis.header.hash: universe.genesis}

    for count in (1, 4):
        # the pool records each scheduled subgraph as a span on its lane
        tracer = Tracer()
        pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16), tracer=tracer)
        forks = ForkSimulator(count, seed=13).propose_forks(
            chain.genesis.header, universe.genesis, txs
        )
        result = pipe.process_blocks(forks.blocks, parent_states)
        assert result.all_accepted
        print(
            f"\n=== {count} concurrent block(s): speedup {result.speedup:.2f}x, "
            f"pool utilisation {result.stats.utilization:.0%} ==="
        )
        # label each task cell with the block index it belongs to (its tag
        # is the pair (block index, component))
        print(render_timeline(tracer, width=68, label_of=lambda tag: tag[0]), end="")

    print(
        "\neach digit marks which block a lane was executing; '.' is idle."
        "\nwith one block the hotspot subgraph pins a single lane while the"
        "\nrest idle — sibling blocks fill that idle capacity (Fig. 9)."
    )


if __name__ == "__main__":
    main()
