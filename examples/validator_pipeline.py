#!/usr/bin/env python3
"""Validator pipeline walkthrough: forks, phases and multi-block overlap.

Simulates the paper's §3.4 situation: several proposers race at the same
height, so the validator receives a burst of sibling blocks and pipelines
them over one shared 16-thread worker pool.  Prints the four phase
completion times per block and the speedup curve of Fig. 9.

Run:  python examples/validator_pipeline.py
"""

from repro import build_universe
from repro.chain.blockchain import Blockchain
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ValidatorConfig
from repro.network.dissemination import ForkSimulator
from repro.workload.generator import BlockWorkloadGenerator


def main() -> None:
    universe = build_universe()
    generator = BlockWorkloadGenerator(universe)
    chain = Blockchain(universe.genesis)
    txs = generator.generate_block_txs()
    parent_states = {chain.genesis.header.hash: universe.genesis}

    pipe = ValidatorPipeline(config=ValidatorConfig(lanes=16))

    # --- one burst of 4 sibling blocks, phase by phase -------------------- #
    forks = ForkSimulator(4, seed=11).propose_forks(
        chain.genesis.header, universe.genesis, txs
    )
    result = pipe.process_blocks(forks.blocks, parent_states)
    assert result.all_accepted

    print("4 same-height sibling blocks through the pipeline (times in us):")
    print(f"{'block':>6} {'prep':>8} {'exec':>8} {'validate':>9} {'commit':>8}")
    for timing in result.timings:
        print(
            f"{timing.index:>6} {timing.prep_end:>8.0f} {timing.exec_end:>8.0f} "
            f"{timing.validate_end:>9.0f} {timing.commit_end:>8.0f}"
        )
    print(
        f"makespan {result.makespan:.0f}us vs serial {result.serial_time:.0f}us "
        f"-> {result.speedup:.2f}x  ({result.context_switches} context switches)"
    )

    # --- the Fig. 9 curve ---------------------------------------------- #
    print("\npipeline speedup vs concurrent block count (Fig. 9 shape):")
    for count in (1, 2, 3, 4, 6, 8):
        forks = ForkSimulator(count, seed=11).propose_forks(
            chain.genesis.header, universe.genesis, txs
        )
        r = pipe.process_blocks(forks.blocks, parent_states)
        bar = "#" * round(r.speedup * 4)
        print(f"  B={count}:  {r.speedup:5.2f}x  {bar}")

    # --- different heights serialise at validation ------------------------ #
    print("\nparent/child blocks: validation phases serialise (Figure 5):")
    from repro.network.node import ProposerNode

    node = ProposerNode("alice")
    sealed1 = node.build_block(chain.genesis.header, universe.genesis, txs)
    txs2 = generator.generate_block_txs()
    sealed2 = node.build_block(sealed1.block.header, sealed1.post_state, txs2)
    r = pipe.process_blocks([sealed1.block, sealed2.block], parent_states)
    t1, t2 = r.timings
    print(f"  block N   : exec_end={t1.exec_end:7.0f}  validate_end={t1.validate_end:7.0f}")
    print(f"  block N+1 : exec_end={t2.exec_end:7.0f}  validate_end={t2.validate_end:7.0f}")
    print(
        "  child execution overlapped the parent's validation, but its own\n"
        "  validation waited for the parent's to finish."
    )


if __name__ == "__main__":
    main()
