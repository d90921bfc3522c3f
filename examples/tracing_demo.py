#!/usr/bin/env python3
"""End-to-end tracing: from a proposer/validator round to a Perfetto file.

Runs one proposer and one validator with a live ``Tracer`` and
``MetricsRegistry``, then shows the three views the obs layer offers:

* a flame summary of the propose -> validate span tree (text);
* the metrics snapshot (counters / gauges / histograms);
* a Chrome trace-event JSON file — drag ``tracing_demo_trace.json`` onto
  https://ui.perfetto.dev to see lanes as threads and nodes as processes.

Run:  python examples/tracing_demo.py
"""

from repro import build_universe
from repro.chain.blockchain import Blockchain
from repro.network.node import ProposerNode, ValidatorNode
from repro.obs import MetricsRegistry, Tracer, flame_summary, write_chrome_trace
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig


def main() -> None:
    universe = build_universe()
    generator = BlockWorkloadGenerator(
        universe, WorkloadConfig(txs_per_block=60, seed=9)
    )
    chain = Blockchain(universe.genesis)

    tracer = Tracer()
    metrics = MetricsRegistry()
    proposer = ProposerNode("proposer-0", tracer=tracer, metrics=metrics)
    validator = ValidatorNode(
        "validator-0", universe.genesis, tracer=tracer, metrics=metrics
    )

    parent_header, parent_state = chain.genesis.header, universe.genesis
    for _ in range(2):
        txs = generator.generate_block_txs()
        sealed = proposer.build_block(parent_header, parent_state, txs)
        outcome = validator.receive_blocks([sealed.block])
        assert outcome.accepted
        head = validator.chain.head
        parent_header = head.header
        parent_state = validator.chain.state_at(head.hash)

    print("=== span tree (simulated time) ===")
    print(flame_summary(tracer, min_share=0.01), end="")

    snapshot = metrics.snapshot()
    print("\n=== selected metrics ===")
    for name in (
        "proposer.executions",
        "proposer.aborts",
        "proposer.commits",
        "validator.blocks_accepted",
        "node.blocks_received",
    ):
        if name in snapshot["counters"]:
            print(f"{name:28} {snapshot['counters'][name]}")
    exec_us = snapshot["histograms"].get("validator.exec_us")
    if exec_us:
        print(f"{'validator.exec_us mean':28} {exec_us['mean']:.1f}us")

    path = write_chrome_trace(tracer, "tracing_demo_trace.json", indent=2)
    print(f"\nwrote {path} ({len(tracer)} spans)")
    print("open it at https://ui.perfetto.dev — one process per node,")
    print("one thread per worker lane, timestamps in simulated us.")


if __name__ == "__main__":
    main()
