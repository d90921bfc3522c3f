"""Figure 7(b) — Speedup distribution of single-block validation.

Paper: at 16 worker threads, 99.8% of executed blocks accelerate, with a
long tail toward 1× caused by hotspot-dominated blocks.

Regenerated over a wider block sample than the other benchmarks (the
distribution is the point here), including a few hotspot-skewed blocks so
the tail is populated.
"""

import dataclasses

from benchmarks.analysis import format_histogram, summarize_speedups
from benchmarks.world import Outcome, World
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode
from repro.obs.export import format_table
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import hotspot_scenario


def run(world: World, blocks: int) -> Outcome:
    bench_universe, bench_chain = world.universe, world.chain(blocks)
    validator = ParallelValidator(config=ValidatorConfig(lanes=16))
    samples = []
    ratios = []
    for entry in bench_chain:
        res = validator.validate_block(entry.block, entry.parent_state)
        assert res.accepted
        samples.append(res.speedup)
        ratios.append(res.graph.largest_component_ratio())

    # extra blocks across the hotspot range to populate the distribution
    proposer = ProposerNode("dist")
    chain = Blockchain(bench_universe.genesis)
    for intensity in (0.1, 0.3, 0.7, 0.9):
        uni = dataclasses.replace(bench_universe, nonces={})
        generator = BlockWorkloadGenerator(
            uni, hotspot_scenario(intensity, seed=int(intensity * 100))
        )
        for _ in range(3):
            txs = generator.generate_block_txs()
            sealed = proposer.build_block(
                chain.genesis.header, bench_universe.genesis, txs
            )
            res = validator.validate_block(sealed.block, bench_universe.genesis)
            assert res.accepted, res.reason
            samples.append(res.speedup)
            ratios.append(res.graph.largest_component_ratio())
            uni.nonces.clear()

    summary = summarize_speedups(samples)
    report = format_histogram(
        samples,
        [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.5],
        title=f"Fig. 7(b) — per-block validator speedup @16 threads ({len(samples)} blocks)",
    )
    report += "\n" + format_table(
        [
            {
                "blocks": summary.count,
                "mean": round(summary.mean, 2),
                "median": round(summary.median, 2),
                "min": round(summary.minimum, 2),
                "max": round(summary.maximum, 2),
                "accelerated": f"{summary.accelerated_fraction:.1%}",
                "paper_accelerated": "99.8%",
                "mean_max_subgraph": f"{sum(ratios) / len(ratios):.1%}",
                "paper_max_subgraph": "27.5%",
            }
        ],
        title="Fig. 7(b) summary",
    )
    headline = {
        "accelerated_fraction": summary.accelerated_fraction,
        "min_speedup": summary.minimum,
        "mean_speedup": summary.mean,
    }
    return Outcome(headline, report)


def check(headline: dict) -> None:
    assert headline["accelerated_fraction"] >= 0.9
    assert headline["min_speedup"] < headline["mean_speedup"] * 0.75, "expected a hotspot tail"
