"""Era drift — §5.5's longitudinal claim.

"According to Saraph et al., the parallelizability of blocks decreases
over time due to several hotspot contracts.  This problem is even more
severe in current application patterns like DeFi, NFT and token
distributions."

Regenerated with the workload's era profiles: the transaction mix slides
from payment-dominated genesis-era traffic toward the modern hotspot mix
as the simulated height grows, and the validator's speedup decays with
it — the same downward trend the paper's argument rests on.
"""

import dataclasses

from benchmarks.analysis import correlation
from benchmarks.world import Outcome, World
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode
from repro.obs.export import format_table
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import era_profile

HEIGHTS = (0, 2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000)
BLOCKS_PER_ERA = 2


def run(world: World) -> Outcome:
    bench_universe = world.universe
    validator = ParallelValidator(config=ValidatorConfig(lanes=16))
    proposer = ProposerNode("era")
    chain = Blockchain(bench_universe.genesis)

    rows = []
    pairs = []
    for height in HEIGHTS:
        cfg = era_profile(height, seed=29)
        uni = dataclasses.replace(bench_universe, nonces={})
        generator = BlockWorkloadGenerator(uni, cfg)
        ratios, speedups = [], []
        for _ in range(BLOCKS_PER_ERA):
            txs = generator.generate_block_txs()
            sealed = proposer.build_block(
                chain.genesis.header, bench_universe.genesis, txs
            )
            res = validator.validate_block(sealed.block, bench_universe.genesis)
            assert res.accepted, res.reason
            ratios.append(res.graph.largest_component_ratio())
            speedups.append(res.speedup)
            uni.nonces.clear()
        mean_speedup = sum(speedups) / len(speedups)
        pairs.append((height, mean_speedup))
        rows.append(
            {
                "height": f"{height:,}",
                "payments": f"{cfg.w_payment:.0%}",
                "hotspot": round(cfg.hotspot_intensity, 2),
                "max_subgraph": f"{sum(ratios) / len(ratios):.1%}",
                "speedup@16": round(mean_speedup, 2),
            }
        )

    r = correlation(pairs)
    report = format_table(
        rows,
        title=(
            "Era drift (§5.5) — parallelizability decays with chain age "
            f"(height-vs-speedup Pearson r = {r:.2f})"
        ),
    )
    return Outcome({"pearson_r": r, "speedup_by_era": [row["speedup@16"] for row in rows]}, report)


def check(headline: dict) -> None:
    # the longitudinal claim: clear downward trend
    assert headline["pearson_r"] < -0.8
    assert headline["speedup_by_era"][0] > headline["speedup_by_era"][-1] * 1.5
