"""Distributed validation — follower-count scaling (DiPETrans shape).

One workload, one master, a growing follower pool: each block's
dependency-graph components are LPT-packed into gas-weighted shards and
shipped to 1 / 2 / 4 / 8 follower nodes; the simulated makespan (dispatch
+ ship + execute + reply + merge, :mod:`repro.simcore.costmodel` shard
fields) is the number that must fall as the pool grows.

Swept across the three conflict profiles: *low* scales furthest (many
small components), *hotspot* saturates early — its giant component cannot
be split, so extra followers stop helping once the biggest shard IS that
component.  That saturation point is the distributed analogue of Fig. 8's
hotspot ceiling.

Every validation is also checked bit-identical to a single-node reference
(state root + per-tx gas/status/fee), so the golden can never drift into
"fast but wrong".  The simulated clock makes every number exact: the
committed ``BENCH_distributed.json`` golden regenerates byte for byte.
"""

from __future__ import annotations

import dataclasses
from statistics import mean
from typing import Dict, List, Tuple

from benchmarks.world import Outcome, World
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator
from repro.distributed import ShardCoordinator
from repro.network.node import ProposerNode
from repro.obs.export import format_table
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import hotspot_scenario
from repro.workload.universe import Universe

#: conflict profiles: hotspot intensity of the generated workload
CONFLICT_PROFILES = (("low", 0.0), ("medium", 0.5), ("hotspot", 0.9))
FOLLOWER_SWEEP = (1, 2, 4, 8)

SEED = 42


def _workloads(
    universe: Universe, txs_per_block: int, blocks_per_point: int, seed: int
) -> Dict[str, Tuple[object, List[object]]]:
    """Per conflict profile: (genesis snapshot, sealed blocks).

    Every follower count validates the *same* blocks, so makespan
    differences are pure shard scheduling.
    """
    chain = Blockchain(universe.genesis)
    out: Dict[str, Tuple[object, List[object]]] = {}
    for profile, intensity in CONFLICT_PROFILES:
        uni = dataclasses.replace(universe, nonces={})
        scenario = dataclasses.replace(
            hotspot_scenario(intensity, seed=seed),
            txs_per_block=txs_per_block,
            tx_count_jitter=0.0,
        )
        generator = BlockWorkloadGenerator(uni, scenario)
        proposer = ProposerNode(f"bench-{profile}")
        blocks = []
        for _ in range(blocks_per_point):
            txs = generator.generate_block_txs()
            blocks.append(
                proposer.build_block(
                    chain.genesis.header, universe.genesis, txs
                ).block
            )
            uni.nonces.clear()
        out[profile] = (universe.genesis, blocks)
    return out


def _fingerprint(result) -> tuple:
    return (
        result.post_state.state_root(),
        tuple((r.gas_used, r.success, r.fee) for r in result.tx_results),
    )


def run(world: World, txs_per_block: int, blocks_per_point: int) -> Outcome:
    workloads = _workloads(world.universe, txs_per_block, blocks_per_point, SEED)

    rows: List[dict] = []
    headline: dict = {}
    for profile, _ in CONFLICT_PROFILES:
        genesis, blocks = workloads[profile]
        reference = ParallelValidator()
        fingerprints = []
        for block in blocks:
            res = reference.validate_block(block, genesis)
            assert res.accepted, f"reference rejected {profile} block: {res.reason}"
            fingerprints.append(_fingerprint(res))

        per_count: dict = {}
        for followers in FOLLOWER_SWEEP:
            coordinator = ShardCoordinator(followers)
            pool = ParallelValidator(distributor=coordinator)
            makespans, shards, balances = [], [], []
            for block, expected in zip(blocks, fingerprints):
                result = pool.validate_block(block, genesis)
                assert result.accepted and result.used_distributed, (
                    f"distributed validation declined on {profile}: {result.reason}"
                )
                # the golden must never drift into "fast but wrong"
                assert _fingerprint(result) == expected, (
                    f"distributed result diverged from reference on {profile}"
                )
                record = coordinator.last_record
                makespans.append(record.makespan_us)
                shards.append(record.n_shards)
                total = sum(record.shard_gas) or 1
                balances.append(max(record.shard_gas) / (total / len(record.shard_gas)))
            per_count[str(followers)] = {
                "makespan_us": round(mean(makespans), 2),
                "mean_shards": round(mean(shards), 2),
                "lpt_balance": round(mean(balances), 3),
            }
            rows.append(
                {
                    "conflict": profile,
                    "followers": followers,
                    "makespan_us": round(mean(makespans), 1),
                    "shards": round(mean(shards), 1),
                    "speedup_vs_1f": round(
                        per_count["1"]["makespan_us"] / mean(makespans), 2
                    ),
                }
            )
        headline[profile] = per_count

    for profile, _ in CONFLICT_PROFILES:
        headline[f"{profile}_speedup_4f_vs_1f"] = round(
            headline[profile]["1"]["makespan_us"]
            / headline[profile]["4"]["makespan_us"],
            3,
        )
    report = format_table(
        rows,
        title="Distributed validation — follower scaling × conflict profile "
        "(sim clock, bit-identity checked)",
    )
    config = {
        "seed": SEED, "followers": list(FOLLOWER_SWEEP),
        "txs_per_block": txs_per_block, "blocks_per_point": blocks_per_point,
    }
    return Outcome(headline, report, config)


def check(headline: dict) -> None:
    # the acceptance bar: sharding pays even on the adversarial profile
    assert headline["hotspot_speedup_4f_vs_1f"] >= 1.1
    # and low conflict scales at least as well as hotspot (no giant component)
    assert headline["low_speedup_4f_vs_1f"] >= headline["hotspot_speedup_4f_vs_1f"]
