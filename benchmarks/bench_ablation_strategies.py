"""Ablation — proposer strategy three-way (fig. 6 / fig. 7a shape).

One workload, three engines: OCC-WSI (paper Algorithm 1), two-phase OCC
[Saraph & Herlihy], and Block-STM [Gelashvili et al.], swept across three
conflict profiles (low / medium / hotspot).  Every strategy sees the *same*
generated transactions per profile, so throughput differences are pure
scheduling: abort-and-retry vs round barriers vs suspend-and-revalidate.

The simulated clock makes every number bit-reproducible: the committed
``BENCH_strategies.json`` golden regenerates byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from benchmarks.world import Outcome, World
from repro.core.occ_wsi import ProposerConfig
from repro.core.strategies import STRATEGY_CHOICES, build_proposer
from repro.evm.interpreter import ExecutionContext
from repro.obs.export import format_table
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import hotspot_scenario
from repro.workload.universe import Universe

#: conflict profiles: hotspot intensity of the generated workload
CONFLICT_PROFILES = (("low", 0.0), ("medium", 0.5), ("hotspot", 0.9))

LANES = 16
SEED = 42


def _workloads(
    universe: Universe, txs_per_block: int, blocks_per_point: int, seed: int
) -> Dict[str, Tuple[object, List[list]]]:
    """Per conflict profile: (genesis snapshot, list of tx batches).

    Generated once and shared by every strategy so the comparison is
    scheduling-only.  Each batch is proposed from genesis (fresh nonces per
    profile), matching the ``hotspot`` CLI sweep's shape.
    """
    out: Dict[str, Tuple[object, List[list]]] = {}
    for profile, intensity in CONFLICT_PROFILES:
        uni = dataclasses.replace(universe, nonces={})
        scenario = dataclasses.replace(
            hotspot_scenario(intensity, seed=seed), txs_per_block=txs_per_block
        )
        generator = BlockWorkloadGenerator(uni, scenario)
        batches = []
        for _ in range(blocks_per_point):
            batches.append(sorted(generator.generate_block_txs(), key=lambda t: t.nonce))
            uni.nonces.clear()
        out[profile] = (universe.genesis, batches)
    return out


def run(world: World, txs_per_block: int, blocks_per_point: int) -> Outcome:
    ctx = ExecutionContext(block_number=1, timestamp=12)
    workloads = _workloads(world.universe, txs_per_block, blocks_per_point, SEED)

    rows: List[dict] = []
    headline: dict = {}
    committed_sets: Dict[str, Dict[str, frozenset]] = {}
    for strategy in STRATEGY_CHOICES:
        per_profile: dict = {}
        for profile, _ in CONFLICT_PROFILES:
            genesis, batches = workloads[profile]
            # strict_checks runs the serializability oracle on every
            # proposal — a scheduling bug fails the sweep, not the golden
            engine = build_proposer(
                ProposerConfig(lanes=LANES, strategy=strategy, strict_checks=True)
            )
            committed = 0
            makespan = 0.0
            aborts = 0
            hashes: set = set()
            for txs in batches:
                pool = TxPool()
                pool.add_many(txs)
                result = engine.propose(genesis, pool, ctx)
                committed += len(result.committed)
                makespan += result.stats.makespan
                aborts += result.stats.aborts
                hashes.update(bytes(c.tx.hash) for c in result.committed)
            throughput = committed * 1e6 / makespan if makespan else 0.0
            per_profile[profile] = {
                "throughput_tps": round(throughput, 1),
                "makespan_us": round(makespan, 2),
                "aborts": aborts,
            }
            committed_sets.setdefault(profile, {})[strategy] = frozenset(hashes)
            rows.append(
                {
                    "strategy": strategy,
                    "conflict": profile,
                    "committed": committed,
                    "aborts": aborts,
                    "makespan_us": round(makespan, 1),
                    "throughput_tps": round(throughput, 1),
                }
            )
        headline[strategy] = per_profile

    # One workload, three engines: each is individually serializable (the
    # strict checks above), and with the block far from its gas limit they
    # must commit the *same transaction set*.  Final roots may still differ
    # legitimately — OCC-WSI commits in discovery order, so order-dependent
    # writes land differently; tests/test_strategy_equivalence.py pins root
    # equality on commutative workloads where order cannot matter.
    for profile, by_strategy in committed_sets.items():
        if len(set(by_strategy.values())) != 1:
            raise AssertionError(
                f"committed tx sets diverge across strategies on {profile!r}"
            )

    headline["hotspot_blockstm_vs_occwsi_speedup"] = round(
        headline["block-stm"]["hotspot"]["throughput_tps"]
        / headline["occ-wsi"]["hotspot"]["throughput_tps"],
        3,
    )
    report = format_table(
        rows,
        title="Ablation — proposer strategies × conflict profile "
        "(occ-wsi | two-phase | block-stm, sim clock)",
    )
    config = {
        "lanes": LANES, "seed": SEED,
        "txs_per_block": txs_per_block, "blocks_per_point": blocks_per_point,
    }
    return Outcome(headline, report, config)


def check(headline: dict) -> None:
    # the acceptance bar: suspend-and-revalidate beats abort-and-retry
    # where it matters — under hotspot contention
    assert headline["hotspot_blockstm_vs_occwsi_speedup"] >= 1.0
    # low conflict: every strategy commits everything with few aborts
    for strategy in STRATEGY_CHOICES:
        assert headline[strategy]["low"]["throughput_tps"] > 0
