"""Ablation — OCC-WSI / profile design points (§4.2, §4.4).

Two design claims get quantified:

1. **Block profiles pay for themselves.**  Without the proposer-published
   rw-sets, the validator must pre-execute serially to learn the
   dependency graph (the legacy-block fallback) — the preparation phase
   then dominates and parallel validation loses its advantage.

2. **Proposer thread count changes the schedule, not the set.**  OCC-WSI
   at different lane counts packs the same transactions into different
   serializable orders, and the abort rate grows with concurrency — the
   cost the WSI read-set validation pays for lock freedom.
"""

import dataclasses

from benchmarks.world import Outcome, World
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs.export import format_table


def run_profile(world: World, blocks: int) -> Outcome:
    """Profile-assisted vs pre-execution-fallback validation."""
    with_profile = ParallelValidator(config=ValidatorConfig(lanes=16))
    without_profile = ParallelValidator(
        config=ValidatorConfig(lanes=16, preexecute_fallback=True)
    )

    rows = []
    for entry in world.chain(blocks):
        res_with = with_profile.validate_block(entry.block, entry.parent_state)
        stripped = dataclasses.replace(entry.block, profile=None)
        res_without = without_profile.validate_block(stripped, entry.parent_state)
        assert res_with.accepted and res_without.accepted
        rows.append(
            {
                "height": entry.block.number,
                "with_profile": round(res_with.speedup, 2),
                "no_profile_fallback": round(res_without.speedup, 2),
                "prep_us_with": round(res_with.prep_cost, 1),
                "prep_us_without": round(res_without.prep_cost, 1),
            }
        )

    report = format_table(
        rows,
        title="Ablation — block profile (§4.2): profile-assisted vs serial pre-execution fallback",
    )
    return Outcome({"rows": rows}, report)


def check_profile(headline: dict) -> None:
    for row in headline["rows"]:
        assert row["with_profile"] > row["no_profile_fallback"]
        assert row["no_profile_fallback"] <= 1.05  # fallback ~ serial or worse


def run_aborts(world: World, blocks: int) -> Outcome:
    """Abort rate and wasted work vs proposer thread count."""
    bench_chain = world.chain(blocks)
    rows = []
    for lanes in (1, 2, 4, 8, 16):
        proposer = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        total_aborts = 0
        total_commits = 0
        wasted = 0.0
        useful = 0.0
        for entry in bench_chain:
            result = proposer.propose(entry.parent_state, entry.fresh_pool(), entry.ctx())
            total_aborts += result.stats.aborts
            total_commits += len(result.committed)
            useful += sum(c.cost for c in result.committed)
            wasted += result.stats.total_work - sum(c.cost for c in result.committed)
        rows.append(
            {
                "lanes": lanes,
                "commits": total_commits,
                "aborts": total_aborts,
                "abort_rate": f"{total_aborts / (total_commits + total_aborts):.1%}",
                "wasted_work": f"{wasted / (useful + wasted):.1%}",
            }
        )

    report = format_table(
        rows,
        title="Ablation — OCC-WSI abort rate vs proposer thread count (wasted optimistic work)",
    )
    return Outcome({"rows": rows}, report)


def check_aborts(headline: dict) -> None:
    # single lane never aborts; contention grows with concurrency
    abort_counts = [row["aborts"] for row in headline["rows"]]
    assert abort_counts[0] == 0
    assert abort_counts[-1] > abort_counts[1]
