"""Ablation — OCC-WSI vs deterministic round-based OCC (OCC-DA style).

The paper positions OCC-WSI against the deterministic-abort OCC family
(§2.3, Garamvölgyi et al. [17]).  This benchmark quantifies the contrast
on the proposer side: round barriers waste the tail of every round (lanes
idle while the slowest transaction finishes), while OCC-WSI's lanes pull
new work the moment they free up; in exchange, the round design makes
abort decisions replayable.  Both pack identical transaction sets.

The round-based comparator is OCC-WSI's own wave schedule — the one
``OCCWSIProposer`` runs whenever a backend is attached — so the ablation
compares two schedules of one conflict rule on the simulated clock.
"""

from benchmarks.world import THREAD_SWEEP, Outcome, World
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.exec import SerialBackend
from repro.obs.export import format_table


def run(world: World, blocks: int) -> Outcome:
    serial = SerialExecutor()
    chain = world.chain(blocks)
    serial_times = []
    for entry in chain:
        sres = serial.propose_serial(entry.parent_state, entry.fresh_pool(), entry.ctx())
        serial_times.append(sres.total_time)

    rows = []
    for lanes in THREAD_SWEEP:
        wsi_engine = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        batch_engine = OCCWSIProposer(
            config=ProposerConfig(lanes=lanes), backend=SerialBackend()
        )
        wsi_speedups, batch_speedups, batch_rounds = [], [], []
        for serial_time, entry in zip(serial_times, chain):
            wsi = wsi_engine.propose(entry.parent_state, entry.fresh_pool(), entry.ctx())
            batch = batch_engine.propose(entry.parent_state, entry.fresh_pool(), entry.ctx())
            assert len(wsi.committed) == len(batch.committed) == len(entry.txs)
            wsi_speedups.append(serial_time / wsi.stats.makespan)
            batch_speedups.append(serial_time / batch.stats.makespan)
            batch_rounds.append(batch.stats.extra["waves"])
        rows.append(
            {
                "lanes": lanes,
                "occ_wsi": round(sum(wsi_speedups) / len(wsi_speedups), 2),
                "batch_occ_da": round(sum(batch_speedups) / len(batch_speedups), 2),
                "mean_rounds": round(sum(batch_rounds) / len(batch_rounds), 1),
            }
        )

    report = format_table(
        rows,
        title="Ablation — proposer OCC variants: OCC-WSI (async lanes) vs round-based deterministic OCC",
    )
    return Outcome({"rows": rows}, report)


def check(headline: dict) -> None:
    # OCC-WSI dominates at every lane count (the barrier penalty)
    for row in headline["rows"]:
        assert row["occ_wsi"] > row["batch_occ_da"]
