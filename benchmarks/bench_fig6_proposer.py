"""Figure 6 — Evaluation of Proposer.

Paper: OCC-WSI proposers over real blocks, 2→16 threads, average speedups
1.82× / 2.60× / 3.56× / 4.89×; 99.7% of blocks accelerated; the figure is
a per-thread-count histogram of per-block speedup.

Regenerated here: the same sweep over the generated chain.  The baseline
is geth-style serial block building over the identical pending set.
"""

from benchmarks.analysis import SweepPoint, format_histogram, scaling_sweep_table
from benchmarks.world import THREAD_SWEEP, Outcome, World
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.obs.export import format_table

PAPER_MEANS = {2: 1.82, 4: 2.60, 8: 3.56, 16: 4.89}


def run(world: World, blocks: int) -> Outcome:
    bench_chain = world.chain(blocks)
    serial = SerialExecutor()
    serial_times = {}
    for i, entry in enumerate(bench_chain):
        sres = serial.propose_serial(entry.parent_state, entry.fresh_pool(), entry.ctx())
        assert len(sres.packed) == len(entry.txs)
        serial_times[i] = sres.total_time

    points = []
    sixteen_thread_samples = []
    for lanes in THREAD_SWEEP:
        proposer = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        samples = []
        for i, entry in enumerate(bench_chain):
            result = proposer.propose(entry.parent_state, entry.fresh_pool(), entry.ctx())
            assert len(result.committed) == len(entry.txs)
            samples.append(serial_times[i] / result.stats.makespan)
        points.append(SweepPoint.from_samples(lanes, samples))
        if lanes == 16:
            sixteen_thread_samples = samples

    rows = scaling_sweep_table(points)
    for row in rows:
        row["paper_mean"] = PAPER_MEANS[row["threads"]]
    report = format_table(
        rows,
        title="Fig. 6 — proposer speedup vs thread count (OCC-WSI over serial geth-style building)",
    )
    report += "\n" + format_histogram(
        sixteen_thread_samples,
        [1, 2, 3, 4, 5, 6, 7, 8],
        title="Fig. 6 histogram — per-block speedup distribution @16 threads",
    )
    headline = {
        "by_threads": {
            str(int(p.x)): {"mean_speedup": p.summary.mean} for p in points
        },
        "accelerated_fraction_16": points[-1].summary.accelerated_fraction,
    }
    return Outcome(
        headline, report, {"blocks": len(bench_chain), "thread_sweep": list(THREAD_SWEEP)}
    )


def check(headline: dict) -> None:
    # monotone scaling (within 5% sampling noise — at high lane counts abort
    # pressure can sag individual samples), ~paper magnitude at 16 threads
    means = [headline["by_threads"][str(t)]["mean_speedup"] for t in THREAD_SWEEP]
    assert all(b >= a * 0.95 for a, b in zip(means, means[1:])), means
    assert 3.5 <= means[-1] <= 7.0
    assert headline["accelerated_fraction_16"] >= 0.95
