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


from benchmarks.conftest import THREAD_SWEEP, emit
from repro.analysis.report import format_table
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.evm.interpreter import ExecutionContext
from repro.exec import SerialBackend
from repro.txpool.pool import TxPool


def _ctx(entry):
    return ExecutionContext(
        block_number=entry.block.header.number,
        timestamp=entry.block.header.timestamp,
        coinbase=entry.block.header.coinbase,
        gas_limit=entry.block.header.gas_limit,
    )


def _pool(entry):
    pool = TxPool()
    pool.add_many(sorted(entry.txs, key=lambda t: t.nonce))
    return pool


def test_ablation_occ_variants(bench_chain, benchmark, capsys):
    serial = SerialExecutor()
    chain = bench_chain[:6]
    serial_times = []
    for entry in chain:
        sres = serial.propose_serial(entry.parent_state, _pool(entry), _ctx(entry))
        serial_times.append(sres.total_time)

    rows = []
    for lanes in THREAD_SWEEP:
        wsi_engine = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        batch_engine = OCCWSIProposer(
            config=ProposerConfig(lanes=lanes), backend=SerialBackend()
        )
        wsi_speedups, batch_speedups, batch_rounds = [], [], []
        for serial_time, entry in zip(serial_times, chain):
            wsi = wsi_engine.propose(entry.parent_state, _pool(entry), _ctx(entry))
            batch = batch_engine.propose(entry.parent_state, _pool(entry), _ctx(entry))
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

    emit(
        capsys,
        "ablation_occ_variants",
        format_table(
            rows,
            title="Ablation — proposer OCC variants: OCC-WSI (async lanes) vs round-based deterministic OCC",
        ),
    )

    # OCC-WSI dominates at every lane count (the barrier penalty)
    for row in rows:
        assert row["occ_wsi"] > row["batch_occ_da"]

    entry = chain[0]
    engine = OCCWSIProposer(config=ProposerConfig(lanes=16), backend=SerialBackend())
    benchmark.pedantic(
        lambda: engine.propose(entry.parent_state, _pool(entry), _ctx(entry)),
        rounds=3,
        iterations=1,
    )
