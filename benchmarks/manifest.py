"""The bench manifest: every experiment, declared once.

An :class:`Experiment` names a ``run(world, **params) -> Outcome`` (headline
numbers + rendered table), the ``check(headline)`` holding its shape
assertions, the params its numbers are generated with, whether
``results/BENCH_<name>.json`` is a committed golden, its clock and its
pytest markers.  ``python -m benchmarks`` and ``test_manifest.py`` are the
only consumers; neither knows an experiment by anything but this table.

Sim-clock goldens are byte-reproducible: a bare run with the pinned params
rewrites each file identically.  Wall-clock *claims* live only in
``benchmarks/e2e`` (``BENCHMARK.json``); the two ``wall`` entries here are
guard microbenchmarks with a pass/fail bound, not numbers to quote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

from benchmarks import bench_ablation_occ as ablation_occ
from benchmarks import bench_ablation_occ_variants as occ_variants
from benchmarks import bench_ablation_prefetch as prefetch
from benchmarks import bench_ablation_scheduler as scheduler
from benchmarks import bench_ablation_strategies as strategies
from benchmarks import bench_blocksize as blocksize
from benchmarks import bench_conflict_study as conflict_study
from benchmarks import bench_correctness as correctness
from benchmarks import bench_distributed as distributed
from benchmarks import bench_era_drift as era_drift
from benchmarks import bench_fault_overhead as fault_overhead
from benchmarks import bench_fig6_proposer as fig6
from benchmarks import bench_fig7a_scalability as fig7a
from benchmarks import bench_fig7b_distribution as fig7b
from benchmarks import bench_fig8_hotspot as fig8
from benchmarks import bench_fig9_multiblock as fig9
from benchmarks import bench_hotpath as hotpath
from benchmarks import bench_obs_overhead as obs
from benchmarks import bench_pipeline_sync as pipeline_sync
from benchmarks import bench_scenarios as scenarios
from benchmarks.analysis import write_report
from benchmarks.baseline import (
    BaselineComparison,
    baseline_path,
    compare,
    load_baseline,
    write_baseline,
)
from benchmarks.world import Outcome, World

#: where the committed goldens live, and where a run writes unless told otherwise
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: how far a directional headline key (the key-suffix rules of
#: :func:`benchmarks.baseline.direction_of`) may move the wrong way
TOLERANCE = 0.05


@dataclass(frozen=True)
class Experiment:
    name: str
    run: Callable[..., Outcome]
    check: Callable[[dict], None]
    #: what ``run`` is called with; for a golden, what the file was generated with
    params: Mapping[str, int] = field(default_factory=dict)
    golden: bool = False
    clock: str = "sim"
    markers: Tuple[str, ...] = ()

    def execute(
        self,
        world: World,
        results_dir: str = RESULTS_DIR,
        blocks: Optional[int] = None,
        gate: bool = False,
    ) -> Tuple[Outcome, Optional[BaselineComparison]]:
        """Run, persist the table (and a golden's JSON), then judge the shape.

        ``blocks`` overrides the chain length of an experiment that has one.
        With ``gate``, a golden is also compared against the committed file
        as it stood before this run (which may be about to overwrite it).
        """
        params = dict(self.params)
        if blocks is not None and "blocks" in params:
            params["blocks"] = blocks
        outcome = self.run(world, **params)
        write_report(self.name, outcome.report, results_dir)
        comparison = None
        if self.golden:
            committed = load_baseline(baseline_path(self.name, RESULTS_DIR)) if gate else None
            fresh = write_baseline(
                self.name, outcome.headline, config=outcome.config, directory=results_dir
            )
            if committed is not None:
                comparison = compare(committed, fresh, TOLERANCE)
        self.check(outcome.headline)
        return outcome, comparison


_SWEEP = {"txs_per_block": 48, "blocks_per_point": 2}

MANIFEST: Tuple[Experiment, ...] = (
    # the paper's figures (§5)
    Experiment("fig6_proposer", fig6.run, fig6.check, {"blocks": 4}, golden=True),
    Experiment("fig7a_scalability", fig7a.run, fig7a.check, {"blocks": 4}, golden=True),
    Experiment("fig7b_distribution", fig7b.run, fig7b.check, {"blocks": 12}),
    Experiment("fig8_hotspot", fig8.run, fig8.check),
    Experiment("fig9_multiblock", fig9.run, fig9.check, golden=True),
    Experiment("correctness", correctness.run, correctness.check, {"blocks": 12}),
    # design-point ablations and workload studies (§2.2, §2.3, §4.x, §5.5)
    Experiment("ablation_profile", ablation_occ.run_profile, ablation_occ.check_profile, {"blocks": 6}),
    Experiment("ablation_occ_aborts", ablation_occ.run_aborts, ablation_occ.check_aborts, {"blocks": 6}),
    Experiment("ablation_occ_variants", occ_variants.run, occ_variants.check, {"blocks": 6}),
    Experiment("ablation_prefetch", prefetch.run, prefetch.check, {"blocks": 8}),
    Experiment("ablation_scheduler", scheduler.run, scheduler.check, {"blocks": 12}),
    Experiment("blocksize", blocksize.run, blocksize.check),
    Experiment("conflict_study", conflict_study.run, conflict_study.check, {"blocks": 12}),
    Experiment("era_drift", era_drift.run, era_drift.check),
    Experiment("pipeline_sync", pipeline_sync.run, pipeline_sync.check),
    # comparisons beyond the paper: Block-STM, follower pools, traffic scenarios
    # (blocks_per_point=4 covers both phases of the period-8 burst envelopes)
    Experiment("strategies", strategies.run, strategies.check, _SWEEP, golden=True, markers=("blockstm",)),
    Experiment("distributed", distributed.run, distributed.check, _SWEEP, golden=True, markers=("distributed",)),
    Experiment(
        "scenarios", scenarios.run, scenarios.check,
        {"txs_per_block": 48, "blocks_per_point": 4}, golden=True, markers=("scenarios",),
    ),
    # the layers under the figures: hot-path op counts, faults, observability
    Experiment("hotpath", hotpath.run, hotpath.check, golden=True),
    Experiment(
        "fault_degradation_curve", fault_overhead.run_degradation, fault_overhead.check_degradation,
        {"blocks": 4}, markers=("faults",),
    ),
    Experiment("obs_export_contract", obs.run_export, obs.check_export, {"blocks": 4}),
    Experiment("obs_live", obs.run_live, obs.check_live, {"blocks": 4}, golden=True),
    Experiment(
        "fault_overhead_disabled", fault_overhead.run_disabled, fault_overhead.check_disabled,
        {"blocks": 4}, clock="wall", markers=("faults",),
    ),
    Experiment("obs_guard_overhead", obs.run_guards, obs.check_guards, {"blocks": 4}, clock="wall"),
)
