"""BlockPilot core: the proposer-validator parallel execution framework.

This package implements the paper's contribution proper:

* :mod:`repro.core.session` -- the proposing session every strategy
  drives: multi-version store, block budget, pool hand-off, task
  execution, the simulated clock and the stats/metrics epilogue.
* :mod:`repro.core.occ_wsi` -- Algorithm 1: the proposer's optimistic
  Write-Snapshot-Isolation execution that produces a serializable packing
  order, with aborted transactions returned to the pool.
* :mod:`repro.core.proposer` -- block sealing: receipts, tries, state
  root, and the block profile (per-tx read/write sets) for validators.
* :mod:`repro.core.depgraph` -- account-level transaction dependency
  graph; conflicting transactions land in the same subgraph (§4.3).
* :mod:`repro.core.scheduler` -- gas-weighted assignment of subgraphs to
  worker threads (LPT), plus the ablation policies.
* :mod:`repro.core.applier` -- Algorithm 2: rw-set verification against
  the block profile and world-state/root checks.
* :mod:`repro.core.validator` -- single-block parallel validation with
  the four-phase timing model.
* :mod:`repro.core.pipeline` -- the multi-block validator pipeline:
  same-height blocks overlap fully, child validation waits for parent.
* :mod:`repro.core.baselines` -- serial (geth-like) execution and the
  two-phase speculative OCC comparator [Saraph & Herlihy].
* :mod:`repro.core.blockstm` -- the Block-STM proposer strategy:
  multi-version memory with ESTIMATE markers, suspend-on-read dependency
  discovery, and cooperative re-validation [Gelashvili et al.].
* :mod:`repro.core.strategies` -- the proposer strategy registry
  (``occ-wsi`` | ``two-phase`` | ``block-stm``) and the round-based
  two-phase proposer engine.
"""

from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.scheduler import SchedulePlan, schedule_components, SCHEDULER_POLICIES
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig, ProposalResult
from repro.core.blockstm import BlockSTMProposer
from repro.core.strategies import STRATEGY_CHOICES, TwoPhaseProposer, build_proposer
from repro.core.proposer import seal_block, SealedProposal
from repro.core.applier import Applier, ProfileMismatch, ValidationOutcome
from repro.core.validator import ParallelValidator, ValidatorConfig, ValidationResult
from repro.core.pipeline import ValidatorPipeline, PipelineResult
from repro.core.baselines import (
    SerialExecutor,
    SerialResult,
    TwoPhaseOCCExecutor,
    TwoPhaseOCCResult,
)

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "SchedulePlan",
    "schedule_components",
    "SCHEDULER_POLICIES",
    "OCCWSIProposer",
    "BlockSTMProposer",
    "TwoPhaseProposer",
    "build_proposer",
    "STRATEGY_CHOICES",
    "ProposerConfig",
    "ProposalResult",
    "seal_block",
    "SealedProposal",
    "Applier",
    "ProfileMismatch",
    "ValidationOutcome",
    "ParallelValidator",
    "ValidatorConfig",
    "ValidationResult",
    "ValidatorPipeline",
    "PipelineResult",
    "SerialExecutor",
    "SerialResult",
    "TwoPhaseOCCExecutor",
    "TwoPhaseOCCResult",
]
