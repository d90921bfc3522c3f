"""Injectable yield points for the real-parallelism drivers.

OCC-WSI's wave schedule (:mod:`repro.core.occ_wsi`) and the component
driver (:mod:`repro.exec.validating`) make a small number of *scheduling
decisions* per run: how many transactions a wave pops, in which order a
wave's speculative results enter the commit section, how worker lanes are
ordered, and in which order a lane walks its components.  In production
every decision takes its deterministic default, which is what keeps
blocks bit-identical across backends.

A :class:`ScheduleProbe` turns each decision into a yield point the
concurrency-conformance fuzzer (:mod:`repro.check.fuzzer`) can steer:
the probe observes the decision's index and legal range and returns a
(possibly permuted) choice.  Any choice a probe can make corresponds to
a real interleaving some OS schedule could have produced — commit-order
permutations within a wave are exactly the outcomes of workers racing to
the critical section, and lane/component permutations are exactly the
outcomes of the pool handing tasks to differently-loaded threads.  The
conformance suite then asserts that *every* reachable interleaving
produces a block the serializability and differential oracles accept.

Probes must be deterministic functions of their constructor arguments:
the fuzzer replays and shrinks schedules by re-running them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["ScheduleProbe", "IdentityProbe", "apply_order"]


class ScheduleProbe:
    """Base schedule probe: every yield point takes its default.

    Subclasses override individual decisions.  The default implementations
    ARE the production behaviour — a driver running with an
    ``IdentityProbe`` must be byte-identical to one running with no probe
    at all (the determinism suite checks this).
    """

    def wave_width(self, wave_index: int, max_width: int) -> int:
        """How many ready transactions wave ``wave_index`` may pop (>=1)."""
        return max_width

    def wave_commit_order(self, wave_index: int, n: int) -> Sequence[int]:
        """Order in which a wave's ``n`` slots enter the commit section."""
        return range(n)

    def lane_order(self, n_lanes: int) -> Sequence[int]:
        """Order in which validator worker lanes are submitted to the pool."""
        return range(n_lanes)

    def component_order(self, lane_index: int, n: int) -> Sequence[int]:
        """Order in which one lane executes its ``n`` assigned components."""
        return range(n)

    # -- Block-STM collaborative scheduler (repro.core.blockstm) -------- #

    def blockstm_wave_width(self, wave_index: int, max_width: int) -> int:
        """How many runnable transactions a Block-STM wave may execute.

        A narrower wave models workers that were still busy (or had not
        yet been spawned) when the scheduler handed out this round of
        execution tasks.
        """
        return max_width

    def blockstm_exec_order(self, wave_index: int, n: int) -> Sequence[int]:
        """Order in which a wave considers its ``n`` runnable candidates.

        Block-STM workers grab (re-)execution tasks from a shared counter;
        any permutation of the runnable set corresponds to workers racing
        that counter in a different order.  Results are still applied and
        validated in preset serialization order, so every permutation must
        converge to the identical block (the conformance suite's claim).
        """
        return range(n)


#: Alias kept separate so call sites read as intent, not mechanism.
IdentityProbe = ScheduleProbe


def apply_order(order: Sequence[int], n: int) -> Optional[List[int]]:
    """Validate a probe-returned order as a permutation of ``range(n)``.

    Returns the order as a list, or ``None`` when the probe's answer is
    not a legal permutation (wrong length, duplicates, out of range) — the
    caller then falls back to the identity order rather than corrupting
    the driver's bookkeeping.  Tolerating malformed answers keeps shrunken
    fuzz schedules (whose recorded permutations may no longer match the
    replayed run's shape) replayable.
    """
    ordered = list(order)
    if len(ordered) != n or sorted(ordered) != list(range(n)):
        return None
    return ordered
