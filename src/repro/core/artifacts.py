"""The validator's one plan artifact (profile footprints, graph, plans).

DiPETrans makes the case that the dependency-analysis artifact is worth
computing once and shipping to local and remote executors alike; this
module is that artifact, and the only caller of
``build_dependency_graph`` / ``schedule_components``.  ``validate_block``
derives it once per validation through :func:`artifacts_for` and every
consumer — the timing simulation's lanes, backend workers, follower
shards — plans from that one value.

:class:`BlockArtifacts` bundles everything derivable from one block profile
at one conflict granularity.  The graph is lane-count independent; each
consumer plans it at its own width (:meth:`BlockArtifacts.plan_for`).
Nothing here outlives a validation: a node validates each block once, so a
cache keyed by block hash would never be consulted twice.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Tuple

from repro.chain.block import Block, BlockProfile
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.scheduler import SchedulePlan, schedule_components

__all__ = [
    "BlockArtifacts",
    "profile_footprints",
    "artifacts_for",
]

#: An account-level footprint is a frozenset of addresses; key-level, of
#: StateKeys.  Downstream consumers only ever union/intersect them.
Footprint = FrozenSet[Any]


def profile_footprints(
    profile: BlockProfile, granularity: str
) -> Tuple[Footprint, ...]:
    """Per-transaction conflict footprints from a block profile.

    ``"account"`` is the paper's granularity (§4.3); ``"key"`` is the
    ablation.
    """
    if granularity == "account":
        return tuple(e.rw.touched_addresses() for e in profile.entries)
    if granularity == "key":
        return tuple(
            frozenset(e.rw.read_keys()) | frozenset(e.rw.write_keys())
            for e in profile.entries
        )
    raise ValueError(f"unknown conflict granularity {granularity!r}")


class BlockArtifacts:
    """Everything derivable from one block profile at one granularity."""

    __slots__ = (
        "footprints",
        "gas_estimates",
        "graph",
        "_comp_fps",
        "_comp_gas",
    )

    def __init__(self, profile: BlockProfile, granularity: str) -> None:
        self.footprints = profile_footprints(profile, granularity)
        self.gas_estimates: Tuple[int, ...] = tuple(
            e.gas_used for e in profile.entries
        )
        self.graph: DependencyGraph = build_dependency_graph(
            self.footprints, self.gas_estimates
        )
        self._comp_fps: Optional[Tuple[Footprint, ...]] = None
        self._comp_gas: Optional[Tuple[int, ...]] = None

    def plan_for(
        self, lanes: int, policy: str, seed: int, metrics: Any = None
    ) -> SchedulePlan:
        """Schedule for ``lanes`` worker threads."""
        return schedule_components(self.graph, lanes, policy, seed, metrics=metrics)

    def component_footprints(self) -> Tuple[Footprint, ...]:
        """Union of member footprints per dependency-graph component."""
        fps = self._comp_fps
        if fps is None:
            footprints = self.footprints
            fps = tuple(
                frozenset().union(*(footprints[i] for i in component))
                for component in self.graph.components
            )
            self._comp_fps = fps
        return fps

    def component_gas(self) -> Tuple[int, ...]:
        """Profile-gas total per dependency-graph component (memoized).

        The distributed coordinator sums it per follower shard — components
        whose members burned more gas take proportionally longer to
        re-execute.
        """
        gas = self._comp_gas
        if gas is None:
            graph = self.graph
            gas = self._comp_gas = tuple(
                graph.component_gas(c) for c in range(len(graph.components))
            )
        return gas


def artifacts_for(block: Block, granularity: str) -> Optional[BlockArtifacts]:
    """The one entry point to a block's plan artifacts.

    ``None`` for a profile-less block (the validator's pre-execution
    fallback owns those) and for a profile whose entry count mismatches
    the transactions (malformed; the caller rejects).
    """
    profile = block.profile
    if profile is None or len(profile.entries) != len(block.transactions):
        return None
    return BlockArtifacts(profile, granularity)
