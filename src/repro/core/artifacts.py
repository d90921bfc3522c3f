"""The validator's one plan artifact (profile footprints, graph, plans).

DiPETrans makes the case that the dependency-analysis artifact is worth
computing once and shipping to local and remote executors alike; this
module is that artifact, and the only caller of
``build_dependency_graph`` / ``schedule_components``.  ``validate_block``
obtains it through :func:`artifacts_for` and every consumer — the timing
simulation's lanes, backend workers, follower shards — plans from it.

:class:`BlockArtifacts` bundles everything derivable from one block profile
at one conflict granularity.  Schedules are memoized per
``(lanes, policy, seed)`` — the graph is lane-count independent, plans are
not.  :class:`ArtifactCache` keys artifacts by block hash so they survive
across validations of the same block (lane sweeps, re-validation), and
**invalidates on fork-sibling divergence**: once a sibling commits at a
height, the losing blocks' artifacts are dead weight and are dropped.

Everything here is wall-clock optimisation only.  The simulated cost model
still charges ``schedule_per_tx × n`` for every preparation phase —
caching changes what the host CPU does, never the simulated timeline, so
all traces and benchmark figures stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.chain.block import Block, BlockProfile
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.scheduler import SchedulePlan, schedule_components

__all__ = [
    "BlockArtifacts",
    "ArtifactCache",
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
        "_plans",
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
        # (lanes, policy, seed, metrics-attached) -> plan.  The metrics flag
        # keeps scheduler histogram observations identical to the uncached
        # code path (a metrics-less consumer never swallows an observing one).
        self._plans: Dict[Tuple[int, str, int, bool], SchedulePlan] = {}
        self._comp_fps: Optional[Tuple[Footprint, ...]] = None
        self._comp_gas: Optional[Tuple[int, ...]] = None

    def plan_for(
        self, lanes: int, policy: str, seed: int, metrics: Any = None
    ) -> SchedulePlan:
        """Schedule for ``lanes`` worker threads (memoized).

        ``schedule_components`` is deterministic in ``(graph, lanes,
        policy, seed)``, so the memo can never change a plan — only skip
        recomputing it.
        """
        key = (lanes, policy, seed, metrics is not None)
        plan = self._plans.get(key)
        if plan is None:
            plan = schedule_components(
                self.graph, lanes, policy, seed, metrics=metrics
            )
            self._plans[key] = plan
        return plan

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


def artifacts_for(
    block: Block,
    granularity: str,
    cache: Optional["ArtifactCache"] = None,
) -> Optional[BlockArtifacts]:
    """The one entry point to a block's plan artifacts.

    Consults ``cache`` when given (sharing derivations across validations
    of the block), otherwise derives standalone through a throwaway cache
    so the "can this block be planned from its profile" check
    (:meth:`ArtifactCache.get`) exists once.  ``None`` means it cannot.
    """
    if cache is None:
        cache = ArtifactCache(maxsize=1)
    return cache.get(block, granularity)


class ArtifactCache:
    """Bounded per-block artifact store with fork-divergence invalidation.

    Keys are ``(block hash, granularity)``; block hashes commit to the
    profile, so a cached entry can never go stale — entries are dropped
    only for *relevance* (losing fork siblings, LRU pressure), never for
    correctness.  ``metrics`` (optional
    :class:`~repro.obs.metrics.MetricsRegistry`) observes hits, misses,
    evictions and invalidations under ``artifacts.*``.
    """

    def __init__(self, maxsize: int = 128, metrics: Any = None) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.metrics = metrics
        self._entries: Dict[Tuple[bytes, str], BlockArtifacts] = {}
        self._heights: Dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter("artifacts", name).inc(amount)

    def get(self, block: Block, granularity: str) -> Optional[BlockArtifacts]:
        """Artifacts for ``block``, computing on first request.

        Returns ``None`` for profile-less blocks (the validator's
        pre-execution fallback owns those) and for profiles whose entry
        count mismatches the transactions (malformed; the caller rejects).
        """
        profile = block.profile
        if profile is None or len(profile.entries) != len(block.transactions):
            return None
        key = (block.hash, granularity)
        entries = self._entries
        art = entries.pop(key, None)
        if art is not None:
            entries[key] = art  # LRU re-insert
            self.hits += 1
            self._count("hits")
            return art
        self.misses += 1
        self._count("misses")
        art = BlockArtifacts(profile, granularity)
        if len(entries) >= self.maxsize:
            oldest = next(iter(entries))
            del entries[oldest]
            if not any(k[0] == oldest[0] for k in entries):
                self._heights.pop(oldest[0], None)
            self.evictions += 1
            self._count("evictions")
        entries[key] = art
        self._heights[key[0]] = block.number
        return art

    def invalidate(self, block_hash: bytes) -> int:
        """Drop every granularity's artifacts for one block."""
        block_key = bytes(block_hash)
        dead = [k for k in self._entries if k[0] == block_key]
        for k in dead:
            del self._entries[k]
        self._heights.pop(block_key, None)
        if dead:
            self.invalidations += len(dead)
            self._count("invalidations", len(dead))
        return len(dead)

    def invalidate_siblings(self, height: int, keep: bytes) -> int:
        """Fork divergence: a block committed at ``height``; drop the rest.

        Cached artifacts for losing siblings at the same height can never
        be consulted again (the pipeline abandons or has finished them), so
        holding them only squeezes live entries out of the LRU.
        """
        keep_key = bytes(keep)
        losers = [
            h
            for h, block_height in self._heights.items()
            if block_height == height and h != keep_key
        ]
        dropped = 0
        for block_hash in losers:
            dropped += self.invalidate(block_hash)
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._heights.clear()
