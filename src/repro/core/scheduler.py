"""Subgraph-to-thread scheduling (validator preparation phase, §4.3).

"The scheduler then assigns subgraphs into different threads according to
their gas ... the scheduler assigns conflict-free jobs to threads that
consume less gas" — i.e. Longest-Processing-Time-first over subgraph gas.
Gas is an *estimate* of running time; the actual simulated duration comes
from the executed opcode trace, so LPT's quality degrades exactly where
the paper notes it does (storage-heavy outliers, §5.4).

Alternative policies (``count_lpt``, ``round_robin``, ``random``) exist
for the scheduler ablation benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.depgraph import DependencyGraph

__all__ = ["SchedulePlan", "schedule_components", "SCHEDULER_POLICIES"]


@dataclass(frozen=True)
class SchedulePlan:
    """Assignment of subgraphs to worker threads.

    ``lane_components[t]`` lists subgraph indices thread *t* executes, in
    order; ``lane_txs[t]`` is the flattened transaction order for thread
    *t* (block order within each subgraph, subgraphs in assignment order).
    """

    lanes: int
    lane_components: Tuple[Tuple[int, ...], ...]
    lane_txs: Tuple[Tuple[int, ...], ...]
    policy: str

    def lane_of_tx(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for lane, txs in enumerate(self.lane_txs):
            for tx in txs:
                out[tx] = lane
        return out


def _order_gas_lpt(graph: DependencyGraph, lanes: int, seed: int) -> List[int]:
    """Heaviest subgraph first ("the subgraph with the heaviest path is
    selected first to capture the running time", §5.4)."""
    return sorted(
        range(len(graph.components)),
        key=lambda c: (-graph.component_gas(c), c),
    )


def _order_count_lpt(graph: DependencyGraph, lanes: int, seed: int) -> List[int]:
    """LPT by transaction count — ignores gas, ablation point."""
    return sorted(
        range(len(graph.components)),
        key=lambda c: (-len(graph.components[c]), c),
    )


def _order_block(graph: DependencyGraph, lanes: int, seed: int) -> List[int]:
    """Subgraphs in block order (no size information at all)."""
    return list(range(len(graph.components)))


def _order_random(graph: DependencyGraph, lanes: int, seed: int) -> List[int]:
    order = list(range(len(graph.components)))
    random.Random(seed).shuffle(order)
    return order


_ORDERINGS: Dict[str, Callable[[DependencyGraph, int, int], List[int]]] = {
    "gas_lpt": _order_gas_lpt,
    "count_lpt": _order_count_lpt,
    "block_order": _order_block,
    "random": _order_random,
}

SCHEDULER_POLICIES: Tuple[str, ...] = tuple(_ORDERINGS) + ("round_robin",)


#: Fixed buckets for subgraph sizes (transactions per conflict component).
_SUBGRAPH_SIZE_EDGES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 1 << 20)


def schedule_components(
    graph: DependencyGraph,
    lanes: int,
    policy: str = "gas_lpt",
    seed: int = 0,
    metrics: Any = None,
) -> SchedulePlan:
    """Assign subgraphs to ``lanes`` threads under the given policy.

    All policies except ``round_robin`` are greedy list schedulers: take
    subgraphs in the policy's order, place each on the currently
    least-loaded thread (load measured in estimated gas).  ``round_robin``
    ignores load entirely.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) observes
    subgraph sizes and the resulting per-lane gas imbalance — the signal
    behind LPT's quality on storage-heavy outliers (§5.4).
    """
    if lanes < 1:
        raise ValueError("need at least one lane")
    n_components = len(graph.components)
    lane_components: List[List[int]] = [[] for _ in range(lanes)]

    if policy == "round_robin":
        for i in range(n_components):
            lane_components[i % lanes].append(i)
    else:
        ordering_fn = _ORDERINGS.get(policy)
        if ordering_fn is None:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {SCHEDULER_POLICIES}"
            )
        loads = [0] * lanes
        for comp in ordering_fn(graph, lanes, seed):
            # least-loaded lane, lowest index on ties (deterministic)
            target = min(range(lanes), key=lambda l: (loads[l], l))
            lane_components[target].append(comp)
            loads[target] += graph.component_gas(comp)

    lane_txs = tuple(
        tuple(tx for comp in comps for tx in graph.components[comp])
        for comps in lane_components
    )
    if metrics is not None:
        size_hist = metrics.histogram("scheduler.subgraph_size", _SUBGRAPH_SIZE_EDGES)
        for component in graph.components:
            size_hist.observe(len(component))
        metrics.counter("scheduler.plans").inc()
        loads = [
            sum(graph.component_gas(c) for c in comps) for comps in lane_components
        ]
        busiest = max(loads) if loads else 0
        mean_load = sum(loads) / len(loads) if loads else 0
        # imbalance 1.0 = perfectly level; the LPT-vs-actual-time gap
        metrics.gauge("scheduler.load_imbalance").set(
            busiest / mean_load if mean_load else 0.0
        )
    return SchedulePlan(
        lanes=lanes,
        lane_components=tuple(tuple(c) for c in lane_components),
        lane_txs=lane_txs,
        policy=policy,
    )
