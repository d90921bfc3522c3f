"""Transaction dependency graph (validator preparation phase, §4.3).

Conflicts are detected **at the account level**: "account counters (e.g.,
balance) are changed in every transaction, and updates to contract account
can cause the overall update to the account MPT" (§4.3).  Two transactions
conflict when their account footprints intersect; the transitive closure
of the conflict relation partitions the block into **subgraphs** (connected
components).  Transactions inside a subgraph must run serially in block
order; distinct subgraphs are independent and run in parallel.

The exact key-level rw-sets stay in the block profile for the applier's
verification — the graph is deliberately coarser (cheap to build, and
conservative: it may merge transactions that do not conflict at key level,
never the reverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.types import Address

__all__ = ["DependencyGraph", "build_dependency_graph"]


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


@dataclass(frozen=True)
class DependencyGraph:
    """Partition of a block's transactions into conflict subgraphs.

    ``components`` lists subgraphs as tuples of transaction indices in
    block order; ``component_of[i]`` maps a transaction index to its
    subgraph index; ``gas`` carries the per-transaction gas estimates the
    scheduler weighs subgraphs by.
    """

    tx_count: int
    components: Tuple[Tuple[int, ...], ...]
    component_of: Tuple[int, ...]
    gas: Tuple[int, ...]

    def component_gas(self, component_index: int) -> int:
        return sum(self.gas[i] for i in self.components[component_index])

    def largest_component_ratio(self) -> float:
        """Share of the block's transactions in the biggest subgraph.

        This is the hotspot metric of §5.5 (paper average: 27.5%); a ratio
        of 1.0 means the whole block is one serial chain."""
        if self.tx_count == 0:
            return 0.0
        return max(len(c) for c in self.components) / self.tx_count


def build_dependency_graph(
    footprints: Sequence[FrozenSet[Address]],
    gas: Optional[Sequence[int]] = None,
) -> DependencyGraph:
    """Build the subgraph partition from per-transaction account footprints.

    ``footprints[i]`` is the set of account addresses transaction *i*
    touches (reads or writes).  Footprints typically come from the block
    profile's rw-sets (:meth:`FrozenRWSet.touched_addresses`); gas
    estimates default to 1 per transaction when absent.
    """
    n = len(footprints)
    gas_tuple = tuple(gas) if gas is not None else (1,) * n
    if len(gas_tuple) != n:
        raise ValueError("gas estimates must align with footprints")

    uf = _UnionFind(n)
    first_toucher: Dict[Address, int] = {}
    for index, footprint in enumerate(footprints):
        for address in footprint:
            owner = first_toucher.get(address)
            if owner is None:
                first_toucher[address] = index
            else:
                uf.union(owner, index)

    groups: Dict[int, List[int]] = {}
    for index in range(n):
        groups.setdefault(uf.find(index), []).append(index)

    # deterministic component order: by first (lowest) tx index
    ordered = sorted(groups.values(), key=lambda c: c[0])
    components = tuple(tuple(sorted(c)) for c in ordered)
    component_of = [0] * n
    for comp_index, component in enumerate(components):
        for tx_index in component:
            component_of[tx_index] = comp_index

    return DependencyGraph(
        tx_count=n,
        components=components,
        component_of=tuple(component_of),
        gas=gas_tuple,
    )
