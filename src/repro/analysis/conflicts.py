"""Conflict-source analysis — the §2.3/§3.1 empirical-study angle.

Garamvölgyi et al.'s study (which the paper builds on) found that "the
majority of data conflicts arise from counters (e.g., balances) and
storage".  This module classifies every conflicting key pair in a block
by its source so the claim can be checked on any workload:

* ``balance`` / ``nonce`` — account counters;
* ``storage`` — contract storage slots (SLOAD/SSTORE races);
* ``code`` — contract (re)deployment, essentially never in practice.

A *conflict edge* exists between transactions *i < j* for key *k* when
one of them writes *k* and the other reads or writes it.  The breakdown
counts edges per key kind; hot keys (most conflicted) are surfaced for
hotspot forensics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.block import Block
from repro.state.access import StateKey

__all__ = ["ConflictBreakdown", "analyze_block_conflicts"]


@dataclass(frozen=True)
class ConflictBreakdown:
    """Per-source conflict statistics for one block."""

    total_edges: int
    edges_by_kind: Dict[str, int]
    hot_keys: Tuple[Tuple[StateKey, int], ...]  # (key, edge count), descending
    conflicting_tx_fraction: float

    def counter_fraction(self) -> float:
        """Share of conflict edges caused by account counters."""
        if self.total_edges == 0:
            return 0.0
        counters = self.edges_by_kind.get("balance", 0) + self.edges_by_kind.get(
            "nonce", 0
        )
        return counters / self.total_edges

    def storage_fraction(self) -> float:
        if self.total_edges == 0:
            return 0.0
        return self.edges_by_kind.get("storage", 0) / self.total_edges

    def rows(self, top: int = 5) -> List[dict]:
        """Table rows for the report renderer."""
        rows = [
            {
                "kind": kind,
                "edges": count,
                "share": f"{count / self.total_edges:.1%}" if self.total_edges else "0%",
            }
            for kind, count in sorted(
                self.edges_by_kind.items(), key=lambda kv: -kv[1]
            )
        ]
        return rows


def analyze_block_conflicts(block: Block) -> ConflictBreakdown:
    """Classify the conflict edges implied by a block's profile.

    Requires the block profile (the proposer-published rw-sets); raises
    ``ValueError`` for profile-less blocks.
    """
    if block.profile is None:
        raise ValueError("block has no profile to analyse")

    readers: Dict[StateKey, List[int]] = {}
    writers: Dict[StateKey, List[int]] = {}
    for index, entry in enumerate(block.profile.entries):
        for key in entry.rw.read_keys():
            readers.setdefault(key, []).append(index)
        for key in entry.rw.write_keys():
            writers.setdefault(key, []).append(index)

    edges_by_kind: Counter = Counter()
    per_key: Counter = Counter()
    conflicting_txs = set()

    for key, writer_list in writers.items():
        reader_list = readers.get(key, [])
        w = len(writer_list)
        r_only = len(set(reader_list) - set(writer_list))
        # write-write pairs + read-write pairs (reader not itself a writer)
        edge_count = w * (w - 1) // 2 + r_only * w
        if edge_count:
            edges_by_kind[key[0]] += edge_count
            per_key[key] += edge_count
            involved = set(writer_list)
            if r_only:
                involved |= set(reader_list)
            if len(involved) > 1:
                conflicting_txs |= involved

    n = len(block.transactions)
    return ConflictBreakdown(
        total_edges=sum(edges_by_kind.values()),
        edges_by_kind=dict(edges_by_kind),
        hot_keys=tuple(per_key.most_common(10)),
        conflicting_tx_fraction=(len(conflicting_txs) / n) if n else 0.0,
    )
