"""Fork production: competing proposers at the same height (§3.4).

"When two proposers produce blocks at roughly the same time, validators
may receive multiple blocks at the same height."  :func:`race` gives K
proposers the same pending pool in K different insertion orders, yielding
K valid sibling blocks with different serializable orders — exactly the
validator workload of Fig. 9.  :class:`ForkSimulator` runs one race per
call; the whole-network simulation runs one per round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.chain.block import Block, BlockHeader
from repro.core.proposer import SealedProposal
from repro.network.node import ProposerNode
from repro.state.statedb import StateSnapshot
from repro.txpool.transaction import Transaction

__all__ = ["ForkSimulator", "race"]


def race(
    nodes: Sequence[ProposerNode],
    parent: BlockHeader,
    parent_state: StateSnapshot,
    pending: Sequence[Transaction],
    rng: random.Random,
) -> List[SealedProposal]:
    """Each node builds its own block over the same parent.

    Every node sees all of ``pending``, shuffled by ``rng`` (one shuffle
    per node, in node order) and then stably sorted by nonce — the pool
    requires per-sender non-decreasing nonce arrival — so identical pools
    still race to different serializable orders.
    """
    proposals = []
    for node in nodes:
        view = list(pending)
        rng.shuffle(view)
        view.sort(key=lambda tx: tx.nonce)
        proposals.append(node.build_block(parent, parent_state, view))
    return proposals


@dataclass
class ForkSet:
    """K sibling proposals over the same parent."""

    proposals: List[SealedProposal]

    @property
    def blocks(self) -> List[Block]:
        return [p.block for p in self.proposals]


class ForkSimulator:
    """Produces same-height sibling blocks from independent proposers."""

    def __init__(self, n_proposers: int, *, seed: int = 7) -> None:
        if n_proposers < 1:
            raise ValueError("need at least one proposer")
        self.rng = random.Random(seed)
        self.proposers = [ProposerNode(f"proposer-{i}") for i in range(n_proposers)]

    def propose_forks(
        self,
        parent: BlockHeader,
        parent_state: StateSnapshot,
        pending: Sequence[Transaction],
    ) -> ForkSet:
        """Each proposer builds its own block over the same parent."""
        return ForkSet(race(self.proposers, parent, parent_state, pending, self.rng))
