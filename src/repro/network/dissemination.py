"""Fork production: competing proposers at the same height (§3.4).

"When two proposers produce blocks at roughly the same time, validators
may receive multiple blocks at the same height."  The simulator gives K
proposers overlapping views of the pending pool (identical by default)
and distinct tie-breaking, yielding K valid sibling blocks with different
serializable orders — exactly the validator workload of Fig. 9.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chain.block import Block, BlockHeader
from repro.common.types import Address
from repro.core.occ_wsi import ProposerConfig
from repro.core.proposer import SealedProposal
from repro.faults.injector import FaultInjector
from repro.network.node import ProposerNode
from repro.state.statedb import StateSnapshot
from repro.txpool.transaction import Transaction

__all__ = ["ForkSimulator"]


@dataclass
class ForkSet:
    """K sibling proposals over the same parent."""

    proposals: List[SealedProposal]
    #: the block actually broadcast per proposer — the sealed block, or a
    #: corrupted copy for byzantine proposers
    published: Optional[List[Block]] = None

    def __post_init__(self) -> None:
        if self.published is None:
            self.published = [p.block for p in self.proposals]

    @property
    def blocks(self) -> List[Block]:
        assert self.published is not None  # normalised in __post_init__
        return self.published


class ForkSimulator:
    """Produces same-height sibling blocks from independent proposers."""

    def __init__(
        self,
        n_proposers: int,
        *,
        proposer_config: Optional[ProposerConfig] = None,
        pool_overlap: float = 1.0,
        seed: int = 7,
        injector: Optional[FaultInjector] = None,
        byzantine: Sequence[int] = (),
        corruption: str = "profile_write_value",
    ) -> None:
        if n_proposers < 1:
            raise ValueError("need at least one proposer")
        if not 0.0 < pool_overlap <= 1.0:
            raise ValueError("pool_overlap must be in (0, 1]")
        if byzantine and injector is None:
            raise ValueError("byzantine proposers need a FaultInjector")
        self.rng = random.Random(seed)
        self.pool_overlap = pool_overlap
        self.injector = injector
        self.byzantine = frozenset(byzantine)
        self.corruption = corruption
        self.proposers = [
            ProposerNode(f"proposer-{i}", config=proposer_config)
            for i in range(n_proposers)
        ]

    def propose_forks(
        self,
        parent: BlockHeader,
        parent_state: StateSnapshot,
        pending: Sequence[Transaction],
    ) -> ForkSet:
        """Each proposer builds its own block over the same parent.

        With ``pool_overlap < 1`` each proposer sees a random subset of the
        pending set (mempools are never perfectly synchronised); insertion
        order is shuffled per proposer so identical pools still race to
        different serializable orders.  Per-sender nonce prefixes are
        preserved when subsetting, otherwise the pool would reject gapped
        nonces.

        Proposers listed in ``byzantine`` seal honestly, then publish a
        deterministically corrupted copy of their block — the sibling set a
        hardened validator must survive.
        """
        proposals = []
        published = []
        for index, node in enumerate(self.proposers):
            view = list(pending)
            if self.pool_overlap < 1.0:
                view = self._nonce_safe_subset(view)
            self.rng.shuffle(view)
            # the pool requires per-sender non-decreasing nonce arrival
            view.sort(key=lambda tx: tx.nonce)
            sealed = node.build_block(parent, parent_state, view)
            proposals.append(sealed)
            block = sealed.block
            if index in self.byzantine and self.injector is not None:
                block = self.injector.corrupt_block(block, self.corruption)
            published.append(block)
        return ForkSet(proposals, published)

    def _nonce_safe_subset(self, txs: List[Transaction]) -> List[Transaction]:
        """Drop a random *suffix* of each sender's transactions.

        Dropping from the tail keeps every sender's nonce sequence gapless,
        so the subset is a valid mempool view.
        """
        by_sender: Dict[Address, List[Transaction]] = {}
        for tx in sorted(txs, key=lambda t: t.nonce):
            by_sender.setdefault(tx.sender, []).append(tx)
        kept: List[Transaction] = []
        for sender_txs in by_sender.values():
            keep = len(sender_txs)
            while keep > 0 and self.rng.random() > self.pool_overlap:
                keep -= 1
            kept.extend(sender_txs[:keep])
        return kept
