"""Consensus parameters: the block reward.

BlockPilot cites uncle rewards (§3.4) only to explain why same-height
forks exist; it never includes or rewards an uncle, so neither does this
chain.  Forks are modelled as resident siblings
(:meth:`~repro.chain.blockchain.Blockchain.uncle_count` counts them).

The default ``block_reward`` is zero — the framework's correctness results
are reward-agnostic, and zero keeps fee-only accounting front and centre.
A non-zero reward must reach both roles — as ``ProposerNode(params=...)``
and ``ValidatorNode(config=ValidatorConfig(params=...))`` (every validator
role takes the same ``ValidatorConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChainParams", "DEFAULT_CHAIN_PARAMS"]


@dataclass(frozen=True)
class ChainParams:
    """Chain-wide consensus constants shared by proposers and validators.

    Both roles must hold identical parameters or state roots diverge —
    exactly like a real network's chain configuration.
    """

    #: credited to the block's coinbase on top of its fees
    block_reward: int = 0


DEFAULT_CHAIN_PARAMS = ChainParams()
