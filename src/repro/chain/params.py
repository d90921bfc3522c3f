"""Consensus parameters: rewards, uncle policy, block capacity.

Uncle blocks matter to BlockPilot's motivation (§3.4): they are rewarded
("uncle blocks can also get rewarded as uncle blocks provide a security
benefit"), which is why validators must process fork siblings efficiently
rather than discard them.  The reward schedule follows Ethereum PoW:

* the block proposer earns ``block_reward`` plus 1/32 of it per included
  uncle (the *nephew* reward);
* each uncle's coinbase earns ``(8 + uncle_height − block_height) / 8``
  of the block reward (so a height-7-generations-stale uncle earns 1/8).

The default ``block_reward`` is zero — the framework's correctness results
are reward-agnostic, and zero keeps fee-only accounting front and centre —
but the PoW schedule is fully implemented and tested; pass
``ETHEREUM_POW_PARAMS`` to both roles to enable it — as
``ProposerNode(params=...)`` and ``ValidatorNode(config=ValidatorConfig(
params=...))`` (every validator role takes the same ``ValidatorConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChainParams", "DEFAULT_CHAIN_PARAMS", "ETHEREUM_POW_PARAMS"]

ETHER = 10**18


@dataclass(frozen=True)
class ChainParams:
    """Chain-wide consensus constants shared by proposers and validators.

    Both roles must hold identical parameters or state roots diverge —
    exactly like a real network's chain configuration.
    """

    block_reward: int = 0
    #: proposer's bonus per included uncle: block_reward / nephew_divisor
    nephew_reward_divisor: int = 32
    #: maximum uncles a block may embed (Ethereum: 2)
    max_uncles: int = 2
    #: how many generations back an uncle may reach (Ethereum: 6)
    max_uncle_depth: int = 6
    #: default block gas limit for sealing
    gas_limit: int = 30_000_000

    def nephew_reward(self, uncle_count: int) -> int:
        if self.block_reward == 0 or uncle_count == 0:
            return 0
        return (self.block_reward // self.nephew_reward_divisor) * uncle_count

    def uncle_reward(self, block_number: int, uncle_number: int) -> int:
        """Reward paid to an uncle's coinbase (Ethereum PoW formula)."""
        if self.block_reward == 0:
            return 0
        depth = block_number - uncle_number
        if depth < 1 or depth > self.max_uncle_depth + 1:
            return 0
        factor = 8 - depth
        if factor <= 0:
            return 0
        return self.block_reward * factor // 8

    def validate_uncle(self, block_number: int, uncle_number: int) -> bool:
        depth = block_number - uncle_number
        return 1 <= depth <= self.max_uncle_depth + 1


DEFAULT_CHAIN_PARAMS = ChainParams()

#: Ethereum PoW-era economics (post-Constantinople 2-ETH reward).
ETHEREUM_POW_PARAMS = ChainParams(block_reward=2 * ETHER)
