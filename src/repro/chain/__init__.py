"""Blocks, block profiles, receipts and the forked blockchain store.

The chain layer carries the artifacts the two execution contexts exchange
(paper §3.2): proposers seal a :class:`Block` whose header commits to the
post-state root, plus a :class:`BlockProfile` with per-transaction
read/write sets ("execution details ... in the block profile", §4.2);
validators re-execute and compare both (Algorithm 2).

:class:`Blockchain` stores competing blocks at the same height — the fork
situation that gives validators more work than proposers (§3.4) — and
counts the non-canonical siblings as uncles.
"""

from repro.chain.block import (
    Block,
    BlockHeader,
    BlockProfile,
    Receipt,
    TxProfileEntry,
    transactions_root,
    receipts_root,
)
from repro.chain.blockchain import Blockchain, ChainError
from repro.chain.params import ChainParams, DEFAULT_CHAIN_PARAMS, ETHEREUM_POW_PARAMS

__all__ = [
    "Block",
    "BlockHeader",
    "BlockProfile",
    "Receipt",
    "TxProfileEntry",
    "transactions_root",
    "receipts_root",
    "Blockchain",
    "ChainError",
    "ChainParams",
    "DEFAULT_CHAIN_PARAMS",
    "ETHEREUM_POW_PARAMS",
]
