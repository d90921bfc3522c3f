"""Account records and their trie encoding.

An Ethereum account is the 4-tuple ``(nonce, balance, storage_root,
code_hash)`` RLP-encoded into the world-state trie under ``keccak(address)``
(paper §2.1).  :class:`AccountData` is the immutable in-memory form; the
storage mapping is shared structurally between snapshots and must never be
mutated in place — the :class:`~repro.state.statedb.StateDB` copy-on-writes
it at commit.
"""

from __future__ import annotations

from dataclasses import field, replace
from typing import Any, Mapping

from repro.common.hashing import EMPTY_HASH
from repro.common.records import record
from repro.common.rlp import rlp_int, rlp_list
from repro.common.types import Hash32
from repro.state.cache import keccak_cached

__all__ = ["AccountData", "EMPTY_ACCOUNT", "encode_account"]


@record
class AccountData:
    """Immutable account state.

    ``storage`` maps 256-bit slot numbers to 256-bit values; zero values
    are never stored (Ethereum deletes zeroed slots).
    """

    nonce: int = 0
    balance: int = 0
    code: bytes = b""
    storage: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nonce < 0:
            raise ValueError("negative nonce")
        if self.balance < 0:
            raise ValueError("negative balance")

    @property
    def code_hash(self) -> Hash32:
        # memoised: every commit re-encodes every dirty contract, and a
        # contract's code does not change from one block to the next
        return keccak_cached(self.code) if self.code else EMPTY_HASH

    def is_empty(self) -> bool:
        """EIP-158 emptiness: no nonce, no balance, no code, no storage."""
        return (
            self.nonce == 0
            and self.balance == 0
            and not self.code
            and not self.storage
        )

    def with_(self, **kwargs: Any) -> "AccountData":
        return replace(self, **kwargs)


EMPTY_ACCOUNT = AccountData()


def encode_account(account: AccountData, storage_root: Hash32) -> bytes:
    """Yellow-paper account body: rlp([nonce, balance, storage_root, code_hash])."""
    # two 32-byte strings: each is its one-byte prefix and its bytes
    return rlp_list(
        (
            rlp_int(account.nonce),
            rlp_int(account.balance),
            b"\xa0" + storage_root,
            b"\xa0" + account.code_hash,
        )
    )
