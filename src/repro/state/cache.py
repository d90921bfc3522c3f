"""The keccak memo behind the secure trie's keys.

:func:`keccak_cached` is a process-wide memo of ``keccak(key)``
(ARCHITECTURE §11).  Account addresses and storage-slot keys are re-hashed
on every trie get/set and contract code on every re-encoded account body;
the key space a workload touches is small and stable, so the memo turns
each of those hashes into a dict lookup.  What the secure trie walks is the
digest's *nibble path*, so the same entry keeps that too
(:func:`keccak_path_cached`): one memo, one bound.

This module deliberately imports nothing from ``statedb``/``versioned``/
``trie`` (they import *it*), keeping the state package's import DAG acyclic.
Hash preimages never change, so no invalidation hooks are needed;
boundedness alone controls memory.  The memo keeps no hit or miss
counters: they would be process-wide, so no per-run metric could publish
them deterministically, and nothing else reads them.
"""

from __future__ import annotations

import hashlib
from binascii import hexlify
from typing import Dict, Tuple

from repro.common.types import Hash32

__all__ = [
    "bytes_to_nibbles",
    "keccak_cached",
    "keccak_path_cached",
]


#: ASCII hex digit -> nibble value
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def bytes_to_nibbles(key: bytes) -> bytes:
    """The key's nibble path: one byte per nibble, each in ``range(16)``."""
    return hexlify(key).translate(_HEX_TO_NIBBLE)


# --------------------------------------------------------------------------- #
# keccak memo
# --------------------------------------------------------------------------- #

#: Preimages are 20-byte addresses and 32-byte slot keys, plus one code blob
#: per deployed contract; at ~250 bytes per entry (preimage, digest, the
#: digest's 64-nibble path) this caps the memo around 16 MB.
_KECCAK_MEMO_MAX = 65536

#: preimage -> (digest, nibble path of the digest)
_keccak_memo: Dict[bytes, Tuple[Hash32, bytes]] = {}


def _keccak_entry(data: bytes) -> Tuple[Hash32, bytes]:
    memo = _keccak_memo
    entry = memo.get(data)
    if entry is not None:
        return entry
    if len(memo) >= _KECCAK_MEMO_MAX:
        memo.clear()
    digest = hashlib.sha3_256(data).digest()
    entry = memo[data] = (Hash32(digest), bytes_to_nibbles(digest))
    return entry


def keccak_cached(data: bytes) -> Hash32:
    """Memoized :func:`repro.common.hashing.keccak` for secure-trie keys.

    Semantically identical to ``keccak`` (pure function of immutable
    input); the memo is process-wide because hash preimages cannot go
    stale.  Bounded by wholesale reset — trie key sets repeat heavily
    within a workload, so epoch-style clearing beats per-entry LRU
    bookkeeping on this, the hottest path in ``StateDB.commit()``.
    """
    return _keccak_entry(data)[0]


def keccak_path_cached(data: bytes) -> bytes:
    """``bytes_to_nibbles(keccak(data))`` from the same memo entry: the path
    under which the secure trie files ``data``."""
    return _keccak_entry(data)[1]
