"""Bounded caches for the state layer's hot paths.

Three cache primitives back the hot-path layer (ISSUE 4 / ARCHITECTURE §11):

* :class:`BoundedCache` — a dict-ordered LRU map with hit/miss/eviction
  counters, the building block for the others;
* :func:`keccak_cached` — a process-wide memo of ``keccak(key)`` for the
  secure trie (and for contract code hashes).  Account addresses and
  storage-slot keys are re-hashed on every trie get/set; the key space a
  workload touches is small and stable, so the memo turns each of those
  hashes into a dict lookup;
* :class:`ReadThroughCache` — a loader-backed LRU used by
  :class:`repro.state.versioned.MultiVersionStore` for base-snapshot reads
  shared across every optimistic transaction in a block.

This module deliberately imports nothing from ``statedb``/``versioned``/
``trie`` (they import *it*), keeping the state package's import DAG acyclic.
All caches here are read-through over immutable data — snapshots and hash
preimages never change — so no invalidation hooks are needed; boundedness
alone controls memory.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Generic, Tuple, TypeVar

from repro.common.types import Hash32

__all__ = [
    "BoundedCache",
    "CacheStats",
    "ReadThroughCache",
    "keccak_cached",
    "keccak_cache_stats",
]

K = TypeVar("K")
V = TypeVar("V")


class CacheStats:
    """Mutable hit/miss/eviction counters for one cache instance."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class BoundedCache(Generic[K, V]):
    """LRU map bounded at ``maxsize`` entries.

    Exploits dict insertion order: a hit re-inserts the key at the end,
    eviction removes the oldest (first) key.  All operations are O(1).
    """

    __slots__ = ("maxsize", "stats", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: Dict[K, V] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K, default: V | None = None) -> V | None:
        data = self._data
        try:
            value = data.pop(key)
        except KeyError:
            self.stats.misses += 1
            return default
        data[key] = value  # re-insert: most recently used
        self.stats.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.maxsize:
            del data[next(iter(data))]
            self.stats.evictions += 1
        data[key] = value

    def clear(self) -> None:
        self._data.clear()


# --------------------------------------------------------------------------- #
# keccak memo
# --------------------------------------------------------------------------- #

#: Preimages are 20-byte addresses and 32-byte slot keys, plus one code blob
#: per deployed contract; at ~64 bytes per entry this caps the memo around
#: 4 MB.
_KECCAK_MEMO_MAX = 65536

_keccak_memo: Dict[bytes, Hash32] = {}
_keccak_stats = CacheStats()


def keccak_cached(data: bytes) -> Hash32:
    """Memoized :func:`repro.common.hashing.keccak` for secure-trie keys.

    Semantically identical to ``keccak`` (pure function of immutable
    input); the memo is process-wide because hash preimages cannot go
    stale.  Bounded by wholesale reset — trie key sets repeat heavily
    within a workload, so epoch-style clearing beats per-entry LRU
    bookkeeping on this, the hottest path in ``StateDB.commit()``.
    """
    memo = _keccak_memo
    digest = memo.get(data)
    if digest is not None:
        _keccak_stats.hits += 1
        return digest
    _keccak_stats.misses += 1
    if len(memo) >= _KECCAK_MEMO_MAX:
        memo.clear()
        _keccak_stats.evictions += 1
    digest = Hash32(hashlib.sha3_256(data).digest())
    memo[data] = digest
    return digest


def keccak_cache_stats() -> Dict[str, int]:
    """Global keccak-memo counters (published as gauges by the proposer)."""
    stats = _keccak_stats.as_dict()
    stats["size"] = len(_keccak_memo)
    return stats


# --------------------------------------------------------------------------- #
# read-through cache
# --------------------------------------------------------------------------- #

#: Sentinel distinguishing "not cached" from a cached ``None`` value.
_MISSING: Tuple[str] = ("missing",)


class ReadThroughCache(Generic[K, V]):
    """Bounded LRU in front of a loader function.

    ``None`` (and any other falsy value) the loader returns is cached like
    every other value — absence is tracked with a private sentinel, not by
    value comparison.  Intended for immutable backing data (committed
    snapshots); there is no invalidation API by design.
    """

    __slots__ = ("_loader", "_cache")

    def __init__(self, loader: Callable[[K], V], maxsize: int = 8192) -> None:
        self._loader = loader
        self._cache: BoundedCache[K, object] = BoundedCache(maxsize)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def get(self, key: K) -> V:
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        value = self._loader(key)
        self._cache.put(key, value)
        return value

    def clear(self) -> None:
        self._cache.clear()
