"""Typed durability errors.

Every way the on-disk state can be wrong gets its own exception class, so
recovery either *heals* a fault (torn tail truncation) or *names* it — a
corrupt data dir must never silently diverge into a plausible-looking
chain.  All of them derive from :class:`StoreError`, which derives from
``RuntimeError`` so callers that only want "storage broke" can catch one
type.

This module is imported by ``repro.chain`` test helpers and the fault
suite — it must stay dependency-free (stdlib only).
"""

from __future__ import annotations

__all__ = [
    "StoreError",
    "BlockLogCorruptError",
    "TornTailError",
    "SnapshotCorruptError",
    "ManifestError",
    "StaleManifestError",
    "ReplayDivergenceError",
    "ConfigMismatchError",
]


class StoreError(RuntimeError):
    """Base class for every durability failure."""


class BlockLogCorruptError(StoreError):
    """A block-log record in the *interior* of the log failed its checksum
    or could not be decoded.  Unlike a torn tail this cannot be explained
    by a crash mid-append (later records are intact), so it is never
    auto-healed."""

    def __init__(self, message: str, *, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class TornTailError(StoreError):
    """The *last* record of the block log is incomplete or fails its
    checksum — the signature of a crash mid-append.  Recovery heals it by
    truncating the log back to ``offset`` (the start of the torn record)."""

    def __init__(self, message: str, *, offset: int) -> None:
        super().__init__(f"{message} (torn tail at offset {offset})")
        self.offset = offset


class SnapshotCorruptError(StoreError):
    """A state-snapshot file is unreadable, fails its recorded digest, or
    rebuilds to a different state root than the manifest recorded."""


class ManifestError(StoreError):
    """The manifest file is malformed or fails its self-checksum."""


class StaleManifestError(StoreError):
    """The manifest disagrees with the files actually on disk in a way a
    crash cannot explain: it records more durable log bytes than the log
    holds (a lost-fsync window), or references a snapshot that does not
    exist."""


class ReplayDivergenceError(StoreError):
    """Re-executing a logged block does not re-derive what the record
    holds: the validator's block check (state root, receipts, gas, bloom)
    failed on it."""

    def __init__(self, message: str, *, height: int) -> None:
        super().__init__(f"{message} (block {height})")
        self.height = height


class ConfigMismatchError(StoreError):
    """A serve session was resumed with workload parameters different from
    the ones the data dir was created with (would silently diverge)."""
