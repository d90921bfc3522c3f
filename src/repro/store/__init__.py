"""Durable storage engine: block log, state snapshots, crash recovery.

The package gives the in-memory :class:`~repro.chain.blockchain.Blockchain`
a durability seam without changing any existing caller:

* :mod:`repro.store.backend` — the :class:`StorageBackend` protocol plus
  :class:`MemoryStore` (default no-op; today's behaviour) and
  :class:`DiskStore` (append-only log + periodic snapshots + two-slot
  manifest commit point);
* :mod:`repro.store.blocklog` — the length-prefixed, CRC-checksummed
  append-only block log with torn-tail detection;
* :mod:`repro.store.codec` — canonical RLP encodings for headers,
  transactions, receipts and whole blocks, plus :func:`chain_digest`
  (the byte-identity witness the kill-and-resume tests compare);
* :mod:`repro.store.manifest` / :mod:`repro.store.snapshots` — the
  two-slot manifest, overwritten in place, and the checksummed state
  snapshots;
* :mod:`repro.store.recovery` — :func:`recover`, which rebuilds and
  *re-verifies* a chain from a data dir (every replayed block is
  re-executed and its state root checked);
* :mod:`repro.store.service` — :class:`NodeService`, the long-running
  ``python -m repro serve`` driver with graceful-shutdown sealing.

:func:`open_store` is the one-call entry point: recover (or create) a
data dir and hand back a chain already wired to a live :class:`DiskStore`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.chain.blockchain import Blockchain
from repro.state.statedb import StateSnapshot
from repro.store.backend import DiskStore, MemoryStore, StorageBackend
from repro.store.blocklog import BlockLog
from repro.store.codec import (
    chain_digest,
    decode_block,
    decode_header,
    encode_block,
    encode_header,
)
from repro.store.errors import (
    BlockLogCorruptError,
    ConfigMismatchError,
    ManifestError,
    ReplayDivergenceError,
    SnapshotCorruptError,
    StaleManifestError,
    StoreError,
    TornTailError,
)
from repro.store.manifest import Manifest, SnapshotRef
from repro.store.recovery import RecoveryResult, recover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.storage import CrashPlan
    from repro.obs.events import EventEmitter
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "StorageBackend",
    "MemoryStore",
    "DiskStore",
    "BlockLog",
    "Manifest",
    "SnapshotRef",
    "RecoveryResult",
    "recover",
    "open_store",
    "chain_digest",
    "encode_block",
    "decode_block",
    "encode_header",
    "decode_header",
    "StoreError",
    "BlockLogCorruptError",
    "TornTailError",
    "SnapshotCorruptError",
    "ManifestError",
    "StaleManifestError",
    "ReplayDivergenceError",
    "ConfigMismatchError",
]


def open_store(
    data_dir: str,
    genesis_state: StateSnapshot,
    *,
    snapshot_interval: int = 64,
    compact: bool = True,
    fsync: bool = True,
    serve: Optional[Dict[str, Any]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    emitter: Optional["EventEmitter"] = None,
    crash: Optional["CrashPlan"] = None,
) -> Tuple[Blockchain, DiskStore, RecoveryResult]:
    """Recover (or create) ``data_dir`` and return a chain wired to disk.

    The returned chain's :meth:`~repro.chain.blockchain.Blockchain.add_block`
    persists every accepted block through the :class:`DiskStore` commit
    path.  ``serve`` (only used when the dir is fresh) pins the session
    parameters future resumes must match.
    """
    from repro.obs.events import NULL_EMITTER

    result = recover(data_dir, genesis_state, fsync=fsync, metrics=metrics)
    store = DiskStore(
        data_dir,
        snapshot_interval=snapshot_interval,
        compact=compact,
        fsync=fsync,
        metrics=metrics,
        emitter=emitter if emitter is not None else NULL_EMITTER,
        crash=crash,
    )
    if result.fresh:
        store.initialize(
            encode_header(result.chain.genesis.header),
            genesis_state,
            serve=serve,
        )
    else:
        assert result.log is not None
        store.adopt(result.manifest, result.log)
    result.chain.attach_store(store)
    return result.chain, store, result
