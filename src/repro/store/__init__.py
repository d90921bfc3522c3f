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

import gc
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
    "GC_GEN0_THRESHOLD",
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


#: The collector's generation-0 threshold for a durable node (CPython's
#: default is 700 net tracked allocations).  The validator keeps every
#: resident block's post-state, so the node is a long-lived, allocation-heavy
#: process, and on the default schedule the collector was the third-largest
#: layer after the EVM and the trie.  Per 24-block ``mainnet`` block loop
#: (``make profile-e2e``, median of three, calibration kernel included):
#:
#:   threshold            700   2 000   5 000   10 000   20 000   100 000
#:   gen0 / gen1 runs   187/17    55/5    13/1      6/0      3/0       0/0
#:   collector ms         116      86      60       23       19         0
#:   of the node's CPU  10.3%    7.6%    5.6%     2.3%     2.0%        0
#:   peak RSS MB         91.2                     91.4     91.4      91.7
#:
#: 10 000 is the knee (``mint-rush``: 5.9% → 0.8%, ``longtail-payments``:
#: 11.0% → 1.9%).  Generations 1 and 2 keep their defaults.  ``gc.freeze()``
#: of the boot heap at the end of this function does not pay on 3.11: alone
#: it took ``mainnet``'s collector from 116 to 91 ms, beside this threshold
#: from 23 to 25 ms.
GC_GEN0_THRESHOLD = 10_000


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

    It is the durable node's boot, so it also sets the collector's schedule
    (:data:`GC_GEN0_THRESHOLD`) for the rest of the process, pool workers
    forked after it included.
    """
    from repro.obs.events import NULL_EMITTER

    gc.set_threshold(GC_GEN0_THRESHOLD, 10, 10)
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
