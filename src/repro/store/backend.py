"""Storage backends: the persistence seam behind :class:`Blockchain`.

:class:`StorageBackend` is the protocol the chain talks to on every
committed block.  Two implementations:

* :class:`MemoryStore` — does nothing.  The default for every existing
  test, benchmark and figure script; the in-memory behaviour (and cost)
  of the chain is exactly what it was before the storage engine existed.
* :class:`DiskStore` — the durable engine.  Every block appends one
  checksummed record to the block log; every ``snapshot_interval``
  canonical blocks a full state snapshot is written; and the manifest is
  advanced *after* the data it describes is fsynced, by overwriting the
  older of its two slots in place, which makes that slot write the commit
  point:

  ``append (fsync) → [snapshot (fsync)] → manifest slot (pwrite, fsync) → [compact]``

  A crash anywhere in that sequence loses at most the not-yet-manifested
  suffix, which recovery re-derives from the log itself.  Compaction
  rewrites the post-snapshot tail into a *new generation* log file and
  repoints *both* manifest slots before deleting the old one, so even a
  crash mid-compaction leaves one fully intact log on disk, and neither
  slot names a deleted file.  A block that is neither a snapshot nor a
  compaction height renames and deletes nothing.

The ``crash`` hook threads :class:`repro.faults.CrashPlan` through the
commit path — the storage-fault tests die at exact bytes of this
sequence and assert recovery rebuilds an identical chain.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol

from repro.chain.block import Block
from repro.obs.events import NULL_EMITTER, EventEmitter
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.state.statedb import StateSnapshot
from repro.store.blocklog import RECORD_HEADER, BlockLog, decode_record, write_log
from repro.store.codec import decode_block, encode_block, encode_header, peek_block_number
from repro.store.manifest import Manifest, SnapshotRef
from repro.store.snapshots import SNAPSHOT_SUFFIX, write_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.storage import CrashPlan

__all__ = ["StorageBackend", "MemoryStore", "DiskStore", "SNAPSHOT_US_EDGES"]

#: Histogram edges for ``store.snapshot_us`` / ``store.commit_us`` (µs).
SNAPSHOT_US_EDGES = (0.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

DEFAULT_LOG_NAME = "blocks.log"


class StorageBackend(Protocol):
    """What the chain needs from a store (see module docs)."""

    def on_block(self, block: Block, post_state: StateSnapshot, *, head: bool) -> None:
        """Persist one committed block (``head`` = became canonical head)."""
        ...

    def flush(self) -> None:
        """Make everything buffered durable without sealing."""
        ...

    def seal(self) -> None:
        """Graceful shutdown: flush and mark the manifest clean."""
        ...

    def close(self) -> None:
        """Release file handles (no durability implications)."""
        ...


class MemoryStore:
    """The null store — current in-memory behaviour, zero overhead."""

    def on_block(self, block: Block, post_state: StateSnapshot, *, head: bool) -> None:
        return None

    def flush(self) -> None:
        return None

    def seal(self) -> None:
        return None

    def close(self) -> None:
        return None


class DiskStore:
    """Append-only block log + periodic snapshots + two-slot manifest."""

    def __init__(
        self,
        data_dir: str,
        *,
        snapshot_interval: int = 64,
        compact: bool = True,
        fsync: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        emitter: EventEmitter = NULL_EMITTER,
        crash: Optional["CrashPlan"] = None,
    ) -> None:
        self.data_dir = data_dir
        self.snapshot_interval = snapshot_interval
        self.compact = compact
        self.fsync = fsync
        self.metrics = metrics or NULL_METRICS
        self.emitter = emitter
        self.crash = crash
        self.manifest = Manifest()
        self.log: Optional[BlockLog] = None
        self._sealed = False
        #: compaction generation counter (labels per-generation metrics)
        self.generation = 0
        #: wall µs the latest on_block spent end-to-end (SLO store-write feed)
        self.last_commit_us = 0.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def initialize(
        self,
        genesis_header_bytes: bytes,
        genesis_state: StateSnapshot,
        *,
        serve: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Create a fresh data dir: genesis snapshot + open manifest."""
        os.makedirs(self.data_dir, exist_ok=True)
        self.log = BlockLog(
            os.path.join(self.data_dir, DEFAULT_LOG_NAME),
            fsync=self.fsync,
            metrics=self.metrics,
        )
        filename, digest = write_snapshot(
            self.data_dir, 0, genesis_state, fsync=self.fsync
        )
        root_hex = bytes(genesis_state.state_root()).hex()
        self.manifest = Manifest(
            height=0,
            head_hash="",
            state_root=root_hex,
            log_start_height=1,
            log_bytes=self.log.size,
            snapshot=SnapshotRef(
                file=filename,
                height=0,
                state_root=root_hex,
                sha256=digest,
                header=genesis_header_bytes.hex(),
            ),
            clean=False,
            serve=dict(serve or {}),
        )
        self.manifest.write(self.data_dir, fsync=self.fsync)

    def adopt(self, manifest: Manifest, log: BlockLog) -> None:
        """Take over a recovered data dir (recovery already verified it).

        Once both manifest slots name the live log, what a crash stranded
        is deleted: a log generation a killed compaction did not get to
        remove, and the temp file of an interrupted publish."""
        self.manifest = manifest
        self.log = log
        log.metrics = self.metrics  # recovery opened it uninstrumented
        self.manifest.log_bytes = log.size
        self.manifest.clean = False
        self.manifest.write(self.data_dir, fsync=self.fsync, both=True)
        for name in os.listdir(self.data_dir):
            stray_log = name.startswith("blocks") and name.endswith(".log")
            if (stray_log and name != self.manifest.log_file) or name.endswith(".tmp"):
                os.remove(os.path.join(self.data_dir, name))

    # ------------------------------------------------------------------ #
    # the commit path
    # ------------------------------------------------------------------ #

    def on_block(self, block: Block, post_state: StateSnapshot, *, head: bool) -> None:
        if self.log is None:
            raise RuntimeError("DiskStore used before initialize()/adopt()")
        started = time.perf_counter()
        height = block.number
        crash = self.crash

        payload = encode_block(block)

        # 1. block record → log (durable before anything references it)
        if crash is not None and crash.is_armed("torn_append", height):
            record_len = len(payload) + RECORD_HEADER.size
            self.log.append_payload(
                payload, tear_after=crash.tear_bytes(height, record_len)
            )
            crash.fire("torn_append", height)  # always exits here
        before = self.log.size
        self.log.append_payload(payload)
        appended = self.log.size - before
        self.metrics.counter("store.blocks_appended").inc()
        self.metrics.counter("store.bytes_appended").inc(appended)
        if self.emitter.enabled:
            # header timestamps are the simulated clock, so the event
            # stream stays byte-identical across same-seed runs
            self.emitter.emit(
                "store_append",
                float(block.header.timestamp),
                height=height,
                bytes=appended,
                log_bytes=self.log.size,
            )
        if crash is not None:
            crash.fire("after_append", height)

        # 2. periodic canonical-state snapshot
        if (
            head
            and self.snapshot_interval > 0
            and height % self.snapshot_interval == 0
        ):
            snap_started = time.perf_counter()
            filename, digest = write_snapshot(
                self.data_dir, height, post_state, fsync=self.fsync
            )
            self.manifest.snapshot = SnapshotRef(
                file=filename,
                height=height,
                state_root=bytes(post_state.state_root()).hex(),
                sha256=digest,
                header=encode_header(block.header).hex(),
            )
            self.metrics.counter("store.snapshots").inc()
            self.metrics.histogram(
                "store.snapshot_us", SNAPSHOT_US_EDGES
            ).observe((time.perf_counter() - snap_started) * 1e6)
            if self.emitter.enabled:
                self.emitter.emit(
                    "store_snapshot",
                    float(block.header.timestamp),
                    height=height,
                    state_root=bytes(post_state.state_root()).hex()[:16],
                )
            if crash is not None:
                crash.fire("after_snapshot", height)

        # 3. manifest advance — the commit point for this block
        if head:
            self.manifest.height = height
            self.manifest.head_hash = block.hash.hex()
            self.manifest.state_root = block.header.state_root.hex()
        self.manifest.log_bytes = self.log.size
        self.manifest.write(self.data_dir, fsync=self.fsync)
        self.metrics.counter("store.manifest_writes").inc()
        if crash is not None:
            crash.fire("after_manifest", height)

        # 4. drop the log prefix the latest snapshot has superseded
        if (
            self.compact
            and self.manifest.snapshot is not None
            and self.manifest.snapshot.height >= self.manifest.log_start_height
        ):
            self._compact(
                self.manifest.snapshot.height, ts=float(block.header.timestamp)
            )

        self.last_commit_us = (time.perf_counter() - started) * 1e6
        self.metrics.histogram("store.commit_us", SNAPSHOT_US_EDGES).observe(
            self.last_commit_us
        )

    def _compact(self, horizon: int, *, ts: float = 0.0) -> None:
        """Keep only records above ``horizon`` in a new-generation log file.

        Crash-safe: the new generation is built in a temp file and
        published with an atomic rename — a crashed earlier attempt at
        the same horizon may have left a partial (possibly torn) file at
        exactly this path, and appending to it would corrupt the
        generation.  Only once the new file is fully durable are both
        manifest slots repointed at it, and only then are the old
        generation and the superseded snapshots deleted.  Any crash in
        between leaves a manifest whose every slot references one intact
        log.
        """
        assert self.log is not None
        old_path = self.log.path
        # Every record is checksum-verified; one above the horizon is carried
        # forward byte for byte, once it has been seen to decode still.
        survivors = []
        dropped = 0
        for offset, payload in self.log.scan_records():
            if decode_record(payload, offset, peek_block_number) > horizon:
                decode_record(payload, offset, decode_block)
                survivors.append(payload)
            else:
                dropped += 1
        new_name = f"blocks_{horizon:08d}.log"
        new_path = os.path.join(self.data_dir, new_name)
        write_log(new_path, survivors, fsync=self.fsync)
        new_log = BlockLog(new_path, fsync=self.fsync)
        if self.crash is not None:
            # new generation durable, manifest still naming the old one —
            # a retry after this crash must clobber, not extend, new_path
            self.crash.fire("in_compaction", self.manifest.height)
        self.manifest.log_start_height = horizon + 1
        self.manifest.log_bytes = new_log.size
        self.manifest.log_file = new_name
        self.manifest.write(self.data_dir, fsync=self.fsync, both=True)
        self.log.close()
        if os.path.abspath(old_path) != os.path.abspath(new_path):
            os.remove(old_path)
        self.log = new_log
        new_log.metrics = self.metrics
        self.generation += 1
        self.metrics.counter("store.compactions").inc()
        self.metrics.counter("store.compacted_blocks").inc(dropped)
        # per-generation label (flat dotted key via the label helper):
        # store.compacted_blocks.gen.<n>
        self.metrics.counter(
            "store.compacted_blocks", gen=self.generation
        ).inc(dropped)
        if self.emitter.enabled:
            self.emitter.emit(
                "store_compaction",
                ts,
                horizon=horizon,
                generation=self.generation,
                dropped=dropped,
                log_bytes=new_log.size,
            )
        self._prune_snapshots()

    def _prune_snapshots(self) -> None:
        """Delete snapshot files older than the one the manifest references."""
        keep = self.manifest.snapshot.file if self.manifest.snapshot else None
        for name in os.listdir(self.data_dir):
            if (
                name.startswith("snapshot_")
                and name.endswith(SNAPSHOT_SUFFIX)
                and name != keep
            ):
                os.remove(os.path.join(self.data_dir, name))

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        if self.log is not None:
            self.manifest.log_bytes = self.log.size
            self.manifest.write(self.data_dir, fsync=self.fsync)

    def seal(self) -> None:
        """Graceful shutdown: everything durable, manifest marked clean."""
        if self.crash is not None:
            self.crash.fire("before_seal", self.manifest.height)
        if self.log is not None:
            self.manifest.log_bytes = self.log.size
        self.manifest.clean = True
        self.manifest.write(self.data_dir, fsync=self.fsync)
        self._sealed = True

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
            self.log = None
