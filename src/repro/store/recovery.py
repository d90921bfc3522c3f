"""Restart-from-disk recovery: rebuild a verified chain from a data dir.

The recovery state machine (see docs/ARCHITECTURE.md §13)::

    no manifest ──────────────────────────────→ FRESH (genesis)
    manifest loads + self-checksum ok?  no ───→ ManifestError
    log exists, len(log) ≥ manifest.logBytes?
                                        no ───→ StaleManifestError
    snapshot digest + rebuilt root ok?  no ───→ SnapshotCorruptError
    for each log record above the snapshot horizon:
        crc ok?        torn at/above manifest.logBytes → heal: truncate,
                           but only after the cross-checks below pass
                       below manifest.logBytes → BlockLogCorruptError
                           (file left untouched — evidence preserved)
        parent known?  no → skip (fork loser below horizon; recorded)
        re-execute; the applier's block check passes?
                                        no ───→ ReplayDivergenceError
        chain.add_block(...)

Every replayed block is *re-executed serially* and put through the
validator's own block check (:meth:`Applier.verify_block`): state root,
receipts root, gas total and logs bloom against the stored header, and the
logged receipts against the re-derived ones — recovery trusts the log's
bytes only after execution re-derives exactly what they hold.  That is the
same differential standard ``repro.check`` enforces across backends,
applied at the durability boundary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.chain.block import Block, build_receipts
from repro.chain.blockchain import Blockchain, ChainError
from repro.common.types import hash32_from_hex
from repro.core.applier import Applier
from repro.core.baselines import SerialExecutor
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.state.statedb import StateSnapshot
from repro.store.blocklog import BlockLog
from repro.store.codec import decode_header
from repro.store.errors import (
    BlockLogCorruptError,
    ReplayDivergenceError,
    StaleManifestError,
    StoreError,
    TornTailError,
)
from repro.store.manifest import Manifest, manifest_path
from repro.store.snapshots import load_snapshot

__all__ = ["RecoveryResult", "recover"]


@dataclass
class RecoveryResult:
    """What recovery rebuilt and everything it noticed on the way."""

    chain: Blockchain
    manifest: Manifest
    log: Optional[BlockLog]
    #: True when the data dir was empty and the chain started from genesis.
    fresh: bool
    #: height the replay started from (snapshot height, or 0).
    base_height: int
    #: blocks re-executed and re-verified from the log tail.
    replayed: int
    #: wall-clock recovery time in microseconds.
    recovery_us: float = 0.0
    #: healed anomalies (torn-tail truncations) — recovery continued.
    healed: List[str] = field(default_factory=list)
    #: records skipped with a reason (fork losers below the snapshot
    #: horizon, duplicates) — recorded, never silently dropped.
    skipped: List[str] = field(default_factory=list)

    def summary(self) -> str:
        head = self.chain.head
        parts = [
            f"height={head.number}",
            f"root={head.header.state_root.hex()[:12]}…",
            f"replayed={self.replayed}",
            f"base={self.base_height}",
        ]
        if self.fresh:
            parts.append("fresh")
        if self.healed:
            parts.append(f"healed={len(self.healed)}")
        if self.skipped:
            parts.append(f"skipped={len(self.skipped)}")
        return "recovery: " + " ".join(parts)


def _base_from_manifest(
    data_dir: str,
    manifest: Manifest,
    genesis_state: Optional[StateSnapshot],
) -> Tuple[Blockchain, int]:
    """Rebuild the chain's base (snapshot checkpoint or genesis)."""
    ref = manifest.snapshot
    if ref is None:
        if genesis_state is None:
            raise StaleManifestError(
                "manifest has no snapshot and no genesis state was supplied"
            )
        return Blockchain(genesis_state), 0

    expect_root = hash32_from_hex(ref.state_root)
    state = load_snapshot(
        data_dir,
        ref.file,
        expect_sha256=ref.sha256,
        expect_root=expect_root,
        base=genesis_state,
    )
    header = decode_header(bytes.fromhex(ref.header))
    if header.number != ref.height:
        raise StaleManifestError(
            f"snapshot header is for height {header.number}, "
            f"manifest records {ref.height}"
        )
    if header.state_root != state.state_root():
        raise StaleManifestError(
            f"snapshot {ref.file} root does not match its pinned header"
        )
    if ref.height == 0:
        chain = Blockchain(state)
        if chain.genesis.header.hash != header.hash:
            raise StaleManifestError(
                "genesis snapshot rebuilds to a different genesis header"
            )
        return chain, 0
    return Blockchain.from_checkpoint(header, state), ref.height


def recover(
    data_dir: str,
    genesis_state: Optional[StateSnapshot] = None,
    *,
    fsync: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> RecoveryResult:
    """Rebuild a verified :class:`Blockchain` from ``data_dir``.

    ``genesis_state`` seeds a fresh chain when the dir is empty, is the
    fallback base when a manifest carries no snapshot, and is the state a
    snapshot's tries are rebuilt over (only what changed since genesis is
    re-hashed; the roots are checked all the same).  The returned
    chain has **no store attached** — callers wire one up afterwards
    (see :func:`repro.store.open_store`, which owns that handoff).

    Raises the typed :mod:`repro.store.errors` hierarchy on any damage a
    crash cannot explain; heals (and records) the damage one can.
    """
    started = time.perf_counter()

    if not os.path.exists(manifest_path(data_dir)):
        if genesis_state is None:
            raise StoreError(
                f"{data_dir} has no manifest and no genesis state was supplied"
            )
        result = RecoveryResult(
            chain=Blockchain(genesis_state),
            manifest=Manifest(),
            log=None,
            fresh=True,
            base_height=0,
            replayed=0,
        )
        result.recovery_us = (time.perf_counter() - started) * 1e6
        _record_metrics(metrics, result)
        return result

    manifest = Manifest.load(data_dir)
    log_path = os.path.join(data_dir, manifest.log_file)
    if not os.path.exists(log_path):
        raise StaleManifestError(
            f"manifest references missing log {manifest.log_file}"
        )
    actual = os.path.getsize(log_path)
    if actual < manifest.log_bytes:
        raise StaleManifestError(
            f"log holds {actual} bytes but the manifest recorded "
            f"{manifest.log_bytes} as durable — a lost fsync window; "
            "replaying would silently rewind the chain"
        )

    chain, base_height = _base_from_manifest(data_dir, manifest, genesis_state)

    log = BlockLog(log_path, fsync=fsync)
    serial = SerialExecutor()
    replayed = 0
    healed: List[str] = []
    skipped: List[str] = []
    torn: Optional[TornTailError] = None
    try:
        for offset, block in log.scan():
            replayed += _replay_one(chain, serial, block, base_height, skipped)
    except TornTailError as exc:
        if exc.offset < manifest.log_bytes:
            # damage strictly below the manifest's durable horizon cannot
            # be a crash tail (those bytes were fsynced before the
            # manifest advanced) — surface it with the file untouched so
            # the evidence survives for manual forensics
            raise BlockLogCorruptError(
                "corruption below the manifest's durable horizon "
                f"({manifest.log_bytes} bytes): {exc}",
                offset=exc.offset,
            ) from exc
        torn = exc

    if chain.height() < manifest.height:
        raise StaleManifestError(
            f"replay reached height {chain.height()} but the manifest "
            f"recorded {manifest.height} as durable"
        )
    # the log may run *past* the manifest (a crash tail appended before the
    # next manifest advance) — those blocks are verified by re-execution and
    # kept; but the block the manifest names must be exactly where it says
    if manifest.head_hash:
        at_height = chain.canonical_hash_at(manifest.height)
        if at_height is None or bytes(at_height).hex() != manifest.head_hash:
            raise StaleManifestError(
                f"replayed chain disagrees with the manifest's recorded "
                f"head at height {manifest.height}"
            )

    # heal (truncate) the torn crash tail only now, after every manifest
    # cross-check has passed — a failed check must leave the log
    # byte-for-byte as it was found
    if torn is not None:
        log.truncate_to(torn.offset)
        healed.append(str(torn))

    result = RecoveryResult(
        chain=chain,
        manifest=manifest,
        log=log,
        fresh=False,
        base_height=base_height,
        replayed=replayed,
        healed=healed,
        skipped=skipped,
    )
    result.recovery_us = (time.perf_counter() - started) * 1e6
    _record_metrics(metrics, result)
    return result


def _replay_one(
    chain: Blockchain,
    serial: SerialExecutor,
    block: Block,
    base_height: int,
    skipped: List[str],
) -> int:
    """Re-execute and insert one logged block; returns 1 if replayed."""
    label = f"block {block.number} {block.hash.hex()[:12]}"
    if block.number <= base_height:
        skipped.append(f"{label}: at or below snapshot horizon {base_height}")
        return 0
    if block.hash in chain:
        skipped.append(f"{label}: duplicate record")
        return 0
    parent_state = chain.state_at(block.header.parent_hash)
    if parent_state is None:
        # a fork loser whose parent fell below the snapshot horizon — it
        # can never become canonical (the snapshot *is* the canonical
        # state at the horizon), so skipping cannot change the head
        skipped.append(f"{label}: parent unknown (below snapshot horizon)")
        return 0
    try:
        block.validate_structure()
    except ValueError as exc:
        raise ReplayDivergenceError(
            f"logged block fails structural checks: {exc}", height=block.number
        ) from exc
    try:
        sres = serial.execute_block(block, parent_state)
    except Exception as exc:
        raise ReplayDivergenceError(
            f"logged block does not re-execute: {exc}", height=block.number
        ) from exc
    verdict = Applier().verify_block(
        block, sres.post_state, build_receipts(block.transactions, sres.tx_results)
    )
    if not verdict.accepted:
        raise ReplayDivergenceError(
            f"logged block fails re-execution: {verdict.reason}", height=block.number
        )
    try:
        chain.add_block(block, sres.post_state)
    except ChainError as exc:
        raise ReplayDivergenceError(
            f"replayed block refused by the chain: {exc}", height=block.number
        ) from exc
    return 1


def _record_metrics(
    metrics: Optional[MetricsRegistry], result: RecoveryResult
) -> None:
    metrics = metrics or NULL_METRICS
    metrics.gauge("store.recovery_us").set(result.recovery_us)
    metrics.gauge("store.replay_len").set(float(result.replayed))
    metrics.counter("store.recoveries").inc()
    if result.healed:
        metrics.counter("store.torn_tail_truncations").inc(len(result.healed))
