"""The store manifest: the single source of truth for what is durable.

``manifest.json`` records the last durable ``(block height, state root)``,
how many log bytes that covers, and which snapshot file recovery should
start from.  It is the *commit point* of the storage engine: a block
counts as durable once a manifest naming it is in one of the file's two
:data:`SLOT`-byte slots.  Like LMDB's double meta page, the file is
created once by :func:`~repro.store.atomic.publish`; after that
:meth:`Manifest.write` puts the next sequence number into the *older*
slot with one ``pwrite`` (and one ``fsync``), so the newest slot is never
the one being written and a commit renames and frees nothing.  A slot is
one canonical JSON document, padded with spaces to a final ``\n``,
carrying its sequence number and a SHA-256 self-checksum.
:meth:`Manifest.load` takes the valid slot with the higher sequence
number, so a torn or corrupt slot loses to the other, at most one commit
older (recovery replays the log past it); two bad slots raise
:class:`~repro.store.errors.ManifestError`.  A writer about to delete a
file the older slot may name writes both slots (``both=True``).  A legacy
single-document file (version 1) loads as sequence 0, and its first write
replaces it with the two slots.  Cross-checks against the actual files
(log shorter than ``log_bytes``, missing snapshot) live in
:mod:`repro.store.recovery` and surface as
:class:`~repro.store.errors.StaleManifestError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.store.atomic import publish
from repro.store.errors import ManifestError

__all__ = ["SnapshotRef", "Manifest", "MANIFEST_NAME", "SLOT", "manifest_path"]

MANIFEST_NAME = "manifest.json"
FORMAT = "repro-store-manifest"
VERSION = 2
LEGACY_VERSION = 1
#: bytes per slot; the file is two of them
SLOT = 4096


def manifest_path(data_dir: str) -> str:
    return os.path.join(data_dir, MANIFEST_NAME)


@dataclass(frozen=True)
class SnapshotRef:
    """Pointer to one durable state-snapshot file."""

    file: str
    height: int
    state_root: str  # hex
    sha256: str  # digest of the snapshot file's bytes
    header: str  # hex of the canonical header at ``height`` (codec encoding)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "height": self.height,
            "stateRoot": self.state_root,
            "sha256": self.sha256,
            "header": self.header,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SnapshotRef":
        try:
            return cls(
                file=str(doc["file"]),
                height=int(doc["height"]),
                state_root=str(doc["stateRoot"]),
                sha256=str(doc["sha256"]),
                header=str(doc["header"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ManifestError(f"bad snapshot reference: {exc}") from exc


@dataclass
class Manifest:
    """In-memory form of ``manifest.json``."""

    height: int = 0
    head_hash: str = ""
    state_root: str = ""
    #: the live log's filename — compaction writes a new generation file
    #: and repoints this *before* deleting the old one, so the manifest
    #: always references exactly one intact log
    log_file: str = "blocks.log"
    #: height of the first block still present in the log (rises as
    #: compaction drops records at and below the snapshot horizon)
    log_start_height: int = 1
    #: durable log length in bytes — everything past it is a crash tail
    log_bytes: int = 0
    snapshot: Optional[SnapshotRef] = None
    #: True only when written by a graceful shutdown (seal); an open store
    #: always rewrites it False first
    clean: bool = True
    #: opaque serve-session parameters (seed, txs per block, …) — resuming
    #: with different values is refused (ConfigMismatchError)
    serve: Dict[str, Any] = field(default_factory=dict)
    #: sequence number of this manifest's newest slot on disk, which sits
    #: at slot ``seq % 2``; 0 = none yet (a new manifest, or one loaded
    #: from a legacy file), and the next write publishes both slots
    seq: int = field(default=0, compare=False)

    # ------------------------------------------------------------------ #

    def _body(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "version": VERSION,
            "height": self.height,
            "headHash": self.head_hash,
            "stateRoot": self.state_root,
            "logFile": self.log_file,
            "logStartHeight": self.log_start_height,
            "logBytes": self.log_bytes,
            "snapshot": self.snapshot.to_doc() if self.snapshot else None,
            "clean": self.clean,
            "serve": self.serve,
        }

    @staticmethod
    def _checksum(body: Dict[str, Any]) -> str:
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _slot(self, seq: int) -> bytes:
        """This manifest as slot ``seq % 2`` holds it under sequence ``seq``."""
        body = self._body()
        body["seq"] = seq
        body["checksum"] = self._checksum(body)
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if len(text) >= SLOT:
            raise ManifestError(f"a {len(text)}-byte manifest does not fit its {SLOT}-byte slot")
        return (text.ljust(SLOT - 1) + "\n").encode("ascii")

    def write(self, data_dir: str, *, fsync: bool = True, both: bool = False) -> str:
        """Commit this manifest: overwrite the older slot in place (and,
        with ``both``, then the other one).  A manifest with no slot on disk
        yet publishes the whole two-slot file instead."""
        path = manifest_path(data_dir)
        if self.seq == 0:
            publish(path, [self._slot(2), self._slot(1)], fsync=fsync)
            self.seq = 2
            return path
        fd = os.open(path, os.O_WRONLY)
        try:
            for _ in range(2 if both else 1):
                seq = self.seq + 1
                os.pwrite(fd, self._slot(seq), SLOT * (seq % 2))
                if fsync:
                    os.fsync(fd)
                self.seq = seq
        finally:
            os.close(fd)
        return path

    @classmethod
    def load(cls, data_dir: str) -> "Manifest":
        """Read ``manifest.json`` and return its newest valid slot; raises
        :class:`ManifestError` when no slot is valid."""
        path = manifest_path(data_dir)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        if len(raw) != 2 * SLOT:
            return cls._parse(raw, path, LEGACY_VERSION)
        valid: List[Manifest] = []
        errors: List[str] = []
        for index in (0, 1):
            try:
                manifest = cls._parse(raw[index * SLOT : (index + 1) * SLOT], path, VERSION)
                if manifest.seq % 2 != index:
                    raise ManifestError(f"slot {index} of {path} holds sequence {manifest.seq}")
                valid.append(manifest)
            except ManifestError as exc:
                errors.append(str(exc))
        if not valid:
            raise ManifestError(f"both manifest slots are bad: {'; '.join(errors)}")
        return max(valid, key=lambda manifest: manifest.seq)

    @classmethod
    def _parse(cls, raw: bytes, path: str, version: int) -> "Manifest":
        """One document (a slot, or a legacy file) → a verified ``Manifest``."""
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # a non-UTF-8 byte is a ValueError, too deep a nesting a RecursionError
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise ManifestError(f"{path} is not a store manifest")
        if doc.get("version") != version:
            raise ManifestError(f"unsupported manifest version {doc.get('version')!r}")
        recorded = doc.pop("checksum", None)
        if recorded != cls._checksum(doc):
            raise ManifestError(f"manifest checksum mismatch in {path}")
        snapshot_doc = doc.get("snapshot")
        try:
            return cls(
                height=int(doc["height"]),
                head_hash=str(doc["headHash"]),
                state_root=str(doc["stateRoot"]),
                log_file=str(doc["logFile"]),
                log_start_height=int(doc["logStartHeight"]),
                log_bytes=int(doc["logBytes"]),
                snapshot=(
                    SnapshotRef.from_doc(snapshot_doc) if snapshot_doc else None
                ),
                clean=bool(doc["clean"]),
                serve=dict(doc.get("serve") or {}),
                seq=int(doc["seq"]) if version == VERSION else 0,
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ManifestError(f"malformed manifest {path}: {exc}") from exc
