"""The store manifest: the single source of truth for what is durable.

``manifest.json`` records the last durable ``(block height, state root)``,
how many log bytes that covers, and which snapshot file recovery should
start from.  It is the *commit point* of the storage engine: a block
counts as durable only once a manifest naming it has been atomically
renamed into place (write temp → fsync → ``os.replace`` → fsync dir).

The document carries a SHA-256 self-checksum over its canonical body; a
manifest that fails it raises :class:`~repro.store.errors.ManifestError`
rather than being trusted.  Cross-checks against the actual files (log
shorter than ``log_bytes``, missing snapshot) live in
:mod:`repro.store.recovery` and surface as
:class:`~repro.store.errors.StaleManifestError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.store.atomic import publish
from repro.store.errors import ManifestError

__all__ = ["SnapshotRef", "Manifest", "MANIFEST_NAME", "manifest_path"]

MANIFEST_NAME = "manifest.json"
FORMAT = "repro-store-manifest"
VERSION = 1


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

    def write(self, data_dir: str, *, fsync: bool = True) -> str:
        """Atomically publish this manifest (temp file + rename)."""
        body = self._body()
        body["checksum"] = self._checksum(self._body())
        path = manifest_path(data_dir)
        text = json.dumps(body, indent=1, sort_keys=True) + "\n"
        publish(path, [text.encode("utf-8")], fsync=fsync)
        return path

    @classmethod
    def load(cls, data_dir: str) -> "Manifest":
        """Read and verify ``manifest.json``; raises :class:`ManifestError`."""
        path = manifest_path(data_dir)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise
        except (OSError, ValueError, RecursionError) as exc:
            # a non-UTF-8 byte is a ValueError, too deep a nesting a RecursionError
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise ManifestError(f"{path} is not a store manifest")
        if doc.get("version") != VERSION:
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
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ManifestError(f"malformed manifest {path}: {exc}") from exc
