"""State-snapshot files: periodic full-world checkpoints.

A snapshot file is the JSON document
:func:`repro.state.serialize.snapshot_to_json` produces (every account's
balance/nonce/code/storage plus the recorded state root), published
like the manifest, atomically (:func:`repro.store.atomic.publish`).
Integrity is double-checked at load time:

* the file's SHA-256 must match the digest the manifest recorded
  (catches bit rot and tampering — :class:`SnapshotCorruptError`);
* the rebuilt trie's state root must match both the document's own
  recorded root and the header root the manifest pinned for that height
  (catches a *valid-looking but wrong* snapshot).
"""

from __future__ import annotations

import hashlib
import os
from typing import Tuple

from repro.common.hashing import Hash32
from repro.state.serialize import (
    SnapshotFormatError,
    snapshot_from_json,
    snapshot_to_json,
    text_digest,
)
from repro.state.statedb import StateSnapshot
from repro.store.atomic import publish
from repro.store.errors import SnapshotCorruptError

__all__ = ["snapshot_filename", "write_snapshot", "load_snapshot"]


def snapshot_filename(height: int) -> str:
    return f"snapshot_{height:08d}.json"


def write_snapshot(
    data_dir: str,
    height: int,
    snapshot: StateSnapshot,
    *,
    fsync: bool = True,
) -> Tuple[str, str]:
    """Atomically write the snapshot file for ``height``.

    Returns ``(filename, sha256)`` for the manifest's snapshot reference.
    """
    name = snapshot_filename(height)
    text = snapshot_to_json(snapshot, note=f"height={height}")
    publish(os.path.join(data_dir, name), [text.encode("utf-8")], fsync=fsync)
    return name, text_digest(text)


def load_snapshot(
    data_dir: str,
    filename: str,
    *,
    expect_sha256: str,
    expect_root: Hash32,
) -> StateSnapshot:
    """Load and fully verify one snapshot file.

    Raises :class:`SnapshotCorruptError` on any mismatch — digest, JSON
    shape, rebuilt root vs the document, or rebuilt root vs the root the
    manifest expects for that height.
    """
    path = os.path.join(data_dir, filename)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"unreadable snapshot {path}: {exc}") from exc
    # digest the raw bytes *before* any decoding: a flipped byte must fail
    # here even if it also breaks the UTF-8 stream
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expect_sha256:
        raise SnapshotCorruptError(
            f"snapshot {filename} digest mismatch: "
            f"manifest records {expect_sha256[:16]}…, file hashes {actual[:16]}…"
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotCorruptError(f"snapshot {filename}: {exc}") from exc
    try:
        snapshot = snapshot_from_json(text, verify_root=True)
    except SnapshotFormatError as exc:
        raise SnapshotCorruptError(f"snapshot {filename}: {exc}") from exc
    if snapshot.state_root() != expect_root:
        raise SnapshotCorruptError(
            f"snapshot {filename} rebuilds to root "
            f"{snapshot.state_root().hex()[:16]}…, manifest expects "
            f"{expect_root.hex()[:16]}…"
        )
    return snapshot
