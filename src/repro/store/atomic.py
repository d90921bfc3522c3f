"""Atomic file publication: the store's one write-temp → fsync → rename →
fsync-directory sequence.

The block log's compaction generations and the snapshot files are published
through :func:`publish`, so a crash leaves either the old file or the complete
new one — never a half-written one under the real name.  The manifest goes
through it only when its two-slot file is created (or converted from the
legacy single document); a block's commit overwrites one slot in place
instead (:mod:`repro.store.manifest`), because a rename frees the replaced
file's blocks, which some file systems make slow.
"""

from __future__ import annotations

import os
from typing import Iterable

__all__ = ["fsync_dir", "publish"]


def fsync_dir(path: str) -> None:
    """fsync the directory so a rename/creation itself is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(path: str, chunks: Iterable[bytes], *, fsync: bool = True) -> None:
    """Make ``path`` hold ``chunks`` concatenated, atomically: they are fully
    written (and fsynced) to ``path + ".tmp"``, which is then renamed over
    ``path``; any remnant of a crashed earlier attempt at the temp name is
    overwritten, never appended to."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_dir(os.path.dirname(path) or ".")
