"""Deterministic storage faults: crash points and data-dir tampering.

Two complementary tools for proving the durability story in
:mod:`repro.store`:

* :class:`CrashPlan` — *process-level* crash injection.  A plan names
  exact points in the commit path (``after_append:7`` = die right after
  block 7's log record is durable but before the manifest advances;
  ``torn_append:7`` = die mid-write, leaving a torn record on disk) and
  the store fires :meth:`CrashPlan.fire` at each hook.  Firing calls
  ``os._exit`` — no atexit handlers, no buffered flushes — the closest a
  test can get to ``kill -9`` while still choosing the byte where death
  lands.  Plans parse from ``REPRO_STORE_CRASH`` so the kill-and-resume
  tests can drive a real ``python -m repro serve`` subprocess.

* Tamper helpers — functions that damage a *closed* data dir the way
  real-world decay does (a flipped byte mid-log, a corrupted snapshot, a
  lost fsync window), so the recovery tests can assert each is detected
  with its typed error, never silently absorbed.

Everything is seeded through the same keyed-RNG scheme as
:mod:`repro.faults.injector`: the damage for a given (seed, site) is
identical on every run and platform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.injector import _keyed_rng

__all__ = [
    "CRASH_EVENTS",
    "CrashPlan",
    "flip_log_byte",
    "tear_log_tail",
    "corrupt_snapshot_file",
    "lose_fsync_window",
    "corrupt_manifest",
]

CRASH_ENV = "REPRO_STORE_CRASH"
CRASH_SEED_ENV = "REPRO_STORE_CRASH_SEED"

#: Exit code a fired crash point dies with (mirrors SIGKILL's 128+9 so
#: test harnesses treat planned and real kills identically).
CRASH_EXIT_CODE = 137

#: Every hook the DiskStore commit path exposes, in firing order.
CRASH_EVENTS = (
    "torn_append",  # die mid-record-write (leaves a torn tail)
    "after_append",  # record durable, manifest not yet advanced
    "after_snapshot",  # snapshot file durable, manifest not yet advanced
    "after_manifest",  # the full commit point for this block
    "in_compaction",  # new generation durable, manifest not yet repointed
    "before_seal",  # graceful-shutdown seal about to run
)


@dataclass(frozen=True)
class CrashPlan:
    """A deterministic set of ``(event, height)`` crash points."""

    points: Tuple[Tuple[str, int], ...]
    seed: int = 0
    exit_code: int = CRASH_EXIT_CODE

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "CrashPlan":
        """Parse ``"after_append:7,torn_append:12"`` into a plan."""
        points = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            event, _, height = chunk.partition(":")
            if event not in CRASH_EVENTS:
                raise ValueError(
                    f"unknown crash event {event!r} (want one of {CRASH_EVENTS})"
                )
            points.append((event, int(height)))
        return cls(points=tuple(points), seed=seed)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["CrashPlan"]:
        env = os.environ if environ is None else environ
        spec = env.get(CRASH_ENV, "")
        if not spec:
            return None
        return cls.parse(spec, seed=int(env.get(CRASH_SEED_ENV, "0")))

    # ------------------------------------------------------------------ #

    def is_armed(self, event: str, height: int) -> bool:
        return (event, height) in self.points

    def tear_bytes(self, height: int, record_len: int) -> Optional[int]:
        """How many bytes of block ``height``'s record survive a torn write.

        ``None`` when no ``torn_append`` point is armed for this height;
        otherwise a seeded position in ``[1, record_len)`` — strictly
        short of a full record, so the tail is provably torn.
        """
        if not self.is_armed("torn_append", height):
            return None
        rng = _keyed_rng(self.seed, "torn_append", height)
        return rng.randrange(1, max(2, record_len))

    def fire(self, event: str, height: int) -> None:
        """Die instantly (``os._exit``) if this point is armed."""
        if self.is_armed(event, height):
            os._exit(self.exit_code)


# --------------------------------------------------------------------------- #
# data-dir tampering (closed stores only)
# --------------------------------------------------------------------------- #

_LOG_NAME = "blocks.log"


def _log_path(data_dir: str) -> str:
    """The live log file — resolved via the manifest (compaction renames it)."""
    from repro.store.errors import ManifestError
    from repro.store.manifest import Manifest

    name = _LOG_NAME
    try:
        name = Manifest.load(data_dir).log_file
    except (OSError, ManifestError):
        pass
    return os.path.join(data_dir, name)


def flip_log_byte(data_dir: str, *, seed: int = 0, offset: Optional[int] = None) -> int:
    """Flip one byte in the block log's interior; returns the offset.

    The seeded default lands in the middle half of the file, well clear
    of both the magic and the final record, so recovery must classify it
    as interior corruption (:class:`BlockLogCorruptError`), not a torn
    tail.
    """
    path = _log_path(data_dir)
    with open(path, "r+b") as fh:
        data = fh.read()
        if offset is None:
            rng = _keyed_rng(seed, "flip_log_byte", len(data))
            offset = rng.randrange(len(data) // 4, len(data) // 2)
        fh.seek(offset)
        original = data[offset]
        fh.write(bytes([original ^ 0xFF]))
    return offset


def tear_log_tail(data_dir: str, *, seed: int = 0) -> int:
    """Truncate the log mid-final-record; returns the new length.

    Simulates the on-disk state of a crash during the last append: the
    record's length prefix promises more bytes than exist.
    """
    path = _log_path(data_dir)
    size = os.path.getsize(path)
    rng = _keyed_rng(seed, "tear_log_tail", size)
    cut = rng.randrange(1, 9)  # shave 1-8 bytes off the final record
    new_size = max(8, size - cut)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


def corrupt_snapshot_file(data_dir: str, *, seed: int = 0) -> str:
    """Flip one byte inside the snapshot the manifest points at.

    Returns the tampered filename.  Recovery must fail its digest check
    (:class:`SnapshotCorruptError`).
    """
    from repro.store.manifest import Manifest

    snapshot = Manifest.load(data_dir).snapshot
    if snapshot is None:
        raise ValueError("manifest has no snapshot to corrupt")
    path = os.path.join(data_dir, snapshot.file)
    with open(path, "r+b") as fh:
        data = fh.read()
        rng = _keyed_rng(seed, "corrupt_snapshot", len(data))
        offset = rng.randrange(len(data) // 4, 3 * len(data) // 4)
        fh.seek(offset)
        fh.write(bytes([data[offset] ^ 0xFF]))
    return snapshot.file


def lose_fsync_window(data_dir: str, *, records: int = 1) -> int:
    """Drop the last ``records`` whole log records the manifest covers.

    Simulates a missing-fsync window: the manifest says those bytes were
    durable, the platters say otherwise.  Recovery must refuse with
    :class:`StaleManifestError` — replaying a shorter log than the
    manifest promises would silently rewind the chain.  Returns the new
    log length.
    """
    # Walk the record framing (8-byte magic, 8-byte record headers) to
    # find whole-record boundaries without importing the store package.
    import struct

    path = _log_path(data_dir)
    with open(path, "rb") as fh:
        data = fh.read()
    boundaries = []
    pos = 8
    while pos + 8 <= len(data):
        length = struct.unpack_from("<I", data, pos)[0]
        end = pos + 8 + length
        if end > len(data):
            break
        boundaries.append(pos)
        pos = end
    if len(boundaries) < records:
        raise ValueError(f"log has only {len(boundaries)} records")
    new_size = boundaries[-records]
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


def corrupt_manifest(data_dir: str, *, slots: str = "both") -> None:
    """Invalidate the self-checksum (one flipped hex digit) of both manifest
    slots — recovery must raise :class:`ManifestError` — or of the
    ``"newest"`` only, so recovery falls back to the other, one commit older.
    """
    from repro.store.manifest import SLOT, Manifest, manifest_path

    if slots not in ("both", "newest"):
        raise ValueError(f"slots must be 'both' or 'newest', not {slots!r}")
    indices = (0, 1) if slots == "both" else (Manifest.load(data_dir).seq % 2,)
    marker = b'"checksum":"'
    with open(manifest_path(data_dir), "r+b") as fh:
        data = bytearray(fh.read())
        for index in indices:
            at = data.find(marker, index * SLOT, (index + 1) * SLOT)
            if at < 0:
                raise ValueError(f"manifest slot {index} carries no checksum to corrupt")
            at += len(marker)
            data[at] = ord("0") if data[at] != ord("0") else ord("1")
        fh.seek(0)
        fh.write(data)
