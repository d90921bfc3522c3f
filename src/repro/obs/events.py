"""Structured, schema-versioned JSONL telemetry events.

The live-telemetry layer (:mod:`repro.obs.live`) narrates what a
long-running node does as an append-only stream of one-line JSON records
written next to the :class:`~repro.store.backend.DiskStore`.  Each record
carries a fixed envelope::

    {"v": 1, "seq": 17, "ts": 204.0, "kind": "block_sealed", ...fields}

* ``v`` — :data:`EVENT_SCHEMA_VERSION`; consumers must refuse newer
  majors rather than misread them.
* ``seq`` — monotonically increasing per emitter, never reused across
  rotation, so a scrape can detect gaps.
* ``ts`` — the **simulated** clock (header-timestamp seconds) by
  default, which is what makes same-seed event streams byte-identical;
  a ``wall`` field is added only when the wall-clock sampler is
  explicitly enabled (serve mode diagnostics, never in determinism
  tests).

Two deliberate asymmetries with the block log next door:

* Telemetry is **best-effort**: a full disk or a torn tail must never
  block the node or its recovery.  Write failures flip the emitter into
  a degraded mode that counts drops instead of raising, and
  :func:`read_events` silently ignores a torn final line.
* The store stays **authoritative**: nothing ever replays state from the
  event log.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventEmitter",
    "NullEmitter",
    "NULL_EMITTER",
    "JsonlEventLog",
    "read_events",
    "iter_event_files",
]

#: Bump on any envelope change; consumers refuse records from the future.
EVENT_SCHEMA_VERSION = 1

#: Every kind the node emits.  Emitting an unknown kind is a programming
#: error (caught eagerly so a typo cannot silently fork the schema).
EVENT_KINDS = frozenset(
    {
        "serve_start",
        "serve_stop",
        "block_sealed",
        "proposal_abort",
        "proposal_retry",
        "serial_fallback",
        "worker_fault",
        "store_append",
        "store_snapshot",
        "store_compaction",
        "store_fsync_off",
        "recovery",
        "fault_injected",
        "telemetry_rotate",
        "telemetry_degraded",
    }
)


class EventEmitter(Protocol):
    """What instrumented components need from a telemetry sink."""

    enabled: bool

    def emit(self, kind: str, ts: float, **fields: Any) -> None:
        """Record one event (best-effort; must never raise)."""
        ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class NullEmitter:
    """The free default: every call is a no-op.

    Instrumentation sites guard on :attr:`enabled` (the same pattern as
    :class:`~repro.obs.tracer.NullTracer`) so the production path pays
    one attribute read, keeping the <3% observability-overhead bound.
    """

    enabled: bool = False

    def emit(self, kind: str, ts: float, **fields: Any) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


#: Shared do-nothing emitter; the default everywhere.
NULL_EMITTER = NullEmitter()


class JsonlEventLog:
    """Append-only JSONL event sink with size-based rotation.

    Records are serialised with sorted keys and compact separators so the
    byte stream of a fixed-seed run is reproducible.  Rotation renames
    the live file to ``<path>.1`` (shifting older generations up) once it
    exceeds ``rotate_bytes``; at most ``max_files`` rotated generations
    are kept.  ``seq`` keeps counting across rotations.

    All I/O failures degrade rather than raise: the first failure emits
    nothing further, and :attr:`dropped` counts the records lost.
    """

    enabled: bool = True

    def __init__(
        self,
        path: str,
        *,
        rotate_bytes: int = 16 * 1024 * 1024,
        max_files: int = 4,
        wall_clock: Optional[Callable[[], float]] = None,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.max_files = max_files
        self.wall_clock = wall_clock
        self.fsync = fsync
        self.seq = 0
        self.dropped = 0
        self.rotations = 0
        self.failed = False
        self._size = 0
        self._fh: Optional[Any] = None
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._heal_torn_tail()
            self.seq = self._resume_seq()
            self._fh = open(path, "a", encoding="utf-8")  # noqa: SIM115 - long-lived
            self._size = self._fh.tell()
        except OSError:
            self._degrade()

    # ------------------------------------------------------------------ #

    def _heal_torn_tail(self) -> None:
        """Drop a half-written final line left by a crash.

        Appending after a torn record would fuse it with the next event
        into one undecodable mid-file line, so a resumed emitter truncates
        back to the last complete record before writing anything.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb+") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if size == 0:
                return
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            data = fh.read()
            keep = data.rfind(b"\n") + 1  # 0 when no newline at all
            fh.truncate(keep)

    def _resume_seq(self) -> int:
        """Continue ``seq`` past the existing file's last record.

        Keeps the sequence strictly increasing across kill-and-resume so
        readers can still use gaps as a drop signal.  Any unreadable tail
        just restarts the count — telemetry is best-effort.
        """
        if not os.path.exists(self.path):
            return 0
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - 65536))
                tail = fh.read().decode("utf-8", errors="replace")
            lines = [line for line in tail.split("\n") if line]
            if not lines:
                return 0
            return int(json.loads(lines[-1]).get("seq", -1)) + 1
        except (OSError, ValueError, json.JSONDecodeError):
            return 0

    def _degrade(self) -> None:
        """Telemetry is best-effort: stop writing, keep the node alive."""
        self.failed = True
        self.enabled = False
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def emit(self, kind: str, ts: float, **fields: Any) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if self._fh is None:
            self.dropped += 1
            return
        record: Dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": ts,
            "kind": kind,
        }
        record.update(fields)
        if self.wall_clock is not None:
            record["wall"] = self.wall_clock()
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError):
            self.dropped += 1
            self._degrade()
            return
        self.seq += 1
        self._size += len(line.encode("utf-8"))
        if self.rotate_bytes > 0 and self._size >= self.rotate_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Shift generations up (``path.1`` newest) and reopen fresh."""
        assert self._fh is not None
        try:
            self._fh.close()
            self._fh = None
            oldest = f"{self.path}.{self.max_files}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for gen in range(self.max_files - 1, 0, -1):
                src = f"{self.path}.{gen}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{gen + 1}")
            if self.max_files > 0:
                os.replace(self.path, f"{self.path}.1")
            else:
                os.remove(self.path)
            self._fh = open(  # noqa: SIM115 - long-lived
                self.path, "a", encoding="utf-8"
            )
            self._size = 0
            self.rotations += 1
        except OSError:
            self._degrade()

    def flush(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
            except OSError:
                self._degrade()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_events(path: str, *, strict: bool = False) -> List[Dict[str, Any]]:
    """Parse a JSONL event file, tolerating a torn final line.

    A crash can leave a half-written last record; that tail is dropped
    (telemetry is best-effort) unless ``strict``.  A record from a newer
    schema major raises ``ValueError`` either way — misreading is worse
    than failing.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1 and not strict:
                break  # torn tail: the crash ate the trailing newline
            raise ValueError(f"{path}:{index + 1}: undecodable event line")
        if record.get("v", 0) > EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"{path}:{index + 1}: event schema v{record.get('v')} is "
                f"newer than supported v{EVENT_SCHEMA_VERSION}"
            )
        events.append(record)
    return events


def iter_event_files(path: str, max_files: int = 16) -> Iterator[str]:
    """Yield rotated generations oldest-first, then the live file."""
    for gen in range(max_files, 0, -1):
        candidate = f"{path}.{gen}"
        if os.path.exists(candidate):
            yield candidate
    if os.path.exists(path):
        yield path
