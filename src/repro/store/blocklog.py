"""The append-only block log.

File layout::

    +----------+----------------------------- ... -+
    | magic 8B | record | record | record |        |
    +----------+----------------------------- ... -+

    record := u32-le payload length | u32-le crc32(payload) | payload

The payload is one block's canonical encoding
(:func:`repro.store.codec.encode_block`).  Appends are
``write → flush → fsync`` before the caller may advance its manifest, so
the durable prefix of the log is always a valid record sequence — the
only damage a crash can do is a *torn tail* (an incomplete final
record), which :meth:`BlockLog.scan` reports as
:class:`~repro.store.errors.TornTailError` and recovery heals by
truncating.  A checksum failure *before* the final record cannot be
crash damage and raises :class:`~repro.store.errors.BlockLogCorruptError`
instead.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
import time
import zlib
from typing import Callable, Iterable, Iterator, Optional, Tuple, TypeVar

from repro.chain.block import Block
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.store.atomic import fsync_dir, publish
from repro.store.codec import decode_block, encode_block
from repro.store.errors import BlockLogCorruptError, TornTailError

__all__ = ["BlockLog", "LOG_MAGIC", "RECORD_HEADER", "IO_US_EDGES", "decode_record", "write_log"]

_T = TypeVar("_T")

LOG_MAGIC = b"RPBLKLG1"
RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: Histogram edges (µs) for ``store.append_us`` / ``store.fsync_us`` —
#: spans SSD sync latencies up to pathological seconds-long stalls.
IO_US_EDGES = (0.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

#: Hard ceiling on one record — a length field above this is corruption,
#: not a block (the biggest benchmark blocks encode to well under 1 MiB).
MAX_RECORD_BYTES = 256 * 1024 * 1024


def _record(payload: bytes) -> bytes:
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def write_log(path: str, payloads: Iterable[bytes], *, fsync: bool = True) -> None:
    """Make ``path`` a log holding exactly ``payloads`` (one ``encode_block``
    result per record), atomically: the records are fully written (and
    fsynced) to a temp file which is then renamed over ``path``, so a crash
    leaves the old file or the new one, and any remnant there from a crashed
    earlier attempt (e.g. a torn, half-written compaction generation) is
    discarded rather than appended to."""
    publish(path, itertools.chain([LOG_MAGIC], map(_record, payloads)), fsync=fsync)


def decode_record(payload: bytes, offset: int, decode: Callable[[bytes], _T]) -> _T:
    """``decode(payload)`` for the record at ``offset``: a payload that
    passed its checksum and still does not decode is corruption."""
    try:
        return decode(payload)
    except ValueError as exc:
        raise BlockLogCorruptError(
            f"record does not decode: {exc}", offset=offset
        ) from exc


class BlockLog:
    """Append-only, length-prefixed, checksummed block storage."""

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.metrics = metrics or NULL_METRICS
        fresh = not os.path.exists(path)
        self._fh: Optional[io.BufferedRandom] = open(  # noqa: SIM115 - long-lived
            path, "a+b"
        )
        if fresh:
            self._fh.write(LOG_MAGIC)
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())
                fsync_dir(os.path.dirname(path) or ".")
        else:
            self._check_magic()
        self._fh.seek(0, os.SEEK_END)

    def _check_magic(self) -> None:
        assert self._fh is not None
        self._fh.seek(0)
        magic = self._fh.read(len(LOG_MAGIC))
        if magic != LOG_MAGIC:
            raise BlockLogCorruptError(
                f"bad log magic {magic!r} in {self.path}", offset=0
            )

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current file length in bytes (the next append offset)."""
        assert self._fh is not None
        return self._fh.seek(0, os.SEEK_END)

    def append(self, block: Block, *, tear_after: Optional[int] = None) -> int:
        """Encode and append one block (see :meth:`append_payload`)."""
        return self.append_payload(encode_block(block), tear_after=tear_after)

    def append_payload(
        self, payload: bytes, *, tear_after: Optional[int] = None
    ) -> int:
        """Append one record holding ``payload`` (an ``encode_block``
        result); returns the offset the record starts at.

        The record is flushed and (by default) fsynced before returning,
        so a successful append means the block is durable.

        ``tear_after`` is the fault-injection hook: write only the first
        ``tear_after`` bytes of the record, make *that* durable, and
        return — simulating the exact on-disk state of a crash mid-append.
        Only the storage-fault tests use it.
        """
        assert self._fh is not None
        metrics = self.metrics
        started = time.perf_counter()
        record = _record(payload)
        offset = self._fh.seek(0, os.SEEK_END)
        if tear_after is not None:
            record = record[: max(0, min(tear_after, len(record) - 1))]
        self._fh.write(record)
        self._fh.flush()
        if self.fsync:
            sync_started = time.perf_counter()
            os.fsync(self._fh.fileno())
            metrics.histogram("store.fsync_us", IO_US_EDGES).observe(
                (time.perf_counter() - sync_started) * 1e6
            )
            metrics.counter("store.fsyncs").inc()
        metrics.histogram("store.append_us", IO_US_EDGES).observe(
            (time.perf_counter() - started) * 1e6
        )
        return offset

    def truncate_to(self, offset: int) -> None:
        """Discard everything at and after ``offset`` (torn-tail healing)."""
        assert self._fh is not None
        if offset < len(LOG_MAGIC):
            raise ValueError(f"cannot truncate into the log magic ({offset})")
        self._fh.truncate(offset)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._fh.seek(0, os.SEEK_END)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BlockLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def scan_records(self, *, start: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(offset, payload)`` for every intact record: framed whole
        and checksum-verified, not decoded.

        Raises :class:`TornTailError` when the final record is incomplete
        or checksum-broken (carries the offset to truncate back to), and
        :class:`BlockLogCorruptError` for damage anywhere earlier.
        """
        assert self._fh is not None
        self._fh.flush()
        with open(self.path, "rb") as fh:
            data = fh.read()
        if data[: len(LOG_MAGIC)] != LOG_MAGIC:
            raise BlockLogCorruptError(
                f"bad log magic in {self.path}", offset=0
            )
        pos = max(start, len(LOG_MAGIC))
        end = len(data)
        while pos < end:
            record_start = pos
            if pos + RECORD_HEADER.size > end:
                raise TornTailError(
                    "record header runs past end of log", offset=record_start
                )
            length, crc = RECORD_HEADER.unpack_from(data, pos)
            pos += RECORD_HEADER.size
            if length > MAX_RECORD_BYTES:
                # an absurd length field: torn if it is the last record's
                # header, corruption otherwise
                raise TornTailError(
                    f"implausible record length {length}", offset=record_start
                )
            if pos + length > end:
                raise TornTailError(
                    "record payload runs past end of log", offset=record_start
                )
            payload = data[pos : pos + length]
            pos += length
            if zlib.crc32(payload) != crc:
                if pos >= end:
                    raise TornTailError(
                        "final record fails checksum", offset=record_start
                    )
                raise BlockLogCorruptError(
                    "record fails checksum", offset=record_start
                )
            yield record_start, payload

    def scan(self, *, start: int = 0) -> Iterator[Tuple[int, Block]]:
        """Yield ``(offset, block)`` for every intact record: decoding over
        :meth:`scan_records`, whose errors it shares; a verified payload
        that does not decode raises :class:`BlockLogCorruptError` too."""
        for offset, payload in self.scan_records(start=start):
            yield offset, decode_record(payload, offset, decode_block)
