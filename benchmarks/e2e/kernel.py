"""The frozen calibration kernel: this host's speed, in seconds per fixed work.

Raw wall time is not repeatable on a shared VM: identical back-to-back
runs of the node loop differ by up to 2x because the host's CPU speed
moves in phases that last tens of seconds.  Every timed interval of the
benchmark is therefore bracketed by one run of this kernel, and reported
in *calibrated seconds*::

    calibrated = wall * CAL_REF_S / mean(kernel before, kernel after)

i.e. the time the interval would have taken on a host where the kernel
takes exactly ``CAL_REF_S``.

Rules that keep the yardstick honest:

* stdlib only, and it never imports ``repro`` — an optimisation of the
  program must not speed up its own yardstick;
* the work mix mirrors what the node spends its time on (interpreter
  dispatch over ints/bytes/dicts/lists, a recursive encoder, SHA3 of short
  strings) and touches every page of a 16 MiB working set, so cache and
  TLB contention show up in it too;
* it is frozen: ``kernel_hash()`` (SHA-256 of this file) is written into
  every result file, and ``compare`` refuses to diff results taken with
  different kernels.  Editing this file re-bases every number.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Tuple

__all__ = ["CAL_REF_S", "Kernel", "calibrated", "kernel_hash"]

#: Kernel duration on the reference host — the builder's 2-vCPU VM in its
#: fast phase, so calibrated and raw values agree there when the host is
#: quiet.  Only ratios to it are ever reported.
CAL_REF_S = 0.0086

WORKING_SET_BYTES = 16 * 1024 * 1024
_PAGE = 4096
_MASK64 = (1 << 64) - 1


def _encode(item) -> bytes:
    """A small recursive length-prefixed encoder (interpreter-bound work)."""
    if isinstance(item, bytes):
        if len(item) == 1 and item[0] < 0x80:
            return item
        return bytes([0x80 + len(item)]) + item
    if isinstance(item, int):
        return _encode(item.to_bytes((item.bit_length() + 7) // 8, "big"))
    body = b"".join([_encode(child) for child in item])
    return len(body).to_bytes(3, "big") + body


class Kernel:
    """Owns the 16 MiB working set; :meth:`run` does one fixed unit of work."""

    def __init__(self) -> None:
        seed = hashlib.sha256(b"blockpilot-e2e-calibration").digest()
        self._buf = bytearray(seed * (WORKING_SET_BYTES // len(seed)))
        self._cursor = 0
        #: checksum of the latest run — consumed so the work cannot be elided
        self.checksum = 0
        #: duration of the latest run
        self.last_s = 0.0

    def run(self) -> float:
        """Do the fixed work once; return its wall duration in seconds."""
        started = time.perf_counter()
        buf = self._buf
        size = len(buf)
        acc = self._cursor

        # 1. interpreter: ints, dicts, lists, short bytes, recursive calls
        table = {}
        state = 0x9E3779B97F4A7C15
        for i in range(9000):
            state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
            key = state >> 44
            table[key] = table.get(key, 0) + (state & 0xFF)
            if i % 9 == 0:
                acc ^= len(_encode([state, [key, b"\x01", state >> 7], b"payload"]))
        acc ^= len(table)

        # 2. SHA3 of short strings scattered over the working set
        view = memoryview(buf)
        sha3 = hashlib.sha3_256
        offset = state % size
        for _ in range(1100):
            offset = (offset * 1103515245 + 12345) % (size - 160)
            digest = sha3(view[offset : offset + 136]).digest()
            acc ^= digest[0]
            offset += digest[1] << 12
        view.release()

        # 3. memory: one byte of every page of the working set (TLB and cache
        #    misses).  Nothing streams through the buffer: a first version also
        #    scanned an 8 MiB window, 40% of its time, and tracked the program
        #    worse for it — in the host's slow phases interpreter-bound work
        #    slows 1.3-1.8x and bandwidth-bound work only 1.1-1.3x, so the
        #    scan left the program 5% under-corrected there (2% without it).
        #    The buffer is only ever read and nothing large is allocated: big
        #    writes turn into copy-on-write faults after every fork of a worker
        #    pool (measured: 8 ms -> 22 ms), and the yardstick must not notice
        #    what the program does.
        for page in range(self._cursor, size, _PAGE):
            acc += buf[page]
        self._cursor = (self._cursor + 64) % _PAGE

        self.checksum = acc
        self.last_s = time.perf_counter() - started
        return self.last_s

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``fn()`` bracketed by two kernel runs, neither inside the timed
        interval: ``(fn's result, wall seconds, calibrated seconds)``."""
        before = self.run()
        started = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - started
        return value, wall, calibrated(wall, before, self.run())


def calibrated(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """``wall_s`` rescaled to the reference host (see module docs)."""
    return wall_s * CAL_REF_S * 2.0 / (kernel_before_s + kernel_after_s)


def kernel_hash() -> str:
    """SHA-256 of this file: the identity of the yardstick."""
    with open(__file__, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
