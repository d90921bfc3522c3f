"""State-snapshot files: periodic full-world checkpoints in a binary record.

A snapshot file (``snapshot_<height>.snap``) is a fixed header followed by
one record per account, in ascending address order.  Every integer is
big-endian::

    header   magic "RPSNAPSH" (8) | version u32 | state root (32) | accounts u32
    account  address (20) | nonce u64 | balance (32) | code length u32 | code
             | slots u32 | slot keys (32 × slots) | slot values (32 × slots)

Slot keys are strictly ascending, no slot holds zero and no account is
empty (a state holds neither): an encoding has one form, so a decoded file
is exactly the state :func:`write_snapshot` wrote.

:func:`write_snapshot` hands :func:`repro.store.atomic.publish` a generator
of the account records joined into chunks of ~32 KiB, updating the SHA-256
as each chunk passes; an account's two slot blobs are built in C
(``b"".join`` over ``int.to_bytes``), so a write holds one chunk (or one
large account's record) at a time — never a per-slot string, the whole
file, or a copy of it.

:func:`load_snapshot` checks, in order:

* the file's SHA-256 against the digest the manifest recorded (bit rot,
  tampering);
* a strict decode — magic and version, every count and length against the
  bytes left, ascending unique addresses and slot keys, no zero slot, no
  empty account, no trailing bytes;
* the rebuilt trie's state root against the file's recorded root and the
  root the manifest pinned for that height (a *valid-looking but wrong*
  snapshot).

The tries are rebuilt over the state the caller passes as ``base``
(recovery passes its genesis), not from empty tries: only what differs from
the base is re-hashed.  An MPT is canonical, so the root is the one the
file's contents have whatever the base, and both root checks still cover
every byte of the file.

Any failure is a :class:`SnapshotCorruptError`; a snapshot written by a
version that used another format (the JSON document) is refused as one.
"""

from __future__ import annotations

import hashlib
import os
import struct
from itertools import repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.hashing import Hash32
from repro.common.types import Address
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot, genesis_snapshot
from repro.store.atomic import publish
from repro.store.errors import SnapshotCorruptError

__all__ = [
    "SNAPSHOT_SUFFIX",
    "snapshot_filename",
    "snapshot_chunks",
    "decode_snapshot",
    "write_snapshot",
    "load_snapshot",
]

SNAPSHOT_SUFFIX = ".snap"
MAGIC = b"RPSNAPSH"
FORMAT_VERSION = 1

HEADER = struct.Struct(">8sI32sI")
ACCOUNT = struct.Struct(">20sQ32sI")
COUNT = struct.Struct(">I")
WORD = struct.Struct("32s")
NO_SLOTS = COUNT.pack(0)
#: the smallest account record: fixed fields, no code, a zero slot count
MIN_ACCOUNT = ACCOUNT.size + COUNT.size
#: records are written in chunks of about this many bytes: a write holds one
#: chunk at a time, and a state of many small accounts is not written (and
#: hashed) one call per account
CHUNK_BYTES = 1 << 15


def snapshot_filename(height: int) -> str:
    return f"snapshot_{height:08d}{SNAPSHOT_SUFFIX}"


def _words(ints: Iterable[int]) -> bytes:
    return b"".join(map(int.to_bytes, ints, repeat(32), repeat("big")))


def _ints(blob: bytes) -> List[int]:
    return list(map(int.from_bytes, map(itemgetter(0), WORD.iter_unpack(blob)), repeat("big")))


def _record(address: Address, data: AccountData) -> bytes:
    head = ACCOUNT.pack(address, data.nonce, data.balance.to_bytes(32, "big"), len(data.code))
    storage = data.storage
    if not storage:  # most accounts: a fifth of the general path's cost
        return head + data.code + NO_SLOTS
    keys = sorted(storage)
    return b"".join(
        (head, data.code, COUNT.pack(len(keys)), _words(keys), _words(map(storage.__getitem__, keys)))
    )


def snapshot_chunks(snapshot: StateSnapshot) -> Iterator[bytes]:
    """The file's bytes: the header and the account records in address
    order, joined into chunks of about :data:`CHUNK_BYTES` (a larger record
    is a chunk of its own)."""
    accounts = snapshot.accounts
    batch = [HEADER.pack(MAGIC, FORMAT_VERSION, snapshot.state_root(), len(accounts))]
    size = 0
    for address in sorted(accounts):
        record = _record(address, accounts[address])
        if size + len(record) > CHUNK_BYTES:
            yield b"".join(batch)
            batch, size = [], 0
        batch.append(record)
        size += len(record)
    yield b"".join(batch)


def decode_snapshot(
    raw: bytes, name: str = "snapshot", base: Optional[StateSnapshot] = None
) -> StateSnapshot:
    """Strictly decode one file's bytes and check the rebuilt root against
    the one it records; every bad input is a :class:`SnapshotCorruptError`,
    found in time linear in ``len(raw)`` (a count is checked against the
    bytes left before anything is sliced).  The tries are rebuilt over
    ``base`` (:func:`~repro.state.statedb.genesis_snapshot`), so a file near
    that state re-hashes only what differs from it."""

    def corrupt(why: str) -> SnapshotCorruptError:
        return SnapshotCorruptError(f"snapshot {name}: {why}")

    end = len(raw)
    if raw[: len(MAGIC)] != MAGIC:
        raise corrupt(f"unsupported format (magic {raw[:len(MAGIC)]!r}, expected {MAGIC!r})")
    if end < HEADER.size:
        raise corrupt("header truncated")
    _, version, recorded, count = HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise corrupt(f"unsupported format version {version}")
    pos = HEADER.size
    if count * MIN_ACCOUNT > end - pos:
        raise corrupt(f"{count} accounts cannot fit in {end - pos} bytes")
    alloc: Dict[Address, AccountData] = {}
    previous = b""
    for _ in range(count):
        if ACCOUNT.size > end - pos:
            raise corrupt(f"account record truncated at offset {pos}")
        address, nonce, balance, code_len = ACCOUNT.unpack_from(raw, pos)
        pos += ACCOUNT.size
        if address <= previous:
            raise corrupt(f"account {address.hex()} is out of order or repeated")
        previous = address
        if code_len + COUNT.size > end - pos:
            raise corrupt(f"code of {address.hex()} runs past the end")
        code = raw[pos : pos + code_len]
        pos += code_len
        (slots,) = COUNT.unpack_from(raw, pos)
        pos += COUNT.size
        if slots * 64 > end - pos:
            raise corrupt(f"{slots} slots of {address.hex()} run past the end")
        balance_int = int.from_bytes(balance, "big")
        storage: Dict[int, int] = {}
        if slots:
            keys = _ints(raw[pos : pos + 32 * slots])
            if not all(map(int.__lt__, keys, keys[1:])):
                raise corrupt(f"slots of {address.hex()} are out of order or repeated")
            values = _ints(raw[pos + 32 * slots : pos + 64 * slots])
            if not all(values):
                raise corrupt(f"a slot of {address.hex()} holds zero")
            storage = dict(zip(keys, values))
            pos += 64 * slots
        elif not (nonce or balance_int or code):
            raise corrupt(f"account {address.hex()} is empty")
        alloc[address] = AccountData(nonce, balance_int, code, storage)
    if pos != end:
        raise corrupt(f"{end - pos} trailing bytes")
    snapshot = genesis_snapshot(alloc, base)
    if snapshot.state_root() != recorded:
        raise corrupt(
            f"rebuilds to root {snapshot.state_root().hex()[:16]}…, "
            f"the file records {recorded.hex()[:16]}…"
        )
    return snapshot


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
    digest = hashlib.sha256()

    def hashed(chunk: bytes) -> bytes:
        digest.update(chunk)
        return chunk

    publish(os.path.join(data_dir, name), map(hashed, snapshot_chunks(snapshot)), fsync=fsync)
    return name, digest.hexdigest()


def load_snapshot(
    data_dir: str,
    filename: str,
    *,
    expect_sha256: str,
    expect_root: Hash32,
    base: Optional[StateSnapshot] = None,
) -> StateSnapshot:
    """Load and fully verify one snapshot file, rebuilding its tries over
    ``base`` (see :func:`decode_snapshot`).

    Raises :class:`SnapshotCorruptError` on any mismatch — digest, record
    shape, rebuilt root vs the file, or rebuilt root vs the root the
    manifest expects for that height.
    """
    path = os.path.join(data_dir, filename)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"unreadable snapshot {path}: {exc}") from exc
    # digest the raw bytes before any decoding: a flipped byte fails here
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expect_sha256:
        raise SnapshotCorruptError(
            f"snapshot {filename} digest mismatch: "
            f"manifest records {expect_sha256[:16]}…, file hashes {actual[:16]}…"
        )
    snapshot = decode_snapshot(raw, filename, base)
    if snapshot.state_root() != expect_root:
        raise SnapshotCorruptError(
            f"snapshot {filename} rebuilds to root "
            f"{snapshot.state_root().hex()[:16]}…, manifest expects "
            f"{expect_root.hex()[:16]}…"
        )
    return snapshot
