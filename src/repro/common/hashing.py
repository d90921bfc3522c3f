"""Commitment hashing for tries, blocks and transactions.

Ethereum uses Keccak-256 (the pre-standardisation SHA-3 candidate).  The
Python standard library ships only the finalised SHA3-256, which differs in
padding but is otherwise the same sponge with the same security and output
size.  Because this repository never needs to interoperate with real
Ethereum data — all blocks are generated locally — SHA3-256 is a faithful
stand-in: every property the system relies on (collision resistance,
determinism, 32-byte output, avalanche) holds identically.

``hash_of`` is a convenience that hashes heterogeneous values by a stable
canonical serialisation, used for transaction and block identifiers.
"""

from __future__ import annotations

import hashlib

from repro.common.types import Hash32

__all__ = ["keccak", "hash_of", "canonical_bytes", "canonical_int", "EMPTY_HASH"]


def keccak(data: bytes) -> Hash32:
    """Hash ``data`` to a 32-byte digest (SHA3-256 standing in for Keccak)."""
    return Hash32(hashlib.sha3_256(data).digest())


#: Digest of the empty byte string — used for empty code hashes.
EMPTY_HASH = keccak(b"")


def canonical_bytes(value: bytes) -> bytes:
    """:func:`hash_of`'s serialisation of one byte string."""
    return b"B" + len(value).to_bytes(8, "big") + value


def canonical_int(value: int) -> bytes:
    """:func:`hash_of`'s serialisation of one integer."""
    mag = abs(value)
    raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
    return (b"I-" if value < 0 else b"I+") + len(raw).to_bytes(8, "big") + raw


def _canonical(value: object) -> bytes:
    """Serialise a value into an unambiguous byte string for hashing.

    Supports ``bytes``/``bytearray``, ``str`` (UTF-8), ``int`` (minimal
    big-endian with sign tag) and ``tuple``/``list`` (length-prefixed
    concatenation).  Each branch emits a distinct type tag so values of
    different types can never collide.
    """
    if isinstance(value, (bytes, bytearray)):
        return canonical_bytes(bytes(value))
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, bool):
        return b"O" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return canonical_int(value)
    if isinstance(value, (tuple, list)):
        parts = [_canonical(v) for v in value]
        body = b"".join(parts)
        return b"L" + len(parts).to_bytes(8, "big") + body
    if value is None:
        return b"N"
    raise TypeError(f"hash_of cannot canonicalise {type(value).__name__}")


def hash_of(*values: object) -> Hash32:
    """Hash an arbitrary tuple of primitive values canonically."""
    return keccak(_canonical(tuple(values)))
