"""Primitive chain types and encodings shared by every subsystem.

This package is dependency-free (standard library only) and provides:

* :mod:`repro.common.types` -- ``Address``, ``Hash32`` (``NewType``s over
  ``bytes``, built by validating constructors), 256-bit integer helpers
  and the word-size constants the EVM operates on.
* :mod:`repro.common.hashing` -- the commitment hash used throughout the
  repo (SHA3-256 standing in for Keccak-256; see module docs).
* :mod:`repro.common.rlp` -- a complete RLP encoder/decoder compatible
  with Ethereum's wire encoding for nested byte-string/list structures.
"""

from repro.common.types import (
    Address,
    Hash32,
    MAX_U256,
    U256_MASK,
    WORD_BYTES,
    to_u256,
    u256_add,
    u256_sub,
    u256_mul,
    u256_div,
    u256_mod,
    u256_exp,
    signed_to_u256,
    u256_to_signed,
    to_word_bytes,
    word_from_bytes,
)
from repro.common.hashing import keccak, hash_of, EMPTY_HASH
from repro.common.rlp import rlp_encode, rlp_decode, RLPDecodeError

__all__ = [
    "Address",
    "Hash32",
    "MAX_U256",
    "U256_MASK",
    "WORD_BYTES",
    "to_u256",
    "u256_add",
    "u256_sub",
    "u256_mul",
    "u256_div",
    "u256_mod",
    "u256_exp",
    "signed_to_u256",
    "u256_to_signed",
    "to_word_bytes",
    "word_from_bytes",
    "keccak",
    "hash_of",
    "EMPTY_HASH",
    "rlp_encode",
    "rlp_decode",
    "RLPDecodeError",
]
