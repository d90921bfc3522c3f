"""Core value types: addresses, 32-byte hashes and 256-bit word arithmetic.

The EVM is a 256-bit word machine.  Rather than wrapping every value in a
class (which would be ruinously slow in pure Python), words travel through
the interpreter as plain ``int`` restricted to ``[0, 2**256)``; the helpers
here implement the wrapping arithmetic and the signed/unsigned views the
opcode handlers need.

``Address`` and ``Hash32`` are ``NewType``s over ``bytes``: distinct to a
type checker, exact ``bytes`` at run time — so a tuple of them (a state
key, an rw-set pair, a trie node) stays untracked by the cyclic collector,
and pickles with no class reference.  The validating constructors
(:func:`address`, :func:`hash32` and their ``_from_int`` / ``_from_hex``
forms) enforce the length, so malformed identifiers fail fast at the
boundary instead of corrupting tries or read/write sets deep inside the
system; a bare ``Hash32(x)`` is a cast, for a length already known.
"""

from __future__ import annotations

from typing import NewType

WORD_BYTES = 32
ADDRESS_BYTES = 20
U256_BITS = 256
U256_MASK = (1 << U256_BITS) - 1
MAX_U256 = U256_MASK
_SIGN_BIT = 1 << (U256_BITS - 1)

#: A 20-byte account identifier.
Address = NewType("Address", bytes)
#: A 32-byte digest (state roots, block hashes, tx hashes).
Hash32 = NewType("Hash32", bytes)


def address(value: bytes) -> Address:
    """``value`` as an :data:`Address`: exactly 20 bytes, as exact ``bytes``."""
    if len(value) != ADDRESS_BYTES:
        raise ValueError(f"Address must be {ADDRESS_BYTES} bytes, got {len(value)}")
    return Address(value if type(value) is bytes else bytes(value))


def address_from_int(value: int) -> Address:
    """Build an address from an integer in ``[0, 2**160)``."""
    if value < 0:
        raise ValueError("Address integers must be non-negative")
    return Address(value.to_bytes(ADDRESS_BYTES, "big"))


def address_from_hex(text: str) -> Address:
    """Parse a ``0x``-prefixed or bare 40-hex-character address."""
    return address(bytes.fromhex(text[2:] if text[:2] in ("0x", "0X") else text))


def address_to_int(value: Address) -> int:
    return int.from_bytes(value, "big")


def hash32(value: bytes) -> Hash32:
    """``value`` as a :data:`Hash32`: exactly 32 bytes, as exact ``bytes``."""
    if len(value) != WORD_BYTES:
        raise ValueError(f"Hash32 must be {WORD_BYTES} bytes, got {len(value)}")
    return Hash32(value if type(value) is bytes else bytes(value))


def hash32_from_hex(text: str) -> Hash32:
    """Parse a ``0x``-prefixed or bare 64-hex-character digest."""
    return hash32(bytes.fromhex(text[2:] if text[:2] in ("0x", "0X") else text))


def to_u256(value: int) -> int:
    """Reduce an arbitrary Python int into the unsigned 256-bit ring."""
    return value & U256_MASK


def u256_add(a: int, b: int) -> int:
    return (a + b) & U256_MASK


def u256_sub(a: int, b: int) -> int:
    return (a - b) & U256_MASK


def u256_mul(a: int, b: int) -> int:
    return (a * b) & U256_MASK


def u256_div(a: int, b: int) -> int:
    """EVM DIV: division by zero yields zero (no trap)."""
    return 0 if b == 0 else a // b


def u256_mod(a: int, b: int) -> int:
    """EVM MOD: modulo zero yields zero (no trap)."""
    return 0 if b == 0 else a % b


def u256_exp(base: int, exponent: int) -> int:
    """Wrapping exponentiation, as the EXP opcode defines it."""
    return pow(base, exponent, 1 << U256_BITS)


def signed_to_u256(value: int) -> int:
    """Encode a Python int in two's-complement 256-bit form."""
    return value & U256_MASK


def u256_to_signed(value: int) -> int:
    """Decode a 256-bit word as a two's-complement signed integer."""
    value &= U256_MASK
    return value - (1 << U256_BITS) if value & _SIGN_BIT else value


def to_word_bytes(value: int) -> bytes:
    """Serialize a u256 as a 32-byte big-endian word."""
    return (value & U256_MASK).to_bytes(WORD_BYTES, "big")


def word_from_bytes(data: bytes) -> int:
    """Read up to 32 bytes as a big-endian word (short input is left-padded)."""
    if len(data) > WORD_BYTES:
        raise ValueError(f"word too long: {len(data)} bytes")
    return int.from_bytes(data, "big")
