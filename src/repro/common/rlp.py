"""Recursive Length Prefix (RLP) encoding and decoding.

RLP is Ethereum's canonical serialisation for nested structures of byte
strings.  The implementation follows the yellow paper exactly:

* a single byte in ``[0x00, 0x7f]`` is its own encoding;
* a string of 0-55 bytes is ``0x80+len`` followed by the string;
* a longer string is ``0xb7+len(len)`` then the big-endian length then the
  string;
* lists use ``0xc0``/``0xf7`` analogously over the concatenated encodings
  of their items.

Integers are encoded big-endian with no leading zeros (zero encodes as the
empty string), matching Ethereum's convention.  The decoder is strict: it
rejects non-minimal length prefixes and trailing garbage, which the tests
exercise via round-trip properties.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple, Union

RLPItem = Union[bytes, int, str, list, tuple]

__all__ = [
    "rlp_encode", "rlp_string", "rlp_int", "rlp_list", "rlp_decode", "rlp_decode_first", "RLPDecodeError",
]


class RLPDecodeError(ValueError):
    """Raised when a byte string is not valid canonical RLP."""


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    raw = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(raw)]) + raw


#: the prefixes of strings and lists with a payload under 256 bytes, by
#: length — nearly every item a block encodes (trie nodes, account bodies,
#: receipts, transactions) is that short
_STRING_PREFIX = [_encode_length(n, 0x80) for n in range(256)]
_LIST_PREFIX = [_encode_length(n, 0xC0) for n in range(256)]


def rlp_string(data: bytes) -> bytes:
    """Encode one byte string (the item rule, without type dispatch)."""
    n = len(data)
    if n >= 256:
        return _encode_length(n, 0x80) + data
    if n == 1 and data[0] < 0x80:
        return data
    return _STRING_PREFIX[n] + data


def rlp_int(value: int) -> bytes:
    """Encode one non-negative integer (big-endian, no leading zeros)."""
    if value < 0x80:
        if value < 0:
            raise ValueError("RLP cannot encode negative integers")
        return bytes((value,)) if value else b"\x80"
    return rlp_string(value.to_bytes((value.bit_length() + 7) // 8, "big"))


def rlp_list(encoded_items: Iterable[bytes]) -> bytes:
    """Wrap items that are *already RLP-encoded* under a list prefix."""
    body = b"".join(encoded_items)
    n = len(body)
    return (_LIST_PREFIX[n] if n < 256 else _encode_length(n, 0xC0)) + body


def rlp_encode(item: RLPItem) -> bytes:
    """Encode bytes / int / str / nested lists into canonical RLP."""
    kind = type(item)
    if kind is bytes:
        return rlp_string(item)
    if kind is int:
        return rlp_int(item)
    if kind is list or kind is tuple:
        return rlp_list([rlp_encode(sub) for sub in item])
    # everything else: ``bytes`` / ``int`` subclasses, ``bytearray``, ``str``
    # -- normalised to one of the exact types above
    if isinstance(item, (bytes, bytearray)):
        return rlp_string(bytes(item))
    if isinstance(item, bool):
        raise TypeError("RLP does not define a boolean encoding")
    if isinstance(item, int):
        return rlp_int(int(item))
    if isinstance(item, str):
        return rlp_string(item.encode("utf-8"))
    if isinstance(item, (list, tuple)):
        return rlp_encode(list(item))
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode one item starting at ``pos``; return ``(item, next_pos)``."""
    if pos >= len(data):
        raise RLPDecodeError("unexpected end of input")
    prefix = data[pos]
    if prefix < 0x80:  # single byte
        return bytes([prefix]), pos + 1
    if prefix <= 0xB7:  # short string
        length = prefix - 0x80
        end = pos + 1 + length
        if end > len(data):
            raise RLPDecodeError("string runs past end of input")
        payload = data[pos + 1 : end]
        if length == 1 and payload[0] < 0x80:
            raise RLPDecodeError("non-canonical single-byte encoding")
        return payload, end
    if prefix <= 0xBF:  # long string
        len_of_len = prefix - 0xB7
        if pos + 1 + len_of_len > len(data):
            raise RLPDecodeError("length field runs past end of input")
        len_bytes = data[pos + 1 : pos + 1 + len_of_len]
        if len_bytes[0] == 0:
            raise RLPDecodeError("length has leading zero byte")
        length = int.from_bytes(len_bytes, "big")
        if length < 56:
            raise RLPDecodeError("long form used for short string")
        end = pos + 1 + len_of_len + length
        if end > len(data):
            raise RLPDecodeError("string runs past end of input")
        return data[pos + 1 + len_of_len : end], end
    if prefix <= 0xF7:  # short list
        length = prefix - 0xC0
        end = pos + 1 + length
        if end > len(data):
            raise RLPDecodeError("list runs past end of input")
        return _decode_list(data, pos + 1, end), end
    # long list
    len_of_len = prefix - 0xF7
    if pos + 1 + len_of_len > len(data):
        raise RLPDecodeError("length field runs past end of input")
    len_bytes = data[pos + 1 : pos + 1 + len_of_len]
    if len_bytes[0] == 0:
        raise RLPDecodeError("length has leading zero byte")
    length = int.from_bytes(len_bytes, "big")
    if length < 56:
        raise RLPDecodeError("long form used for short list")
    end = pos + 1 + len_of_len + length
    if end > len(data):
        raise RLPDecodeError("list runs past end of input")
    return _decode_list(data, pos + 1 + len_of_len, end), end


def _decode_list(data: bytes, start: int, end: int) -> list:
    items = []
    pos = start
    while pos < end:
        item, pos = _decode_at(data, pos)
        items.append(item)
    if pos != end:
        raise RLPDecodeError("list payload length mismatch")
    return items


def rlp_decode(data: bytes) -> Any:
    """Decode canonical RLP into nested lists of ``bytes``.

    Raises :class:`RLPDecodeError` on any malformed or non-canonical input,
    including trailing bytes after the first item.
    """
    item, pos = _decode_at(bytes(data), 0)
    if pos != len(data):
        raise RLPDecodeError(f"{len(data) - pos} trailing bytes after RLP item")
    return item


def rlp_decode_first(data: bytes) -> Any:
    """Decode only the first item of the list that ``data`` encodes.  What
    follows that item is neither decoded nor checked: a peek into bytes
    whose integrity is established some other way.  Raises
    :class:`RLPDecodeError` unless a whole well-formed item is there."""
    if not data or data[0] < 0xC0:
        raise RLPDecodeError("not an RLP list")
    # the payload starts after one byte (short list) or after the length field
    return _decode_at(data, 1 if data[0] <= 0xF7 else data[0] - 0xF6)[0]
