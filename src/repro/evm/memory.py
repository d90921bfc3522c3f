"""Byte-addressed, word-expanded EVM memory."""

from __future__ import annotations

__all__ = ["Memory"]

#: Hard cap on memory size so buggy bytecode cannot swallow the host's RAM;
#: quadratic gas makes anything near this unaffordable anyway.
MAX_MEMORY_BYTES = 1 << 24


class Memory:
    """Zero-initialised memory that grows in 32-byte words.

    ``touch`` returns the number of words after expansion so callers can
    charge the quadratic expansion gas *before* the access happens.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data = bytearray()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def words(self) -> int:
        return len(self._data) // 32

    def touch(self, offset: int, size: int) -> int:
        """Expand to cover ``[offset, offset+size)``; return new word count."""
        if size == 0:
            return self.words
        if offset < 0 or size < 0:
            raise ValueError("negative memory access")
        end = offset + size
        if end > MAX_MEMORY_BYTES:
            raise MemoryError(f"memory access beyond cap: {end} bytes")
        if end > len(self._data):
            new_len = ((end + 31) // 32) * 32
            self._data.extend(b"\x00" * (new_len - len(self._data)))
        return self.words

    def _cover(self, offset: int, end: int) -> None:
        """Expand (or reject) unless ``[offset, end)`` is already backed."""
        if end > len(self._data) or offset < 0:
            self.touch(offset, end - offset)

    def read(self, offset: int, size: int) -> bytes:
        if size == 0:
            return b""
        self._cover(offset, offset + size)
        return bytes(self._data[offset : offset + size])

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        end = offset + len(data)
        self._cover(offset, end)
        self._data[offset:end] = data

    def read_word(self, offset: int) -> int:
        self._cover(offset, offset + 32)
        return int.from_bytes(self._data[offset : offset + 32], "big")

    def write_word(self, offset: int, value: int) -> None:
        self.write(offset, value.to_bytes(32, "big"))

    def write_byte(self, offset: int, value: int) -> None:
        self.write(offset, bytes([value & 0xFF]))
