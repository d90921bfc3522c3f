"""The 2048-bit logs bloom filter (yellow-paper M function).

Every block header commits to a bloom over the addresses and topics of
all logs its transactions emitted, letting clients skip blocks that
cannot contain events they care about.  Construction follows Ethereum:
for each input byte string, take ``keccak(data)`` and set three bits,
each indexed by 11 bits taken from byte pairs (0,1), (2,3) and (4,5) of
the hash.

The validator recomputes the bloom from its re-executed logs and rejects
blocks whose header bloom disagrees — one more channel a lying proposer
cannot slip through.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.hashing import keccak
from repro.evm.interpreter import Log

__all__ = ["Bloom", "bloom_from_logs"]

BLOOM_BITS = 2048
BLOOM_BYTES = BLOOM_BITS // 8


class Bloom:
    """A 2048-bit bloom filter over byte strings."""

    __slots__ = ("_bits",)

    def __init__(self, value: int = 0) -> None:
        if value < 0 or value >= 1 << BLOOM_BITS:
            raise ValueError("bloom value out of range")
        self._bits = value

    @staticmethod
    def _bit_indexes(data: bytes) -> Iterator[int]:
        digest = keccak(data)
        for i in (0, 2, 4):
            yield ((digest[i] & 0x07) << 8) | digest[i + 1]

    def add(self, data: bytes) -> None:
        for index in self._bit_indexes(data):
            self._bits |= 1 << index

    def might_contain(self, data: bytes) -> bool:
        """False means *definitely absent*; True means possibly present."""
        return all(self._bits & (1 << i) for i in self._bit_indexes(data))

    def add_log(self, log: Log) -> None:
        self.add(log.address)
        for topic in log.topics:
            self.add(topic.to_bytes(32, "big"))

    def union(self, other: "Bloom") -> "Bloom":
        return Bloom(self._bits | other._bits)

    @property
    def value(self) -> int:
        return self._bits

    def to_bytes(self) -> bytes:
        return self._bits.to_bytes(BLOOM_BYTES, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Bloom":
        if len(raw) != BLOOM_BYTES:
            raise ValueError(f"bloom must be {BLOOM_BYTES} bytes")
        return cls(int.from_bytes(raw, "big"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bloom) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def bit_count(self) -> int:
        return bin(self._bits).count("1")


def bloom_from_logs(logs: Iterable[Log]) -> Bloom:
    """Aggregate bloom over a sequence of logs (a block's logsBloom)."""
    bloom = Bloom()
    for log in logs:
        bloom.add_log(log)
    return bloom
