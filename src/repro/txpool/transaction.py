"""The transaction record.

Real Ethereum transactions carry an ECDSA signature from which the sender
is recovered.  Signature recovery is pure per-transaction compute with no
bearing on concurrency control, so this reproduction carries the sender
explicitly and folds signature-check cost into the cost model's
``tx_overhead`` (see DESIGN.md substitution table).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from repro.common.hashing import Hash32, canonical_bytes, canonical_int, keccak
from repro.common.records import record
from repro.common.types import Address

__all__ = ["Transaction"]

#: ``hash_of``'s framing of a seven-value tuple
_HASH_HEAD = b"L" + (7).to_bytes(8, "big")


@record
class Transaction:
    """An immutable transaction.

    ``to=None`` denotes contract creation with ``data`` as init code.
    ``tag`` is free-form metadata used by the workload generator to label
    what kind of action a transaction performs (useful in analyses); it is
    not part of the hash.
    """

    sender: Address
    to: Optional[Address]
    value: int
    data: bytes
    gas_limit: int
    gas_price: int
    nonce: int
    tag: str = field(default="", compare=False)
    _hash: Optional[Hash32] = field(
        default=None, compare=False, repr=False, init=False
    )

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("negative value")
        if self.gas_limit <= 0:
            raise ValueError("non-positive gas limit")
        if self.gas_price < 0:
            raise ValueError("negative gas price")
        if self.nonce < 0:
            raise ValueError("negative nonce")

    @property
    def hash(self) -> Hash32:
        # Memoized: the pool's hash index and the proposer consult the hash
        # on every queue operation, and all hash inputs are frozen.  The
        # preimage is ``hash_of`` over the seven fields, composed directly.
        cached = self._hash
        if cached is None:
            cached = keccak(
                _HASH_HEAD
                + canonical_bytes(self.sender)
                + (canonical_bytes(self.to) if self.to is not None else b"N")
                + canonical_int(self.value)
                + canonical_bytes(self.data)
                + canonical_int(self.gas_limit)
                + canonical_int(self.gas_price)
                + canonical_int(self.nonce)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def is_create(self) -> bool:
        return self.to is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "create" if self.is_create else self.to.hex()[:8]
        return (
            f"Tx({self.sender.hex()[:8]}->{kind} nonce={self.nonce} "
            f"gasprice={self.gas_price}{' ' + self.tag if self.tag else ''})"
        )
