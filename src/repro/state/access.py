"""State keys, read/write sets and the recording state wrapper.

BlockPilot's two core mechanisms both consume read/write sets:

* the proposer's OCC-WSI validation compares each transaction's *read set*
  against the reserve table (Algorithm 1, ``DetectConflit``);
* the proposer publishes per-transaction rs/ws in the **block profile**, and
  the validator's applier re-checks re-executed sets against that profile
  (Algorithm 2).

A :class:`StateKey` names one unit of state at the finest granularity the
EVM can touch: an account's balance, nonce or code, or a single storage
slot.  Account-level conflict grouping (used by the validator's scheduler,
§4.3) is just ``key.address``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, NamedTuple, Optional

from repro.common.types import Address

__all__ = [
    "StateKey",
    "ReadWriteSet",
    "RecordingState",
    "balance_key",
    "nonce_key",
    "code_key",
    "storage_key",
]


class StateKey(NamedTuple):
    """One addressable unit of world state."""

    kind: str  # 'balance' | 'nonce' | 'code' | 'storage'
    address: Address
    slot: Optional[int]  # set only for kind == 'storage'


# Built through ``tuple.__new__``: the NamedTuple's generated Python-level
# ``__new__`` costs as much again, and an execution builds a dozen keys.

def balance_key(address: Address) -> StateKey:
    return tuple.__new__(StateKey, ("balance", address, None))


def nonce_key(address: Address) -> StateKey:
    return tuple.__new__(StateKey, ("nonce", address, None))


def code_key(address: Address) -> StateKey:
    return tuple.__new__(StateKey, ("code", address, None))


def storage_key(address: Address, slot: int) -> StateKey:
    return tuple.__new__(StateKey, ("storage", address, slot))


def recorded_code(code: bytes) -> int:
    """How rw-sets record a code write: its first 8 bytes as an int, so
    recorded values stay comparably small."""
    return int.from_bytes(code[:8].ljust(8, b"\0"), "big")


@dataclass
class ReadWriteSet:
    """Reads and writes one transaction performed against pre-state.

    ``reads`` maps key -> the *version* observed (the snapshot version in
    the proposer; 0 for validator re-execution, where versions are implicit
    in block order).  ``writes`` maps key -> the value written; code writes
    store the integer hash of the code so values stay comparably small.

    A key the transaction wrote before reading does not appear in
    ``reads`` — reading your own write is not an external dependency, and
    including it would create false conflicts in WSI validation.
    """

    reads: Dict[StateKey, int] = field(default_factory=dict)
    writes: Dict[StateKey, int] = field(default_factory=dict)

    def record_read(self, key: StateKey, version: int = 0) -> None:
        if key not in self.writes and key not in self.reads:
            self.reads[key] = version

    def record_write(self, key: StateKey, value: int) -> None:
        self.writes[key] = value

    def touched_addresses(self) -> FrozenSet[Address]:
        """Account-level footprint (scheduler granularity, §4.3)."""
        addrs = {k.address for k in self.reads}
        addrs.update(k.address for k in self.writes)
        return frozenset(addrs)

    def conflicts_with(self, other: "ReadWriteSet") -> bool:
        """Key-level RW/WR/WW overlap test between two transactions."""
        mine_w = self.writes.keys()
        theirs_w = other.writes.keys()
        if not mine_w and not theirs_w:
            return False
        if any(k in other.reads for k in mine_w):
            return True
        if any(k in self.reads for k in theirs_w):
            return True
        return any(k in theirs_w for k in mine_w)

    def merge(self, other: "ReadWriteSet") -> None:
        """Fold another rw-set into this one (multi-frame execution)."""
        for key, version in other.reads.items():
            self.record_read(key, version)
        for key, value in other.writes.items():
            self.record_write(key, value)

    def freeze(self) -> "FrozenRWSet":
        return FrozenRWSet(
            reads=tuple(sorted(self.reads.items())),
            writes=tuple(sorted(self.writes.items())),
        )


class FrozenRWSet(NamedTuple):
    """Hashable, immutable rw-set as stored in block profiles."""

    reads: tuple
    writes: tuple

    def read_keys(self) -> FrozenSet[StateKey]:
        return frozenset(k for k, _ in self.reads)

    def write_keys(self) -> FrozenSet[StateKey]:
        return frozenset(k for k, _ in self.writes)

    def write_items(self) -> tuple:
        return self.writes

    def touched_addresses(self) -> FrozenSet[Address]:
        addrs = {k.address for k, _ in self.reads}
        addrs.update(k.address for k, _ in self.writes)
        return frozenset(addrs)


class RecordingState:
    """Wrap an address-keyed state object and capture its read/write set.

    The wrapped object must expose the StateDB read/write interface
    (``StateDB``, also over a guarded or sliced snapshot — the validator's
    re-execution path).  All mutations pass through; reads of keys this
    transaction already wrote are served by the underlying state but not
    recorded as external reads.  The proposer's speculative views are keyed
    already and apply the same recording rule themselves
    (:class:`repro.state.versioned.KeyedView`), so they are never wrapped.
    """

    def __init__(self, inner: Any, version: int = 0) -> None:
        self._inner = inner
        self._version = version
        self.rw = ReadWriteSet()

    # reads ------------------------------------------------------------- #

    def account_exists(self, address: Address) -> bool:
        self.rw.record_read(nonce_key(address), self._version)
        return self._inner.account_exists(address)

    def get_balance(self, address: Address) -> int:
        self.rw.record_read(balance_key(address), self._version)
        return self._inner.get_balance(address)

    def get_nonce(self, address: Address) -> int:
        self.rw.record_read(nonce_key(address), self._version)
        return self._inner.get_nonce(address)

    def get_code(self, address: Address) -> bytes:
        self.rw.record_read(code_key(address), self._version)
        return self._inner.get_code(address)

    def get_storage(self, address: Address, slot: int) -> int:
        self.rw.record_read(storage_key(address, slot), self._version)
        return self._inner.get_storage(address, slot)

    # writes ------------------------------------------------------------ #

    def set_balance(self, address: Address, value: int) -> None:
        self.rw.record_write(balance_key(address), value)
        self._inner.set_balance(address, value)

    def add_balance(self, address: Address, amount: int) -> None:
        # read-modify-write calls build their key once, as the keyed views do
        key = balance_key(address)
        self.rw.record_read(key, self._version)
        value = self._inner.get_balance(address) + amount
        self.rw.record_write(key, value)
        self._inner.set_balance(address, value)

    def sub_balance(self, address: Address, amount: int) -> None:
        self.add_balance(address, -amount)

    def set_nonce(self, address: Address, value: int) -> None:
        self.rw.record_write(nonce_key(address), value)
        self._inner.set_nonce(address, value)

    def increment_nonce(self, address: Address) -> None:
        key = nonce_key(address)
        self.rw.record_read(key, self._version)
        value = self._inner.get_nonce(address) + 1
        self.rw.record_write(key, value)
        self._inner.set_nonce(address, value)

    def set_code(self, address: Address, code: bytes) -> None:
        self.rw.record_write(code_key(address), recorded_code(code))
        self._inner.set_code(address, code)

    def set_storage(self, address: Address, slot: int, value: int) -> None:
        self.rw.record_write(storage_key(address, slot), value)
        self._inner.set_storage(address, slot, value)

    def create_account(self, address: Address) -> None:
        self._inner.create_account(address)

    # journal passthrough ------------------------------------------------ #

    def snapshot(self) -> int:
        return self._inner.snapshot()

    def revert_to(self, mark: int) -> None:
        # NOTE: rw-set entries from the reverted frame are deliberately
        # retained.  A read that influenced control flow matters for
        # conflict detection even if its frame later reverted; keeping
        # writes is conservative (may cause a false conflict, never a
        # missed one), matching how geth-based prototypes journal.
        self._inner.revert_to(mark)
