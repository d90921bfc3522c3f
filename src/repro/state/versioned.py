"""Multi-version state for the proposer's OCC-WSI execution.

Algorithm 1 executes each transaction against a **snapshot** of the state
at the version current when the transaction started, then validates its
read set against the reserve table at commit.  The substrate for that is a
multi-version store: every committed transaction ``v`` appends its write
set at version ``v``, and a reader at snapshot version ``s`` sees, for each
key, the latest value written at any version ``<= s`` (falling back to the
base snapshot, version 0).

:class:`OCCStateView` adapts the store to the StateDB interface the EVM
expects, buffering this transaction's own writes locally (read-your-own-
write, invisible to others until commit) with journal support so reverted
call frames roll the buffer back.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Tuple

from repro.common.types import Address
from repro.state.access import (
    StateKey,
    balance_key,
    code_key,
    nonce_key,
    storage_key,
)
from repro.state.cache import ReadThroughCache
from repro.state.statedb import StateSnapshot

__all__ = ["MultiVersionStore", "OCCStateView", "read_base_value"]


def read_base_value(base: StateSnapshot, key: StateKey) -> Any:
    """Value of ``key`` in a committed snapshot (version-0 fallback).

    Shared by :class:`MultiVersionStore` and the overlay stores the real
    execution backends (:mod:`repro.exec`) build for worker tasks — any
    object exposing ``account(address)`` works as ``base``.
    """
    acct = base.account(key.address)
    if key.kind == "balance":
        return acct.balance if acct else 0
    if key.kind == "nonce":
        return acct.nonce if acct else 0
    if key.kind == "code":
        return acct.code if acct else b""
    if key.kind == "storage":
        if acct is None:
            return 0
        return acct.storage.get(key.slot, 0)
    raise ValueError(f"unknown key kind {key.kind!r}")


class MultiVersionStore:
    """Append-only versioned key/value store over a base snapshot.

    Values are ``int`` for balance/nonce/storage keys and ``bytes`` for
    code keys.  Versions are the 1-based commit sequence numbers of the
    transactions already packed into the block under construction; the
    base snapshot is version 0.
    """

    def __init__(self, base: StateSnapshot) -> None:
        self.base = base
        self._versions: Dict[StateKey, Tuple[List[int], List[Any]]] = {}
        self.committed_version = 0
        # Base-snapshot reads repeat across every optimistic transaction in
        # a block (hot contracts, funded senders); the snapshot is immutable
        # for the store's lifetime, so a bounded read-through cache is safe.
        self.base_cache: ReadThroughCache[StateKey, Any] = ReadThroughCache(
            self._load_base, maxsize=8192
        )

    # ------------------------------------------------------------------ #

    def _load_base(self, key: StateKey) -> Any:
        return read_base_value(self.base, key)

    def _base_value(self, key: StateKey) -> Any:
        return self.base_cache.get(key)

    def read_at(self, key: StateKey, version: int) -> Any:
        """Value of ``key`` as of snapshot ``version``."""
        entry = self._versions.get(key)
        if entry is not None:
            versions, values = entry
            idx = bisect_right(versions, version) - 1
            if idx >= 0:
                return values[idx]
        return self._base_value(key)

    def latest_version(self, key: StateKey) -> int:
        """Version of the most recent committed write to ``key`` (0 if none)."""
        entry = self._versions.get(key)
        if entry is None or not entry[0]:
            return 0
        return entry[0][-1]

    def apply(self, writes: Dict[StateKey, Any], version: int) -> None:
        """Append a committed transaction's writes at ``version``.

        Versions must be applied in strictly increasing order — the commit
        section of Algorithm 1 is serialised, and the store enforces it.
        """
        if version != self.committed_version + 1:
            raise ValueError(
                f"out-of-order commit: version {version}, "
                f"expected {self.committed_version + 1}"
            )
        for key, value in writes.items():
            entry = self._versions.get(key)
            if entry is None:
                entry = ([], [])
                self._versions[key] = entry
            entry[0].append(version)
            entry[1].append(value)
        self.committed_version = version

    def final_values(self) -> Dict[StateKey, Any]:
        """Latest value of every key ever written (for state materialise)."""
        return {key: values[-1] for key, (_, values) in self._versions.items()}

    def key_versions(self) -> Dict[StateKey, List[int]]:
        """Every key's committed write versions, in commit order.

        The serializability oracle (:mod:`repro.check.oracle`) cross-checks
        this index against the read/write sets the run recorded: any drift
        between what the store holds and what the bookkeeping claims means
        a driver applied writes it never recorded (or vice versa).
        """
        return {key: list(versions) for key, (versions, _) in self._versions.items()}


class OCCStateView:
    """StateDB-compatible view for one optimistic transaction.

    Reads come from the multi-version store at ``snapshot_version``;
    writes go to a local buffer with journal marks so reverting call
    frames restores the buffer exactly.  On successful execution the
    proposer applies :attr:`buffered_writes` to the store at the
    transaction's commit version.
    """

    def __init__(self, store: MultiVersionStore, snapshot_version: int) -> None:
        self.store = store
        self.snapshot_version = snapshot_version
        self._buffer: Dict[StateKey, Any] = {}
        self._journal: list[tuple] = []

    # -- helpers --------------------------------------------------------- #

    def _read(self, key: StateKey) -> Any:
        if key in self._buffer:
            return self._buffer[key]
        return self.store.read_at(key, self.snapshot_version)

    def _write(self, key: StateKey, value: Any) -> None:
        had = key in self._buffer
        old = self._buffer.get(key)
        self._journal.append((key, old, had))
        self._buffer[key] = value

    # -- StateDB interface ------------------------------------------------ #

    def account_exists(self, address: Address) -> bool:
        # Existence approximated by non-default nonce/balance/code: in this
        # system accounts are funded at genesis or created by CREATE.
        return (
            self._read(nonce_key(address)) != 0
            or self._read(balance_key(address)) != 0
            or self._read(code_key(address)) != b""
        )

    def get_balance(self, address: Address) -> int:
        return self._read(balance_key(address))

    def get_nonce(self, address: Address) -> int:
        return self._read(nonce_key(address))

    def get_code(self, address: Address) -> bytes:
        return self._read(code_key(address))

    def get_storage(self, address: Address, slot: int) -> int:
        return self._read(storage_key(address, slot))

    def set_balance(self, address: Address, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative balance for {address.hex()}")
        self._write(balance_key(address), value)

    def add_balance(self, address: Address, amount: int) -> None:
        self.set_balance(address, self.get_balance(address) + amount)

    def sub_balance(self, address: Address, amount: int) -> None:
        self.set_balance(address, self.get_balance(address) - amount)

    def set_nonce(self, address: Address, value: int) -> None:
        self._write(nonce_key(address), value)

    def increment_nonce(self, address: Address) -> None:
        self.set_nonce(address, self.get_nonce(address) + 1)

    def set_code(self, address: Address, code: bytes) -> None:
        self._write(code_key(address), code)

    def set_storage(self, address: Address, slot: int, value: int) -> None:
        self._write(storage_key(address, slot), value)

    def create_account(self, address: Address) -> None:
        # No-op: existence is implied by the first write to the account.
        return None

    def snapshot(self) -> int:
        return len(self._journal)

    def revert_to(self, mark: int) -> None:
        if mark < 0 or mark > len(self._journal):
            raise ValueError(f"invalid journal mark {mark}")
        while len(self._journal) > mark:
            key, old, had = self._journal.pop()
            if had:
                self._buffer[key] = old
            else:
                self._buffer.pop(key, None)

    # -- commit support ---------------------------------------------------- #

    @property
    def buffered_writes(self) -> Dict[StateKey, Any]:
        return dict(self._buffer)
