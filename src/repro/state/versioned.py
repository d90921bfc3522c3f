"""Multi-version state for the proposer's OCC-WSI execution.

Algorithm 1 executes each transaction against a **snapshot** of the state
at the version current when the transaction started, then validates its
read set against the reserve table at commit.  The substrate for that is a
multi-version store: every committed transaction ``v`` appends its write
set at version ``v``, and a reader at snapshot version ``s`` sees, for each
key, the latest value written at any version ``<= s`` (falling back to the
base snapshot, version 0).

:class:`KeyedView` is the speculative view every proposer engine executes
against: the StateDB interface the EVM expects over a local write buffer
with journal support, recording the transaction's read/write set as it
goes.  :class:`OCCStateView` reads through it from the store at a snapshot
version; Block-STM's view (:mod:`repro.exec.tasks`) reads through it from
multi-version memory.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, List, Tuple, TypeVar

from repro.common.types import Address
from repro.state.access import (
    ReadWriteSet,
    StateKey,
    balance_key,
    code_key,
    nonce_key,
    recorded_code,
    storage_key,
)
from repro.state.statedb import StateSnapshot

__all__ = ["MultiVersionStore", "KeyedView", "OCCStateView", "read_base_value"]

#: what a view records for an external read (OCC: the snapshot version;
#: Block-STM: the ``(writer, incarnation)`` that produced the value)
W = TypeVar("W")

#: "no buffered value" marker: buffered values are ints and bytes
_ABSENT: Any = object()


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
        #: per written key one flat list ``[version, value, version, value,
        #: ...]`` in commit order — most keys are written once per block, and
        #: one list costs a third of the objects of a (versions, values) pair
        self._versions: Dict[StateKey, List[Any]] = {}
        self.committed_version = 0

    def read_at(self, key: StateKey, version: int) -> Any:
        """Value of ``key`` as of snapshot ``version``."""
        entry = self._versions.get(key)
        if entry is not None:
            # newest first: a snapshot is at most a few commits old, so the
            # scan stops within a step or two even on a hot key
            for i in range(len(entry) - 2, -1, -2):
                if entry[i] <= version:
                    return entry[i + 1]
        return read_base_value(self.base, key)

    def latest_version(self, key: StateKey) -> int:
        """Version of the most recent committed write to ``key`` (0 if none)."""
        entry = self._versions.get(key)
        return entry[-2] if entry else 0

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
        versions = self._versions
        for key, value in writes.items():
            entry = versions.get(key)
            if entry is None:
                versions[key] = [version, value]
            else:
                entry += (version, value)
        self.committed_version = version

    def final_values(self, since: int = 0) -> Dict[StateKey, Any]:
        """Latest value of every key written after version ``since`` (0: ever written)."""
        return {key: entry[-1] for key, entry in self._versions.items() if entry[-2] > since}

    def key_versions(self) -> Dict[StateKey, List[int]]:
        """Every key's committed write versions, in commit order.

        The serializability oracle (:mod:`repro.check.oracle`) cross-checks
        this index against the read/write sets the run recorded: any drift
        between what the store holds and what the bookkeeping claims means
        a driver applied writes it never recorded (or vice versa).
        """
        return {key: entry[0::2] for key, entry in self._versions.items()}


class KeyedView(Generic[W]):
    """The one keyed speculative view: StateDB interface over a write
    buffer, a journal and the rw-set recording rule.

    Every interface call builds its :class:`StateKey` once and crosses one
    layer.  Writes go to a local buffer (read-your-own-write, invisible to
    others until commit) with journal marks, so reverting call frames
    restores the buffer exactly.  Recording follows the rule the validator's
    :class:`~repro.state.access.RecordingState` applies, so speculative
    profiles diff cleanly against the serial replay's recorded sets: the
    first external read of a key wins; a key this transaction wrote is never
    recorded as read, even after the write was reverted; :attr:`writes`
    survives reverts (a read that steered control flow matters even if its
    frame rolled back, and a kept write can cause a false conflict, never a
    missed one); code is recorded as a short int; ``account_exists``
    records the nonce key only.

    Subclasses supply :meth:`_load` — where an unbuffered read comes from
    and the witness ``W`` recorded for it.
    """

    def __init__(self) -> None:
        self._buffer: Dict[StateKey, Any] = {}
        self._journal: List[Tuple[StateKey, Any]] = []
        #: key -> witness of the first external read
        self.reads: Dict[StateKey, W] = {}
        #: rw-set writes (code as an int; kept across reverts)
        self.writes: Dict[StateKey, int] = {}

    def _load(self, key: StateKey) -> Tuple[Any, W]:
        """``(value, witness)`` of ``key`` as this transaction sees it."""
        raise NotImplementedError

    def _read(self, key: StateKey, record: bool = True) -> Any:
        value = self._buffer.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        value, witness = self._load(key)
        if record and key not in self.reads and key not in self.writes:
            self.reads[key] = witness
        return value

    def _write(self, key: StateKey, value: Any, recorded: int) -> None:
        self.writes[key] = recorded
        buffer = self._buffer
        self._journal.append((key, buffer.get(key, _ABSENT)))
        buffer[key] = value

    # -- StateDB interface ------------------------------------------------ #

    def account_exists(self, address: Address) -> bool:
        # Existence approximated by non-default nonce/balance/code: in this
        # system accounts are funded at genesis or created by CREATE.
        return (
            self._read(nonce_key(address)) != 0
            or self._read(balance_key(address), record=False) != 0
            or self._read(code_key(address), record=False) != b""
        )

    def get_balance(self, address: Address) -> int:
        return self._read(balance_key(address))

    def get_nonce(self, address: Address) -> int:
        return self._read(nonce_key(address))

    def get_code(self, address: Address) -> bytes:
        return self._read(code_key(address))

    def get_storage(self, address: Address, slot: int) -> int:
        return self._read(storage_key(address, slot))

    def _set_balance(self, key: StateKey, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative balance for {key.address.hex()}")
        self._write(key, value, value)

    def set_balance(self, address: Address, value: int) -> None:
        self._set_balance(balance_key(address), value)

    def add_balance(self, address: Address, amount: int) -> None:
        key = balance_key(address)
        self._set_balance(key, self._read(key) + amount)

    def sub_balance(self, address: Address, amount: int) -> None:
        key = balance_key(address)
        self._set_balance(key, self._read(key) - amount)

    def set_nonce(self, address: Address, value: int) -> None:
        self._write(nonce_key(address), value, value)

    def increment_nonce(self, address: Address) -> None:
        key = nonce_key(address)
        value = self._read(key) + 1
        self._write(key, value, value)

    def set_code(self, address: Address, code: bytes) -> None:
        self._write(code_key(address), code, recorded_code(code))

    def set_storage(self, address: Address, slot: int, value: int) -> None:
        self._write(storage_key(address, slot), value, value)

    def create_account(self, address: Address) -> None:
        # No-op: existence is implied by the first write to the account.
        return None

    def snapshot(self) -> int:
        return len(self._journal)

    def revert_to(self, mark: int) -> None:
        journal, buffer = self._journal, self._buffer
        if mark < 0 or mark > len(journal):
            raise ValueError(f"invalid journal mark {mark}")
        while len(journal) > mark:
            key, old = journal.pop()
            if old is _ABSENT:
                del buffer[key]
            else:
                buffer[key] = old

    # -- commit support ---------------------------------------------------- #

    @property
    def buffered_writes(self) -> Dict[StateKey, Any]:
        return dict(self._buffer)


class OCCStateView(KeyedView[int]):
    """One optimistic transaction's view of a multi-version store.

    Unbuffered reads come from ``store`` at ``snapshot_version`` and record
    that version.  On successful execution the proposer applies
    :attr:`buffered_writes` to the store at the transaction's commit
    version and validates :attr:`rw` against the reserve table.
    """

    def __init__(self, store: Any, snapshot_version: int) -> None:
        super().__init__()
        #: a :class:`MultiVersionStore` or anything with its ``read_at``
        self.store = store
        self.snapshot_version = snapshot_version
        self.rw = ReadWriteSet(self.reads, self.writes)

    def _load(self, key: StateKey) -> Tuple[Any, int]:
        version = self.snapshot_version
        return self.store.read_at(key, version), version
