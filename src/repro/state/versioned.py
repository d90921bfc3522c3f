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
from repro.evm.interpreter import InvalidTransaction
from repro.state.access import ReadWriteSet, StateKey, recorded_code
from repro.state.statedb import StateSnapshot

__all__ = ["MultiVersionStore", "KeyedView", "OCCStateView", "read_base_value"]

#: what a view records for an external read (OCC: the snapshot version;
#: Block-STM: the ``(writer, incarnation)`` that produced the value)
W = TypeVar("W")

#: "no buffered value" marker: buffered values are ints and bytes
_ABSENT: Any = object()


def read_base_value(base: Any, key: StateKey) -> Any:
    """Value of ``key`` in a committed snapshot (version-0 fallback).

    The reference for the stores' inlined base reads: any object exposing
    ``account(address)`` works as ``base``, and every read goes through it
    once (a guarded base raises there).
    """
    kind, address, slot = key
    acct = base.account(address)
    if acct is None:
        return b"" if kind == "code" else 0
    return acct.storage.get(slot, 0) if kind == "storage" else getattr(acct, kind)


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
        # read_base_value, inlined: one Python call below the view's load
        kind, address, slot = key
        acct = self.base.account(address)
        if acct is None:
            return b"" if kind == "code" else 0
        return acct.storage.get(slot, 0) if kind == "storage" else getattr(acct, kind)

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

    Every interface call builds its :data:`StateKey` once and crosses one
    layer: a buffered read is a dict lookup, an unbuffered one is
    :meth:`_load` and the source below it.  Writes go to a local buffer
    (read-your-own-write, invisible to others until commit) with journal
    marks, so reverting call frames restores the buffer exactly.  Recording
    follows the rule the validator's
    :class:`~repro.state.access.RecordingState` applies, so speculative
    profiles diff cleanly against the serial replay's recorded sets: the
    first external read of a key wins; a key this transaction wrote is never
    recorded as read, even after the write was reverted; :attr:`writes`
    survives reverts (a read that steered control flow matters even if its
    frame rolled back, and a kept write can cause a false conflict, never a
    missed one); code is recorded as a short int; ``account_exists``
    records the nonce key only.

    Subclasses supply :meth:`_load` — where an unbuffered read comes from;
    it records the witness ``W`` of the read itself.
    """

    __slots__ = ("_buffer", "_journal", "reads", "writes")

    def __init__(self) -> None:
        self._buffer: Dict[StateKey, Any] = {}
        self._journal: List[Tuple[StateKey, Any]] = []
        #: key -> witness of the first external read
        self.reads: Dict[StateKey, W] = {}
        #: rw-set writes (code as an int; kept across reverts)
        self.writes: Dict[StateKey, int] = {}

    def _load(self, key: StateKey, record: bool = True) -> Any:
        """Value of the unbuffered ``key`` as this transaction sees it;
        records its witness unless ``record`` is off or the key is known."""
        raise NotImplementedError

    def _read(self, key: StateKey, record: bool = True) -> Any:
        value = self._buffer.get(key, _ABSENT)
        return self._load(key, record) if value is _ABSENT else value

    def _write(self, key: StateKey, value: Any, recorded: int) -> None:
        self.writes[key] = recorded
        buffer = self._buffer
        self._journal.append((key, buffer.get(key, _ABSENT)))
        buffer[key] = value

    # -- StateDB interface ------------------------------------------------ #
    # (the getters inline :meth:`_read`: an unbuffered read is ``_load``
    # and the store's ``read_at``, whose base ``account`` may raise)

    def account_exists(self, address: Address) -> bool:
        # Existence approximated by non-default nonce/balance/code: in this
        # system accounts are funded at genesis or created by CREATE.
        return (
            self._read(("nonce", address, None)) != 0
            or self._read(("balance", address, None), record=False) != 0
            or self._read(("code", address, None), record=False) != b""
        )

    def get_balance(self, address: Address) -> int:
        key = ("balance", address, None)
        value = self._buffer.get(key, _ABSENT)
        return self._load(key) if value is _ABSENT else value

    def get_nonce(self, address: Address) -> int:
        key = ("nonce", address, None)
        value = self._buffer.get(key, _ABSENT)
        return self._load(key) if value is _ABSENT else value

    def get_code(self, address: Address) -> bytes:
        key = ("code", address, None)
        value = self._buffer.get(key, _ABSENT)
        return self._load(key) if value is _ABSENT else value

    def get_storage(self, address: Address, slot: int) -> int:
        key = ("storage", address, slot)
        value = self._buffer.get(key, _ABSENT)
        return self._load(key) if value is _ABSENT else value

    def _set_balance(self, key: StateKey, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative balance for {key[1].hex()}")
        self._write(key, value, value)

    def set_balance(self, address: Address, value: int) -> None:
        self._set_balance(("balance", address, None), value)

    def add_balance(self, address: Address, amount: int) -> None:
        key = ("balance", address, None)
        buffer = self._buffer
        old = buffer.get(key, _ABSENT)
        value = (self._load(key) if old is _ABSENT else old) + amount
        if value < 0:
            raise ValueError(f"negative balance for {address.hex()}")
        # _write, inlined: the refund credits the sender through here
        self.writes[key] = value
        self._journal.append((key, old))
        buffer[key] = value

    def sub_balance(self, address: Address, amount: int) -> None:
        key = ("balance", address, None)
        self._set_balance(key, self._read(key) - amount)

    def set_nonce(self, address: Address, value: int) -> None:
        self._write(("nonce", address, None), value, value)

    def increment_nonce(self, address: Address) -> None:
        key = ("nonce", address, None)
        value = self._read(key) + 1
        self._write(key, value, value)

    def set_code(self, address: Address, code: bytes) -> None:
        self._write(("code", address, None), code, recorded_code(code))

    def set_storage(self, address: Address, slot: int, value: int) -> None:
        self._write(("storage", address, slot), value, value)

    def create_account(self, address: Address) -> None:
        # No-op: existence is implied by the first write to the account.
        return None

    # -- the transaction envelope ----------------------------------------- #

    def charge_sender(
        self, sender: Address, nonce: int, intrinsic: int, gas_limit: int, upfront: int, value: int
    ) -> None:
        """Check and charge a transaction's sender in one call.

        Checks the nonce, then ``intrinsic <= gas_limit``, then that the
        balance covers ``upfront + value`` — raising
        :class:`~repro.evm.interpreter.InvalidTransaction` at the first that
        fails — then increments the nonce and debits ``upfront`` (no balance
        write when it is zero).  Loads each key once; records the reads and
        writes, in the order, of ``get_nonce`` / ``get_balance`` /
        ``increment_nonce`` / ``sub_balance``.
        """
        buffer, journal, writes = self._buffer, self._journal, self.writes
        key = ("nonce", sender, None)
        current = buffer.get(key, _ABSENT)
        if current is _ABSENT:
            current = self._load(key)
        if current != nonce:
            raise InvalidTransaction.nonce_mismatch(nonce, current)
        if intrinsic > gas_limit:
            raise InvalidTransaction.intrinsic_gas(intrinsic, gas_limit)
        funds_key = ("balance", sender, None)
        balance = buffer.get(funds_key, _ABSENT)
        if balance is _ABSENT:
            balance = self._load(funds_key)
        if balance < upfront + value:
            raise InvalidTransaction.insufficient_funds()
        # _write, inlined
        writes[key] = current + 1
        journal.append((key, buffer.get(key, _ABSENT)))
        buffer[key] = current + 1
        if upfront:
            writes[funds_key] = balance - upfront
            journal.append((funds_key, buffer.get(funds_key, _ABSENT)))
            buffer[funds_key] = balance - upfront

    def transfer(self, sender: Address, to: Address, value: int) -> bool:
        """Move ``value`` from ``sender`` to ``to``; False (and nothing
        written) when the sender's balance falls short.  Records what
        ``get_balance`` / ``sub_balance`` / ``add_balance`` would."""
        buffer, journal, writes = self._buffer, self._journal, self.writes
        key = ("balance", sender, None)
        old = buffer.get(key, _ABSENT)
        balance = self._load(key) if old is _ABSENT else old
        if balance < value:
            return False
        # _write, inlined (twice)
        writes[key] = balance - value
        journal.append((key, old))
        buffer[key] = balance - value
        key = ("balance", to, None)
        old = buffer.get(key, _ABSENT)
        balance = (self._load(key) if old is _ABSENT else old) + value
        writes[key] = balance
        journal.append((key, old))
        buffer[key] = balance
        return True

    # -- journal ------------------------------------------------------------ #

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
        """The write buffer itself, not a copy: read it once the view is done."""
        return self._buffer


class OCCStateView(KeyedView[int]):
    """One optimistic transaction's view of a multi-version store.

    Unbuffered reads come from ``store`` at ``snapshot_version`` and record
    that version.  On successful execution the proposer applies
    :attr:`buffered_writes` to the store at the transaction's commit
    version and validates :attr:`rw` against the reserve table.
    """

    __slots__ = ("store", "snapshot_version", "_read_at")

    def __init__(self, store: Any, snapshot_version: int) -> None:
        # KeyedView.__init__, inlined: one view is built per execution
        self._buffer = {}
        self._journal = []
        self.reads = {}
        self.writes = {}
        #: a :class:`MultiVersionStore` or anything with its ``read_at``
        self.store = store
        self.snapshot_version = snapshot_version
        self._read_at = store.read_at

    @property
    def rw(self) -> ReadWriteSet:
        """The recorded read/write set (a view of :attr:`reads` / :attr:`writes`)."""
        return ReadWriteSet(self.reads, self.writes)

    def _load(self, key: StateKey, record: bool = True) -> Any:
        version = self.snapshot_version
        value = self._read_at(key, version)
        if record and key not in self.reads and key not in self.writes:
            self.reads[key] = version
        return value
