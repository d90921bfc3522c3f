"""The execution-facing world state.

:class:`StateSnapshot` is an immutable committed state: an account map plus
the incrementally-maintained commitment tries (account trie and per-contract
storage tries).  Keeping the state of every block in the chain's resident
window — including fork siblings, which the validator pipeline processes
concurrently (paper §4.3) — costs only the deltas in the tries, which share
structure, but not in the maps: ``commit`` copies ``accounts`` and every
changed contract's storage dict.

:class:`StateDB` is the mutable overlay the EVM executes against.  It keeps
an undo **journal** so a reverting call frame (or an aborted optimistic
transaction) can roll back precisely, mirroring geth's ``StateDB`` journal.
``commit()`` folds the overlay into a new snapshot and updates the tries
only for dirty entries.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set, Tuple

from repro.common.rlp import rlp_int
from repro.common.types import Address, Hash32
from repro.evm.interpreter import InvalidTransaction
from repro.state.account import AccountData, encode_account
from repro.state.trie import SecureMPT

__all__ = ["StateSnapshot", "StateDB", "genesis_snapshot"]


def _slot_key(slot: int) -> bytes:
    return slot.to_bytes(32, "big")


#: the (immutable) trie of an account without storage, and of no accounts
_EMPTY_TRIE = SecureMPT()


class StateSnapshot:
    """An immutable, committed world state with cached commitment tries."""

    __slots__ = ("accounts", "_account_trie", "_storage_tries", "_root")

    def __init__(
        self,
        accounts: Mapping[Address, AccountData],
        account_trie: SecureMPT,
        storage_tries: Mapping[Address, SecureMPT],
    ) -> None:
        self.accounts = accounts
        self._account_trie = account_trie
        self._storage_tries = storage_tries
        self._root: Optional[Hash32] = None

    def account(self, address: Address) -> Optional[AccountData]:
        return self.accounts.get(address)

    def state_root(self) -> Hash32:
        """World-state MPT root (cached; the snapshot is immutable)."""
        if self._root is None:
            self._root = self._account_trie.root_hash()
        return self._root

    def storage_root(self, address: Address) -> Hash32:
        return self._storage_tries.get(address, _EMPTY_TRIE).root_hash()

    def __contains__(self, address: Address) -> bool:
        return address in self.accounts

    def __len__(self) -> int:
        return len(self.accounts)


def genesis_snapshot(
    alloc: Optional[Mapping[Address, AccountData]] = None,
    base: Optional[StateSnapshot] = None,
) -> StateSnapshot:
    """Build the snapshot that holds exactly ``alloc``'s accounts.

    Without a ``base`` every trie is one bottom-up build from its sorted run
    of keys.  With one, the tries are the base's updated by the difference
    between ``base.accounts`` and ``alloc``: an account whose storage equals
    the base's keeps the base's storage trie object, any other applies only
    its changed, added and removed slots, and an account equal to the base's
    keeps its account-trie entry.  An MPT is canonical, so both builds have
    the same root and a build near the base re-hashes only what differs.
    """
    base_accounts: Mapping[Address, AccountData] = base.accounts if base else {}
    base_tries: Mapping[Address, SecureMPT] = base._storage_tries if base else {}
    accounts: Dict[Address, AccountData] = {}
    storage_tries: Dict[Address, SecureMPT] = {}
    bodies = []
    for address, data in (alloc or {}).items():
        storage = data.storage
        if not all(storage.values()):
            # a zero slot is an absent slot: an account of zero slots only
            # is empty, and stays out of the world trie
            storage = {slot: value for slot, value in storage.items() if value}
            data = AccountData(data.nonce, data.balance, data.code, storage)
        if data.is_empty():
            continue
        prior = base_accounts.get(address)
        if prior is None:
            storage_trie = _EMPTY_TRIE.update_many(
                (_slot_key(slot), rlp_int(value)) for slot, value in storage.items()
            )
        elif storage == prior.storage:
            storage_trie = base_tries.get(address, _EMPTY_TRIE)
            if (data.nonce, data.balance, data.code) == (prior.nonce, prior.balance, prior.code):
                data = prior  # the base's account, whose trie entry is still exact
        else:
            old = prior.storage
            updates = [
                (_slot_key(slot), rlp_int(value))
                for slot, value in storage.items()
                if old.get(slot) != value
            ]
            updates.extend((_slot_key(slot), b"") for slot in old if slot not in storage)
            storage_trie = base_tries.get(address, _EMPTY_TRIE).update_many(updates)
        accounts[address] = data
        if not storage_trie.is_empty():
            storage_tries[address] = storage_trie
        if data is not prior:
            bodies.append((address, encode_account(data, storage_trie.root_hash())))
    # a base account the allocation leaves out (or leaves empty) is deleted
    bodies.extend((address, b"") for address in base_accounts if address not in accounts)
    account_trie = base._account_trie if base else _EMPTY_TRIE
    return StateSnapshot(accounts, account_trie.update_many(bodies), storage_tries)


class _Overlay:
    """Mutable per-account overlay inside a StateDB."""

    __slots__ = ("nonce", "balance", "code", "storage", "exists")

    def __init__(self, base: Optional[AccountData]) -> None:
        if base is None:
            self.nonce = 0
            self.balance = 0
            self.code = b""
            self.storage: Dict[int, int] = {}
            self.exists = False
        else:
            self.nonce = base.nonce
            self.balance = base.balance
            self.code = base.code
            self.storage = {}  # only *changed* slots live here
            self.exists = True


class StateDB:
    """Mutable world state with an undo journal, layered on a snapshot.

    The journal records inverse operations; :meth:`snapshot` /
    :meth:`revert_to` give nested-call-frame semantics (geth-style).  A
    ``StateDB`` is single-threaded by design: concurrent execution happens
    either on independent ``StateDB`` instances (validator subgraph lanes
    would be race-free by construction — components are account-disjoint)
    or through the OCC multi-version views in :mod:`repro.state.versioned`.
    """

    def __init__(self, base: StateSnapshot) -> None:
        self._base = base
        self._overlays: Dict[Address, _Overlay] = {}
        self._journal: list[tuple] = []

    # ------------------------------------------------------------------ #
    # overlay plumbing                                                   #
    # ------------------------------------------------------------------ #

    def _overlay(self, address: Address) -> _Overlay:
        # the writers inline the hit (``self._overlays.get(a) or
        # self._overlay(a)``): a call only when an account is first touched
        ov = self._overlays.get(address)
        if ov is None:
            ov = _Overlay(self._base.account(address))
            self._overlays[address] = ov
            self._journal.append(("touch", address))
        return ov

    # ------------------------------------------------------------------ #
    # reads                                                              #
    # ------------------------------------------------------------------ #
    # (each is the overlay, else one call of the base's ``account`` — a
    # guarded base raises there)

    def account_exists(self, address: Address) -> bool:
        ov = self._overlays.get(address)
        if ov is not None:
            return ov.exists
        return self._base.account(address) is not None

    def get_balance(self, address: Address) -> int:
        ov = self._overlays.get(address)
        if ov is not None:
            return ov.balance
        acct = self._base.account(address)
        return acct.balance if acct else 0

    def get_nonce(self, address: Address) -> int:
        ov = self._overlays.get(address)
        if ov is not None:
            return ov.nonce
        acct = self._base.account(address)
        return acct.nonce if acct else 0

    def get_code(self, address: Address) -> bytes:
        ov = self._overlays.get(address)
        if ov is not None:
            return ov.code
        acct = self._base.account(address)
        return acct.code if acct else b""

    def get_storage(self, address: Address, slot: int) -> int:
        ov = self._overlays.get(address)
        if ov is not None:
            if slot in ov.storage:
                return ov.storage[slot]
            if not ov.exists:
                return 0
        acct = self._base.account(address)
        if acct is None:
            return 0
        return acct.storage.get(slot, 0)

    # ------------------------------------------------------------------ #
    # writes (journaled)                                                 #
    # ------------------------------------------------------------------ #

    def set_balance(self, address: Address, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative balance for {address.hex()}: {value}")
        ov = self._overlays.get(address) or self._overlay(address)
        self._journal.append(("balance", address, ov.balance, ov.exists))
        ov.balance = value
        ov.exists = True

    def add_balance(self, address: Address, amount: int) -> None:
        self.set_balance(address, self.get_balance(address) + amount)

    def sub_balance(self, address: Address, amount: int) -> None:
        self.set_balance(address, self.get_balance(address) - amount)

    def set_nonce(self, address: Address, value: int) -> None:
        ov = self._overlays.get(address) or self._overlay(address)
        self._journal.append(("nonce", address, ov.nonce, ov.exists))
        ov.nonce = value
        ov.exists = True

    def increment_nonce(self, address: Address) -> None:
        self.set_nonce(address, self.get_nonce(address) + 1)

    def set_code(self, address: Address, code: bytes) -> None:
        ov = self._overlays.get(address) or self._overlay(address)
        self._journal.append(("code", address, ov.code, ov.exists))
        ov.code = code
        ov.exists = True

    def set_storage(self, address: Address, slot: int, value: int) -> None:
        ov = self._overlays.get(address) or self._overlay(address)
        had = slot in ov.storage
        old = ov.storage.get(slot)
        self._journal.append(("storage", address, slot, old, had, ov.exists))
        ov.storage[slot] = value
        ov.exists = True

    def create_account(self, address: Address) -> None:
        """Ensure an account exists (used by CREATE and genesis helpers)."""
        ov = self._overlays.get(address) or self._overlay(address)
        if not ov.exists:
            self._journal.append(("exists", address, ov.exists))
            ov.exists = True

    # ------------------------------------------------------------------ #
    # the transaction envelope                                           #
    # ------------------------------------------------------------------ #

    def charge_sender(
        self, sender: Address, nonce: int, intrinsic: int, gas_limit: int, upfront: int, value: int
    ) -> None:
        """The keyed views' :meth:`~repro.state.versioned.KeyedView.charge_sender`
        on the overlay: the sender's account is read once, and only a
        transaction that passes every check touches the overlay."""
        ov = self._overlays.get(sender)
        acct = None if ov is not None else self._base.account(sender)
        current = ov.nonce if ov is not None else acct.nonce if acct else 0
        if current != nonce:
            raise InvalidTransaction.nonce_mismatch(nonce, current)
        if intrinsic > gas_limit:
            raise InvalidTransaction.intrinsic_gas(intrinsic, gas_limit)
        balance = ov.balance if ov is not None else acct.balance if acct else 0
        if balance < upfront + value:
            raise InvalidTransaction.insufficient_funds()
        journal = self._journal
        if ov is None:
            ov = self._overlays[sender] = _Overlay(acct)
            journal.append(("touch", sender))
        journal.append(("nonce", sender, current, ov.exists))
        ov.nonce = current + 1
        ov.exists = True
        if upfront:
            journal.append(("balance", sender, balance, True))
            ov.balance = balance - upfront

    def transfer(self, sender: Address, to: Address, value: int) -> bool:
        """Move ``value`` from ``sender`` to ``to``; False when the sender's
        balance falls short (the caller reverts what this touched)."""
        ov = self._overlays.get(sender) or self._overlay(sender)
        if ov.balance < value:
            return False
        journal = self._journal
        journal.append(("balance", sender, ov.balance, ov.exists))
        ov.balance -= value
        ov.exists = True
        ov = self._overlays.get(to) or self._overlay(to)
        journal.append(("balance", to, ov.balance, ov.exists))
        ov.balance += value
        ov.exists = True
        return True

    # ------------------------------------------------------------------ #
    # journal                                                            #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> int:
        """Mark the current journal position for a later revert."""
        return len(self._journal)

    def revert_to(self, mark: int) -> None:
        """Undo every change recorded after ``mark`` (inclusive of frames)."""
        if mark < 0 or mark > len(self._journal):
            raise ValueError(f"invalid journal mark {mark}")
        while len(self._journal) > mark:
            entry = self._journal.pop()
            kind = entry[0]
            if kind == "touch":
                self._overlays.pop(entry[1], None)
            elif kind == "balance":
                _, addr, old, existed = entry
                ov = self._overlays[addr]
                ov.balance = old
                ov.exists = existed
            elif kind == "nonce":
                _, addr, old, existed = entry
                ov = self._overlays[addr]
                ov.nonce = old
                ov.exists = existed
            elif kind == "code":
                _, addr, old, existed = entry
                ov = self._overlays[addr]
                ov.code = old
                ov.exists = existed
            elif kind == "storage":
                _, addr, slot, old, had, existed = entry
                ov = self._overlays[addr]
                if had:
                    ov.storage[slot] = old
                else:
                    ov.storage.pop(slot, None)
                ov.exists = existed
            elif kind == "exists":
                _, addr, old = entry
                self._overlays[addr].exists = old
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown journal entry {kind}")

    # ------------------------------------------------------------------ #
    # commitment                                                         #
    # ------------------------------------------------------------------ #

    def touched_addresses(self) -> Set[Address]:
        return set(self._overlays)

    def commit(self) -> StateSnapshot:
        """Fold the overlay into a new immutable snapshot.

        Only dirty accounts are re-encoded into the account trie, and only
        *effectively* dirty storage slots into the storage tries, so commit
        cost is proportional to the net write set — the property that makes
        block-level state roots affordable (paper §5.2 checks roots per
        block).  Four batching rules keep the trie work minimal without
        changing any root:

        * overlay slots whose value equals the base value are dropped
          (writing an identical trie value cannot move the root);
        * the surviving slots of each account go into its storage trie as
          one :meth:`SecureMPT.update_many` batch, which shares one sorted
          descent between them;
        * an account whose nonce/balance/code match base and whose storage
          batch came out empty keeps its base trie entry untouched;
        * every re-encoded account body and every EIP-158 delete, across
          all overlays, goes into the account trie as one such batch.
        """
        accounts: Dict[Address, AccountData] = dict(self._base.accounts)
        account_updates: list[Tuple[bytes, bytes]] = []
        storage_tries: Dict[Address, SecureMPT] = dict(self._base._storage_tries)

        for address, ov in self._overlays.items():
            base_acct = self._base.account(address)
            if not ov.exists:
                continue
            base_storage: Mapping[int, int] = base_acct.storage if base_acct else {}
            storage = base_storage
            # net storage delta: sorted slots, no-op writes dropped
            changed = [
                (slot, value)
                for slot, value in sorted(ov.storage.items())
                if value != base_storage.get(slot, 0)
            ]
            if changed:
                merged = dict(base_storage)
                updates = []
                for slot, value in changed:
                    if value:
                        merged[slot] = value
                        updates.append(
                            (_slot_key(slot), rlp_int(value))
                        )
                    else:
                        merged.pop(slot, None)
                        updates.append((_slot_key(slot), b""))
                storage_trie = storage_tries.get(address, _EMPTY_TRIE).update_many(updates)
                if storage_trie.is_empty():
                    storage_tries.pop(address, None)
                else:
                    storage_tries[address] = storage_trie
                storage = merged

            if (
                not changed
                and base_acct is not None
                and ov.nonce == base_acct.nonce
                and ov.balance == base_acct.balance
                and ov.code == base_acct.code
            ):
                # touched but unchanged: the base trie entry is still exact
                continue

            new_acct = AccountData(ov.nonce, ov.balance, ov.code, storage)
            if new_acct.is_empty():
                # EIP-158 pruning: drop empty accounts entirely
                accounts.pop(address, None)
                account_updates.append((address, b""))
                storage_tries.pop(address, None)
                continue
            accounts[address] = new_acct
            storage_root = storage_tries.get(address, _EMPTY_TRIE).root_hash()
            account_updates.append(
                (address, encode_account(new_acct, storage_root))
            )

        account_trie = self._base._account_trie.update_many(account_updates)
        return StateSnapshot(accounts, account_trie, storage_tries)
