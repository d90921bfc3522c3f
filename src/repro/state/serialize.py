"""State snapshot export/import as a JSON document.

Geth ships genesis allocations as JSON; this module does the same for
:class:`~repro.state.statedb.StateSnapshot`, so a world can be archived,
diffed (``python -m json.tool`` first: a document is one line), or
hand-authored.  Round-tripping preserves the state root exactly (the tests
assert it).

This is an export format only: the store does not write it, its snapshots
are the binary record of :mod:`repro.store.snapshots`.  The pair is kept for
the ``state.genesis_root_ms`` probe of ``benchmarks/e2e``, which imports it.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.common.types import address_from_hex
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot, genesis_snapshot

__all__ = [
    "snapshot_to_json",
    "snapshot_from_json",
    "SnapshotFormatError",
]

FORMAT_VERSION = 1


class SnapshotFormatError(ValueError):
    """Malformed snapshot document."""


def snapshot_to_json(snapshot: StateSnapshot, *, note: str = "") -> str:
    """Serialise every account (balance, nonce, code, storage) to JSON: one
    line, because without ``indent`` the standard library encodes in C (the
    default separators keep ``"stateRoot": "`` greppable)."""
    accounts = {}
    for address, data in sorted(snapshot.accounts.items()):
        entry: Dict[str, object] = {}
        if data.balance:
            entry["balance"] = str(data.balance)
        if data.nonce:
            entry["nonce"] = data.nonce
        if data.code:
            entry["code"] = data.code.hex()
        if data.storage:
            entry["storage"] = {
                hex(slot): str(value) for slot, value in sorted(data.storage.items())
            }
        accounts[address.hex()] = entry
    doc = {
        "format": "repro-state-snapshot",
        "version": FORMAT_VERSION,
        "note": note,
        "stateRoot": snapshot.state_root().hex(),
        "accounts": accounts,
    }
    return json.dumps(doc)


def snapshot_from_json(text: str, *, verify_root: bool = True) -> StateSnapshot:
    """Rebuild a snapshot; verifies the recorded state root by default.

    Any document either decodes or raises :class:`SnapshotFormatError` —
    a wrong shape anywhere, a value out of range or a nesting too deep for
    the parser included; no other exception leaves this function.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SnapshotFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-state-snapshot":
        raise SnapshotFormatError("not a state snapshot document")
    if doc.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(f"unsupported version {doc.get('version')!r}")
    accounts = doc.get("accounts")
    if not isinstance(accounts, dict):
        raise SnapshotFormatError("bad account record: accounts is not an object")
    recorded = doc.get("stateRoot")
    if recorded is not None and not isinstance(recorded, str):
        raise SnapshotFormatError("stateRoot is not a string")

    alloc = {}
    try:
        for address_hex, entry in accounts.items():
            if not isinstance(entry, dict):
                raise TypeError(f"account {address_hex} is not an object")
            storage = entry.get("storage", {})
            if not isinstance(storage, dict):
                raise TypeError(f"storage of {address_hex} is not an object")
            alloc[address_from_hex(address_hex)] = AccountData(
                nonce=int(entry.get("nonce", 0)),
                balance=int(entry.get("balance", "0")),
                code=bytes.fromhex(entry.get("code", "")),
                storage={int(slot, 16): int(value) for slot, value in storage.items()},
            )
        snapshot = genesis_snapshot(alloc)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SnapshotFormatError(f"bad account record: {exc}") from exc

    if verify_root and recorded is not None:
        if snapshot.state_root().hex() != recorded:
            raise SnapshotFormatError(
                "state root mismatch: document claims "
                f"{recorded[:16]}…, rebuilt {snapshot.state_root().hex()[:16]}…"
            )
    return snapshot
