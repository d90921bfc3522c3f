"""State snapshot import/export (JSON genesis files).

Geth ships genesis allocations as JSON; this module does the same for
:class:`~repro.state.statedb.StateSnapshot`, so worlds can be archived,
diffed (``python -m json.tool`` first: a document is one line), or
hand-authored.  Round-tripping preserves the state root exactly (the
tests assert it), which makes exported snapshots usable as fixtures for
cross-version regression checks.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.common.types import Address
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot, genesis_snapshot

__all__ = [
    "snapshot_to_json",
    "snapshot_from_json",
    "SnapshotFormatError",
    "text_digest",
]


def text_digest(text: str) -> str:
    """SHA-256 of a serialised document's bytes (UTF-8).

    The integrity digest recorded for snapshot files by
    :mod:`repro.store`: an exported world is re-importable iff its bytes
    still hash to what the manifest remembered.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

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
    """Rebuild a snapshot; verifies the recorded state root by default."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-state-snapshot":
        raise SnapshotFormatError("not a state snapshot document")
    if doc.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(f"unsupported version {doc.get('version')!r}")

    alloc = {}
    try:
        for address_hex, entry in doc["accounts"].items():
            storage = {
                int(slot, 16): int(value)
                for slot, value in entry.get("storage", {}).items()
            }
            alloc[Address.from_hex(address_hex)] = AccountData(
                nonce=int(entry.get("nonce", 0)),
                balance=int(entry.get("balance", "0")),
                code=bytes.fromhex(entry.get("code", "")),
                storage=storage,
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise SnapshotFormatError(f"bad account record: {exc}") from exc

    snapshot = genesis_snapshot(alloc)
    recorded = doc.get("stateRoot")
    if verify_root and recorded is not None:
        if snapshot.state_root().hex() != recorded:
            raise SnapshotFormatError(
                "state root mismatch: document claims "
                f"{recorded[:16]}…, rebuilt {snapshot.state_root().hex()[:16]}…"
            )
    return snapshot
