"""Workload trace recording and replay.

The paper evaluates on a *fixed* set of real blocks, which makes results
comparable across systems and runs.  The generator here is seeded and
deterministic, but a serialised trace gives the same property across
library versions and lets users archive interesting workloads (e.g. a
block that exposed a scheduling pathology) or hand-craft adversarial ones.

Format: JSON, one object with a version tag and a list of blocks, each a
list of transactions with hex-encoded binary fields.  Traces round-trip
exactly (``Transaction`` equality), which the tests verify by replaying a
recorded trace through the proposer and comparing state roots.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.common.types import address_from_hex
from repro.txpool.transaction import Transaction

__all__ = ["dump_trace", "load_trace", "save_trace_file", "load_trace_file", "TraceError"]

FORMAT_VERSION = 1


class TraceError(ValueError):
    """Malformed or unsupported trace document."""


def _tx_to_dict(tx: Transaction) -> Dict[str, Any]:
    return {
        "sender": tx.sender.hex(),
        "to": tx.to.hex() if tx.to is not None else None,
        "value": str(tx.value),  # strings: JSON numbers lose >2**53 ints
        "data": tx.data.hex(),
        "gas_limit": tx.gas_limit,
        "gas_price": tx.gas_price,
        "nonce": tx.nonce,
        "tag": tx.tag,
    }


def _integer(obj: Dict[str, Any], field: str, *, digits: bool = False) -> int:
    """A field holding a JSON integer (not a bool, not a float) or, with
    ``digits``, a string of ASCII decimal digits: how ``dump_trace``
    writes ``value``.  ``int()`` would truncate ``1.5`` and parse
    ``True``, ``" 5"`` or ``"1_000"``; this refuses them."""
    value = obj[field]
    if type(value) is int:
        return value
    if digits and isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise TraceError(f"{field} is not an integer: {value!r}")


def _tx_from_dict(obj: Any) -> Transaction:
    if not isinstance(obj, dict):
        raise TraceError("bad transaction record: not an object")
    tag = obj.get("tag", "")
    if not isinstance(tag, str):
        raise TraceError("bad transaction record: tag is not a string")
    try:
        return Transaction(
            sender=address_from_hex(obj["sender"]),
            to=address_from_hex(obj["to"]) if obj["to"] is not None else None,
            value=_integer(obj, "value", digits=True),
            data=bytes.fromhex(obj["data"]),
            gas_limit=_integer(obj, "gas_limit"),
            gas_price=_integer(obj, "gas_price"),
            nonce=_integer(obj, "nonce"),
            tag=tag,
        )
    # OverflowError: a number like 1e400 parses as an infinite float
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise TraceError(f"bad transaction record: {exc}") from exc


def dump_trace(blocks: Sequence[Sequence[Transaction]], *, note: str = "") -> str:
    """Serialise block transaction lists to a JSON document."""
    doc = {
        "format": "repro-workload-trace",
        "version": FORMAT_VERSION,
        "note": note,
        "blocks": [[_tx_to_dict(tx) for tx in block] for block in blocks],
    }
    return json.dumps(doc, indent=1)


def load_trace(text: str) -> List[List[Transaction]]:
    """Parse a trace document back into block transaction lists.

    Any document either parses or raises :class:`TraceError` — a wrong
    shape anywhere, a value out of range or a nesting too deep for the
    parser included; no other exception leaves this function.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise TraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-workload-trace":
        raise TraceError("not a workload trace document")
    if doc.get("version") != FORMAT_VERSION:
        raise TraceError(f"unsupported trace version {doc.get('version')!r}")
    blocks = doc.get("blocks")
    if not isinstance(blocks, list):
        raise TraceError("missing blocks array")
    if not all(isinstance(block, list) for block in blocks):
        raise TraceError("a block is not an array of transactions")
    return [[_tx_from_dict(tx) for tx in block] for block in blocks]


def save_trace_file(
    path: str, blocks: Sequence[Sequence[Transaction]], *, note: str = ""
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_trace(blocks, note=note))


def load_trace_file(path: str) -> List[List[Transaction]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"not UTF-8 text: {exc}") from exc
    return load_trace(text)
