"""World-state substrate: accounts, tries, the journaling StateDB and the
multi-version store that backs OCC snapshots.

Layering (bottom up):

* :mod:`repro.state.trie` -- an immutable hexary Merkle-Patricia trie with
  structural sharing; commitment roots follow the yellow-paper node
  encoding (RLP + hash refs for nodes of 32 bytes or more).
* :mod:`repro.state.account` -- account records and their trie encoding.
* :mod:`repro.state.statedb` -- the mutable execution-facing state with an
  undo journal (transaction revert), commitment to immutable
  :class:`~repro.state.statedb.StateSnapshot` objects, and root hashing.
* :mod:`repro.state.versioned` -- the multi-version key/value store and
  the keyed speculative view (buffer, journal, rw-set recording) the
  proposer engines execute against.
* :mod:`repro.state.access` -- state keys, read/write sets and the
  recording wrapper that captures them for address-keyed states.
"""

from repro.state.trie import MPT, EMPTY_ROOT, index_root
from repro.state.account import AccountData, EMPTY_ACCOUNT
from repro.state.statedb import StateDB, StateSnapshot, genesis_snapshot
from repro.state.versioned import KeyedView, MultiVersionStore, OCCStateView
from repro.state.serialize import snapshot_to_json, snapshot_from_json, SnapshotFormatError
from repro.state.access import (
    StateKey,
    RecordingState,
    ReadWriteSet,
    balance_key,
    nonce_key,
    code_key,
    storage_key,
)

__all__ = [
    "MPT",
    "EMPTY_ROOT",
    "index_root",
    "AccountData",
    "EMPTY_ACCOUNT",
    "StateDB",
    "StateSnapshot",
    "genesis_snapshot",
    "MultiVersionStore",
    "KeyedView",
    "OCCStateView",
    "StateKey",
    "RecordingState",
    "ReadWriteSet",
    "balance_key",
    "nonce_key",
    "code_key",
    "storage_key",
    "snapshot_to_json",
    "snapshot_from_json",
    "SnapshotFormatError",
]
