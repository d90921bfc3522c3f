"""Merkle proofs over the MPT: generation and stateless verification.

A proof for key *k* is the list of node encodings on the path from the
root to the terminal node.  A verifier holding only the 32-byte state root
re-hashes the path: each node must either hash to the parent's reference
or be embedded inline (nodes shorter than 32 bytes), exactly as Ethereum's
`eth_getProof` encodes account and storage proofs.

This is what lets light clients — or BlockPilot validators that skip full
re-execution for *cross-checking* purposes — verify a single account or
storage slot against a block header without holding the state.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.common.hashing import keccak
from repro.common.rlp import RLPDecodeError, rlp_decode
from repro.common.types import Address, Hash32
from repro.state.statedb import StateSnapshot
from repro.state.trie import (
    _EXTENSION,
    _LEAF,
    EMPTY_ROOT,
    MPT,
    SecureMPT,
    _Node,
    _node_rlp,
    bytes_to_nibbles,
)

__all__ = ["prove", "verify_proof", "ProofError", "prove_account", "prove_storage", "verify_storage_proof"]


class ProofError(ValueError):
    """The proof does not authenticate against the given root, or is malformed."""


def _hp_decode(encoded: object) -> Tuple[bytes, bool]:
    """Inverse hex-prefix: returns (nibble path, is_leaf)."""
    if not isinstance(encoded, bytes) or not encoded:
        raise ProofError("hex-prefix path is not a non-empty byte string")
    nibbles = bytes_to_nibbles(encoded)
    flag = nibbles[0]  # 0-3; an even path (flag 0 or 2) is padded with a 0
    if flag > 3 or not flag & 1 and nibbles[1]:
        raise ProofError(f"malformed hex-prefix flag {nibbles[:2].hex()}")
    return nibbles[2 - (flag & 1) :], flag >= 2


def prove(trie: MPT, key: bytes) -> List[bytes]:
    """Produce the node-encoding path for ``key`` (inclusion or exclusion);
    ``key`` is what ``trie.get`` takes — a :class:`SecureMPT` hashes it.

    The returned list always starts with the root node's RLP; it is empty
    only for the empty trie.  Nodes whose RLP is shorter than 32 bytes are
    embedded inline in their parent's encoding (yellow-paper node refs),
    so they never appear as separate proof elements.
    """
    proof: List[bytes] = []
    node = trie._root
    if node is None:
        return proof
    path = trie.key_path(key)
    append_next = True  # the root is always an explicit proof element
    while node is not None:
        if append_next:
            proof.append(_node_rlp(node))
        if node[0] == _LEAF:
            break
        if node[0] == _EXTENSION:
            if not path.startswith(node[2]):
                break  # exclusion: the path diverges here
            path = path[len(node[2]) :]
            child: _Node = node[3]
        else:  # branch
            if not path:
                break
            child = node[2 + path[0]]
            if child is None:
                break  # exclusion: no child on the path
            path = path[1:]
        # children with short RLP are embedded in the parent encoding;
        # a hashed reference is 33 bytes
        append_next = len(child[1]) >= 32
        node = child
    return proof


def verify_proof(
    root: Hash32, key: bytes, proof: List[bytes]
) -> Optional[bytes]:
    """Verify ``proof`` for ``key`` against ``root``.

    Returns the proven value (``None`` for a valid exclusion proof).
    Raises :class:`ProofError` when the proof does not authenticate or a
    node on the path is not a well-formed trie node — whatever the bytes.
    """
    if not proof:
        if root == EMPTY_ROOT:
            return None
        raise ProofError("empty proof for non-empty root")

    expected: Any = bytes(root)  # expectation: 32-byte hash or inline struct
    path = bytes_to_nibbles(key)
    index = 0

    node_struct = _take_node(proof, index, expected)
    index += 1

    while True:
        if not isinstance(node_struct, list) or len(node_struct) not in (2, 17):
            raise ProofError("malformed proof node")
        if len(node_struct) == 2:
            nibbles, is_leaf = _hp_decode(node_struct[0])
            if is_leaf:
                value = node_struct[1]
                if not isinstance(value, bytes) or not value:
                    raise ProofError("leaf value is not a non-empty byte string")
                return value if path == nibbles else None  # else: valid exclusion
            # extension
            if not path.startswith(nibbles):
                return None  # exclusion: path diverges
            path = path[len(nibbles) :]
            expected = node_struct[1]
        else:  # branch
            if not path:
                value = node_struct[16]
                if not isinstance(value, bytes):
                    raise ProofError("branch value is not a byte string")
                return value or None
            child = node_struct[path[0]]
            path = path[1:]
            if child == b"":
                return None  # exclusion: no child on the path
            expected = child

        if isinstance(expected, list):
            # inline node embedded in the parent
            node_struct = expected
            continue
        # hashed reference: the next proof element must hash to it
        if index >= len(proof):
            raise ProofError("proof truncated")
        node_struct = _take_node(proof, index, expected)
        index += 1


def _take_node(proof: List[bytes], index: int, expected: bytes) -> list:
    encoding = proof[index]
    if len(expected) != 32:
        raise ProofError("malformed node reference")
    if keccak(encoding) != expected:
        raise ProofError(f"proof node {index} hash mismatch")
    decoded = _decode(encoding, f"proof node {index}")
    if not isinstance(decoded, list):
        raise ProofError("proof node is not a list")
    return decoded


def _decode(data: bytes, what: str) -> Any:
    try:
        return rlp_decode(data)
    except RLPDecodeError as exc:
        raise ProofError(f"{what} is not valid RLP: {exc}") from exc


def prove_account(snapshot: StateSnapshot, address: Address) -> List[bytes]:
    """Account proof against a snapshot's world-state root (eth_getProof)."""
    return prove(snapshot._account_trie, address)


def prove_storage(
    snapshot: StateSnapshot, address: Address, slot: int
) -> Tuple[List[bytes], List[bytes]]:
    """Combined (account_proof, storage_proof) for one slot.

    The account proof authenticates the account body (which embeds the
    storage root) against the state root; the storage proof authenticates
    the slot against that storage root."""
    account_proof = prove_account(snapshot, address)
    trie = snapshot._storage_tries.get(address)
    if trie is None:
        storage_proof: List[bytes] = []
    else:
        storage_proof = prove(trie, slot.to_bytes(32, "big"))
    return account_proof, storage_proof


def verify_storage_proof(
    state_root: Hash32,
    address: Address,
    slot: int,
    account_proof: List[bytes],
    storage_proof: List[bytes],
) -> int:
    """Stateless verification of one storage slot against a state root.

    Returns the proven slot value (0 for proven absence — of the slot or
    of the whole account).  Raises :class:`ProofError` if either proof
    fails to authenticate.
    """
    body = verify_proof(state_root, keccak(address), account_proof)
    if body is None:
        if storage_proof:
            raise ProofError("storage proof supplied for a non-existent account")
        return 0
    decoded = _decode(body, "account body")
    if not (isinstance(decoded, list) and len(decoded) == 4 and isinstance(decoded[2], bytes)):
        raise ProofError("malformed account body")
    if len(decoded[2]) != 32:
        raise ProofError("malformed storage root in account body")
    value_bytes = verify_proof(
        Hash32(decoded[2]), keccak(slot.to_bytes(32, "big")), storage_proof
    )
    if value_bytes is None:
        return 0
    decoded_value = _decode(value_bytes, "storage value")
    if not isinstance(decoded_value, bytes):
        raise ProofError("storage value is not a byte string")
    return int.from_bytes(decoded_value, "big")


def prove_secure(trie: SecureMPT, key: bytes) -> List[bytes]:
    """Proof for a :class:`SecureMPT` entry (key hashed before lookup)."""
    return prove(trie, key)


def verify_secure(root: Hash32, key: bytes, proof: List[bytes]) -> Optional[bytes]:
    """Verify a secure-trie proof (hashes the key before walking)."""
    return verify_proof(root, keccak(key), proof)
