"""An immutable hexary Merkle-Patricia trie (MPT).

This is the commitment structure Ethereum uses for the world state and for
per-contract storage (paper §2.1: two world states are identical iff their
MPT roots match, which is exactly how §5.2 validates correctness).

Design choices:

* **Immutable nodes with structural sharing.**  ``insert``/``delete``
  return a new root and copy only the path they touch, so snapshotting a
  trie is free — which is what lets the chain layer keep the state of every
  block (including fork siblings) alive simultaneously.
* **Yellow-paper encoding.**  Leaf/extension paths use hex-prefix (HP)
  encoding; node references embed the RLP of nodes shorter than 32 bytes
  and the Keccak hash otherwise; the root hash is always the hash of the
  root node's RLP.  Each node caches that reference once it has been
  computed (:func:`_node_ref`); immutability means it can never go stale,
  so a commit hashes only the nodes on the paths it rewrote.
* **byte-string keys and values.**  Callers hash/serialise their own keys
  (see :class:`SecureMPT` for the keccak-keyed variant used by the state).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.common.hashing import keccak
from repro.common.rlp import rlp_list, rlp_string
from repro.common.types import Hash32
from repro.state.cache import keccak_cached

__all__ = ["MPT", "SecureMPT", "EMPTY_ROOT"]

Nibbles = Tuple[int, ...]


#: maps an ASCII hex digit to its value, for :func:`bytes_to_nibbles`
_HEX_DIGIT_VALUE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def bytes_to_nibbles(key: bytes) -> Nibbles:
    return tuple(key.hex().encode().translate(_HEX_DIGIT_VALUE))


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble path back into bytes."""
    return bytes.fromhex(bytes(nibbles).hex()[1::2])


def hp_encode(path: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag."""
    if len(path) % 2:
        return nibbles_to_bytes((3 if is_leaf else 1,) + path)
    return (b"\x20" if is_leaf else b"\x00") + nibbles_to_bytes(path)


def _common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


class _Leaf:
    __slots__ = ("path", "value", "_ref")

    def __init__(self, path: Nibbles, value: bytes) -> None:
        self.path = path
        self.value = value
        self._ref: Optional[bytes] = None


class _Extension:
    __slots__ = ("path", "child", "_ref")

    def __init__(self, path: Nibbles, child: "_Node") -> None:
        self.path = path
        self.child = child
        self._ref: Optional[bytes] = None


class _Branch:
    __slots__ = ("children", "value", "_ref")

    def __init__(
        self, children: Tuple[Optional["_Node"], ...], value: Optional[bytes]
    ) -> None:
        self.children = children
        self.value = value
        self._ref: Optional[bytes] = None


_Node = Union[_Leaf, _Extension, _Branch]

_EMPTY_CHILDREN: Tuple[Optional[_Node], ...] = (None,) * 16

#: Root hash of the empty trie: hash of the RLP of the empty byte string.
EMPTY_ROOT = keccak(rlp_string(b""))


def _node_rlp(node: _Node) -> bytes:
    """Canonical RLP of a node, assembled from its children's references."""
    if isinstance(node, _Leaf):
        return rlp_list((rlp_string(hp_encode(node.path, True)), rlp_string(node.value)))
    if isinstance(node, _Extension):
        return rlp_list((rlp_string(hp_encode(node.path, False)), _node_ref(node.child)))
    parts = [b"\x80" if c is None else _node_ref(c) for c in node.children]
    parts.append(b"\x80" if node.value is None else rlp_string(node.value))
    return rlp_list(parts)


def _node_ref(node: _Node) -> bytes:
    """The node as it appears, already encoded, inside its parent: its RLP
    when that is shorter than 32 bytes, else ``0xa0 || keccak(RLP)`` (yellow
    paper, appendix D).  Cached on the node; the write is an idempotent store
    of a pure function of immutable fields, hence safe under ``ThreadBackend``.
    """
    ref = node._ref
    if ref is None:
        rlp = _node_rlp(node)
        ref = node._ref = rlp if len(rlp) < 32 else b"\xa0" + keccak(rlp)
    return ref


def _get(node: Optional[_Node], path: Nibbles) -> Optional[bytes]:
    while node is not None:
        if isinstance(node, _Leaf):
            return node.value if node.path == path else None
        if isinstance(node, _Extension):
            k = len(node.path)
            if path[:k] != node.path:
                return None
            path = path[k:]
            node = node.child
            continue
        # branch
        if not path:
            return node.value
        child = node.children[path[0]]
        path = path[1:]
        node = child
    return None


def _insert(node: Optional[_Node], path: Nibbles, value: bytes) -> _Node:
    if node is None:
        return _Leaf(path, value)
    if isinstance(node, _Leaf):
        if node.path == path:
            return _Leaf(path, value)
        common = _common_prefix_len(node.path, path)
        old_rest = node.path[common:]
        new_rest = path[common:]
        children = list(_EMPTY_CHILDREN)
        branch_value: Optional[bytes] = None
        if old_rest:
            children[old_rest[0]] = _Leaf(old_rest[1:], node.value)
        else:
            branch_value = node.value
        if new_rest:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)
        else:
            branch_value = value
        branch = _Branch(tuple(children), branch_value)
        if common:
            return _Extension(path[:common], branch)
        return branch
    if isinstance(node, _Extension):
        common = _common_prefix_len(node.path, path)
        if common == len(node.path):
            child = _insert(node.child, path[common:], value)
            return _Extension(node.path, child)
        # split the extension
        ext_rest = node.path[common:]
        new_rest = path[common:]
        children = list(_EMPTY_CHILDREN)
        branch_value = None
        sub = (
            node.child
            if len(ext_rest) == 1
            else _Extension(ext_rest[1:], node.child)
        )
        children[ext_rest[0]] = sub
        if new_rest:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)
        else:
            branch_value = value
        branch = _Branch(tuple(children), branch_value)
        if common:
            return _Extension(path[:common], branch)
        return branch
    # branch
    if not path:
        return _Branch(node.children, value)
    idx = path[0]
    child = _insert(node.children[idx], path[1:], value)
    children = list(node.children)
    children[idx] = child
    return _Branch(tuple(children), node.value)


def _normalize_branch(node: _Branch) -> Optional[_Node]:
    """Collapse a branch left with <2 meaningful entries after a delete."""
    live = [(i, c) for i, c in enumerate(node.children) if c is not None]
    if node.value is not None:
        if live:
            return node
        return _Leaf((), node.value)
    if len(live) > 1:
        return node
    if not live:
        return None
    idx, child = live[0]
    # merge the branch slot nibble into the surviving child
    if isinstance(child, _Leaf):
        return _Leaf((idx,) + child.path, child.value)
    if isinstance(child, _Extension):
        return _Extension((idx,) + child.path, child.child)
    return _Extension((idx,), child)


def _delete(node: Optional[_Node], path: Nibbles) -> Optional[_Node]:
    if node is None:
        return None
    if isinstance(node, _Leaf):
        return None if node.path == path else node
    if isinstance(node, _Extension):
        k = len(node.path)
        if path[:k] != node.path:
            return node
        child = _delete(node.child, path[k:])
        if child is node.child:
            return node
        if child is None:
            return None
        if isinstance(child, _Leaf):
            return _Leaf(node.path + child.path, child.value)
        if isinstance(child, _Extension):
            return _Extension(node.path + child.path, child.child)
        return _Extension(node.path, child)
    # branch
    if not path:
        if node.value is None:
            return node
        return _normalize_branch(_Branch(node.children, None))
    idx = path[0]
    old_child = node.children[idx]
    child = _delete(old_child, path[1:])
    if child is old_child:
        return node
    children = list(node.children)
    children[idx] = child
    return _normalize_branch(_Branch(tuple(children), node.value))


def _iter_items(node: Optional[_Node], prefix: Nibbles) -> Iterator[tuple[Nibbles, bytes]]:
    if node is None:
        return
    if isinstance(node, _Leaf):
        yield prefix + node.path, node.value
        return
    if isinstance(node, _Extension):
        yield from _iter_items(node.child, prefix + node.path)
        return
    if node.value is not None:
        yield prefix, node.value
    for i, child in enumerate(node.children):
        if child is not None:
            yield from _iter_items(child, prefix + (i,))


class MPT:
    """Immutable Merkle-Patricia trie handle.

    All mutating operations return a *new* :class:`MPT`; the receiver is
    unchanged.  Keys and values are ``bytes``; setting a key to the empty
    value deletes it (Ethereum semantics for zero-valued storage).
    """

    __slots__ = ("_root",)

    def __init__(self, _root: Optional[_Node] = None) -> None:
        self._root = _root

    def get(self, key: bytes) -> Optional[bytes]:
        return _get(self._root, bytes_to_nibbles(key))

    def set(self, key: bytes, value: bytes) -> "MPT":
        if value == b"":
            return self.delete(key)
        return MPT(_insert(self._root, bytes_to_nibbles(key), value))

    def delete(self, key: bytes) -> "MPT":
        new_root = _delete(self._root, bytes_to_nibbles(key))
        if new_root is self._root:
            return self
        return MPT(new_root)

    def root_hash(self) -> Hash32:
        if self._root is None:
            return EMPTY_ROOT
        ref = _node_ref(self._root)
        # a hashed reference is 33 bytes, an inline one under 32
        return Hash32(ref[1:]) if len(ref) == 33 else keccak(ref)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in lexicographic key order.

        Only keys with an even nibble count (i.e. whole bytes) are
        representable; all keys inserted through :meth:`set` qualify.
        """
        for nibbles, value in _iter_items(self._root, ()):
            yield nibbles_to_bytes(nibbles), value

    def __len__(self) -> int:
        return sum(1 for _ in _iter_items(self._root, ()))

    def is_empty(self) -> bool:
        return self._root is None


class SecureMPT:
    """MPT variant that keys entries by ``keccak(key)``.

    This mirrors Ethereum's *secure trie*: it bounds path depth and
    prevents key-grinding attacks on the structure.  Iteration yields
    hashed keys, so callers that need reverse lookup keep their own index
    (the :class:`~repro.state.statedb.StateDB` does).

    Key hashing goes through the process-wide :func:`keccak_cached` memo —
    commits re-hash the same addresses and slot keys block after block, so
    memoizing the preimage→digest map saves one hash per access without
    changing any root (the memo is a pure-function cache).
    """

    __slots__ = ("_trie",)

    def __init__(self, _trie: Optional[MPT] = None) -> None:
        self._trie = _trie if _trie is not None else MPT()

    def get(self, key: bytes) -> Optional[bytes]:
        return self._trie.get(keccak_cached(key))

    def set(self, key: bytes, value: bytes) -> "SecureMPT":
        return SecureMPT(self._trie.set(keccak_cached(key), value))

    def delete(self, key: bytes) -> "SecureMPT":
        return SecureMPT(self._trie.delete(keccak_cached(key)))

    def update_many(self, items: Iterable[Tuple[bytes, bytes]]) -> "SecureMPT":
        """Apply a batch of ``(key, value)`` updates in one pass.

        ``b""`` values delete (Ethereum zero-storage semantics), matching
        :meth:`set`.  Returns ``self`` unchanged when every update is a
        no-op, preserving structural sharing for snapshot identity checks.
        The batch amortises the per-call ``SecureMPT`` wrapper allocation
        that ``StateDB.commit()`` previously paid per storage slot.
        """
        trie = self._trie
        for key, value in items:
            if value == b"":
                trie = trie.delete(keccak_cached(key))
            else:
                trie = trie.set(keccak_cached(key), value)
        if trie is self._trie:
            return self
        return SecureMPT(trie)

    def root_hash(self) -> Hash32:
        return self._trie.root_hash()

    def is_empty(self) -> bool:
        return self._trie.is_empty()
