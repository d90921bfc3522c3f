"""An immutable hexary Merkle-Patricia trie (MPT).

This is the commitment structure Ethereum uses for the world state and for
per-contract storage (paper §2.1: two world states are identical iff their
MPT roots match, which is exactly how §5.2 validates correctness).

Design choices:

* **Immutable nodes with structural sharing.**  A mutation returns a new
  root and rebuilds only the nodes on the way to what it changed, so
  snapshotting a trie is free — which is what lets the chain layer keep the
  state of every block (including fork siblings) alive simultaneously.
* **Batch-first.**  :meth:`MPT.update_many` is the one mutation; ``set``
  and ``delete`` are its one-item case.  A batch is de-duplicated, sorted
  once and applied in one descent (:func:`_update`): at a branch the sorted
  run splits by nibble, so a node that a hundred of the batch's keys pass
  through is rebuilt once, not copied a hundred times; an empty slot (or an
  empty trie: genesis, a block's index tries) gets its run built bottom-up
  (:func:`_build`); a subtree in which nothing changed comes back as is.
* **Byte-string paths.**  A nibble path is ``bytes``, one nibble per byte
  (``hexlify`` + ``translate``), in the batch — the descent passes an index
  into its paths instead of cutting them up — and in the nodes, so paths are
  compared, joined and hex-prefix packed by ``bytes`` methods.
* **Yellow-paper encoding.**  Leaf/extension paths use hex-prefix (HP)
  encoding; node references embed the RLP of nodes shorter than 32 bytes
  and the Keccak hash otherwise; the root hash is always the hash of the
  root node's RLP.  Each node caches exactly that reference — ``_ref``, its
  bytes as they appear inside its parent — once it has been computed
  (:func:`_node_ref`), so a parent's RLP is a concatenation of ``_ref``s;
  immutability means it can never go stale, so a commit hashes only the
  nodes it rebuilt.
* **byte-string keys and values.**  A trie turns a key into its path
  through :attr:`MPT.key_path`; :class:`SecureMPT`, the keccak-keyed variant
  the state uses, overrides that and nothing else.
"""

from __future__ import annotations

import hashlib
from binascii import unhexlify
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.common.hashing import keccak
from repro.common.rlp import rlp_list, rlp_string
from repro.common.types import Hash32
from repro.state.cache import bytes_to_nibbles, keccak_path_cached

__all__ = ["MPT", "SecureMPT", "EMPTY_ROOT"]

#: nibble value -> ASCII hex digit (the inverse of ``bytes_to_nibbles``)
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")

#: the hex-prefix flag nibbles, by ``[is_leaf][path length is odd]``
_HP_FLAG = ((b"\x00\x00", b"\x01"), (b"\x02\x00", b"\x03"))


def nibbles_to_bytes(nibbles: bytes) -> bytes:
    """Pack an even-length nibble path back into bytes."""
    return unhexlify(nibbles.translate(_NIBBLE_TO_HEX))


def hp_encode(path: bytes, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag."""
    return nibbles_to_bytes(_HP_FLAG[is_leaf][len(path) & 1] + path)


class _Leaf:
    __slots__ = ("path", "value", "_ref")

    def __init__(self, path: bytes, value: bytes) -> None:
        self.path = path
        self.value = value
        self._ref: Optional[bytes] = None


class _Extension:
    __slots__ = ("path", "child", "_ref")

    def __init__(self, path: bytes, child: "_Node") -> None:
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
_T = TypeVar("_T", bound="MPT")

#: One update of a sorted run, ``(nibble path, value)`` (``b""`` deletes), and
#: what :func:`_build` places: an update or an existing ``(path, subtree)``.
_Entry = Tuple[bytes, bytes]
_Item = Tuple[bytes, Union[bytes, _Node]]

#: Root hash of the empty trie: hash of the RLP of the empty byte string.
EMPTY_ROOT = keccak(rlp_string(b""))


def _node_rlp(node: _Node) -> bytes:
    """Canonical RLP of a node, assembled from its children's references."""
    if isinstance(node, _Leaf):
        return rlp_list((rlp_string(hp_encode(node.path, True)), rlp_string(node.value)))
    if isinstance(node, _Extension):
        return rlp_list((rlp_string(hp_encode(node.path, False)), _node_ref(node.child)))
    parts = [b"\x80" if c is None else c._ref or _node_ref(c) for c in node.children]
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
        ref = node._ref = (
            rlp if len(rlp) < 32 else b"\xa0" + hashlib.sha3_256(rlp).digest()
        )
    return ref


def _get(node: Optional[_Node], path: bytes) -> Optional[bytes]:
    depth = 0
    while node is not None:
        if isinstance(node, _Branch):
            if depth == len(path):
                return node.value
            node = node.children[path[depth]]
            depth += 1
        elif isinstance(node, _Leaf):
            return node.value if path[depth:] == node.path else None
        else:
            if not path.startswith(node.path, depth):
                return None
            depth += len(node.path)
            node = node.child
    return None


def _build(items: Sequence[_Item], lo: int, hi: int, depth: int) -> _Node:
    """Bottom-up construction of the subtree that holds ``items[lo:hi]``: a
    non-empty sorted run of distinct paths that agree on their first
    ``depth`` nibbles, none of them a delete.  Each node is built once."""
    first, payload = items[lo]
    if hi - lo == 1:
        rest = first[depth:]
        if isinstance(payload, bytes):
            return _Leaf(rest, payload)
        # an existing subtree, ``rest`` further down than it was: a leaf or
        # an extension absorbs the nibbles, a branch gets an extension
        if not rest:
            return payload
        if isinstance(payload, _Leaf):
            return _Leaf(rest + payload.path, payload.value)
        if isinstance(payload, _Extension):
            return _Extension(rest + payload.path, payload.child)
        return _Extension(rest, payload)
    # sorted: what the two ends share, everything between them shares
    last = items[hi - 1][0]
    split = depth
    while split < len(first) and first[split] == last[split]:
        split += 1
    if split > depth:
        return _Extension(first[depth:split], _build(items, lo, hi, split))
    children: List[Optional[_Node]] = [None] * 16
    value: Optional[bytes] = None
    if len(first) == depth:  # the path that ends here sorts first
        assert isinstance(payload, bytes)
        value = payload
        lo += 1
    while lo < hi:
        nibble = items[lo][0][depth]
        end = lo + 1
        while end < hi and items[end][0][depth] == nibble:
            end += 1
        children[nibble] = _build(items, lo, end, depth + 1)
        lo = end
    return _Branch(tuple(children), value)


def _update(
    node: Optional[_Node], items: Sequence[_Entry], lo: int, hi: int, depth: int
) -> Optional[_Node]:
    """``node`` with ``items[lo:hi]`` applied, in one descent.

    The run is sorted, its paths distinct and equal over their first
    ``depth`` nibbles (the way down to ``node``), ``lo < hi``.  A branch
    hands each slot its stretch of the run and is rebuilt once if any slot
    changed; whatever else the run meets — nothing, a leaf, an extension, a
    branch that deletes left with fewer than two entries — joins the run as
    one more item and :func:`_build` places the merged run.  ``node`` itself
    comes back when nothing under it changed (deletes of absent keys,
    rewrites of an equal value).
    """
    first = items[lo][0]
    run: List[_Item]
    if isinstance(node, _Branch):
        value = node.value
        if len(first) == depth:
            value = items[lo][1] or None
            lo += 1
        shrunk = value is None and node.value is not None
        children: Optional[List[Optional[_Node]]] = None
        while lo < hi:
            nibble = items[lo][0][depth]
            end = lo + 1
            while end < hi and items[end][0][depth] == nibble:
                end += 1
            old = node.children[nibble]
            new = _update(old, items, lo, end, depth + 1)
            if new is not old:
                if children is None:
                    children = list(node.children)
                children[nibble] = new
                shrunk = shrunk or new is None
            lo = end
        if children is None and value == node.value:
            return node
        if not shrunk:
            return _Branch(tuple(children or node.children), value)
        # a delete emptied a slot and a branch needs two entries: what is
        # left is placed anew (one survivor merges into what is below it)
        run = [] if value is None else [(first[:depth], value)]
        for nibble, child in enumerate(children or node.children):
            if child is not None:
                run.append((first[:depth] + bytes((nibble,)), child))
    elif node is None:
        run = [item for item in items[lo:hi] if item[1]]
    elif isinstance(node, _Leaf):
        if hi - lo == 1 and first[depth:] == node.path:
            value = items[lo][1]  # the common case: one overwrite, or one delete
            if value == node.value:
                return node
            return _Leaf(node.path, value) if value else None
        own = first[:depth] + node.path
        merged = {own: node.value}
        merged.update(items[lo:hi])
        run = sorted(item for item in merged.items() if item[1])
        if run == [(own, node.value)]:
            return node
    else:
        # the items below the whole of the extension's path are one stretch
        # of the sorted run and go down to its child ...
        own = first[:depth] + node.path
        start = lo
        while start < hi and not items[start][0].startswith(own):
            start += 1
        end = start
        while end < hi and items[end][0].startswith(own):
            end += 1
        below: Optional[_Node] = node.child
        if start < end:
            below = _update(below, items, start, end, len(own))
        # ... the others leave it part-way: deletes among them name absent keys
        run = [item for item in (*items[lo:start], *items[end:hi]) if item[1]]
        if below is node.child and not run:
            return node
        if below is not None:
            run.append((own, below))
            run.sort()
    return _build(run, 0, len(run), depth) if run else None


def _iter_items(node: Optional[_Node], prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
    if isinstance(node, _Branch):
        if node.value is not None:
            yield prefix, node.value
        for nibble, child in enumerate(node.children):
            yield from _iter_items(child, prefix + bytes((nibble,)))
    elif isinstance(node, _Leaf):
        yield prefix + node.path, node.value
    elif node is not None:
        yield from _iter_items(node.child, prefix + node.path)


class MPT:
    """Immutable Merkle-Patricia trie handle.

    All mutating operations return a *new* trie; the receiver is
    unchanged.  Keys and values are ``bytes``; setting a key to the empty
    value deletes it (Ethereum semantics for zero-valued storage).
    """

    __slots__ = ("_root",)

    #: how a key becomes its nibble path — the one thing a subclass changes
    key_path = staticmethod(bytes_to_nibbles)

    def __init__(self, _root: Optional[_Node] = None) -> None:
        self._root = _root

    def get(self, key: bytes) -> Optional[bytes]:
        return _get(self._root, self.key_path(key))

    def update_many(self: _T, items: Iterable[Tuple[bytes, bytes]]) -> _T:
        """Apply a batch of ``(key, value)`` updates: the one mutation.

        ``b""`` values delete; of several pairs for one key the last wins.
        One sort, one descent, each node on the way to a changed entry
        rebuilt once (:func:`_update`).  Returns ``self`` when nothing
        changed — an empty batch, deletes of absent keys, equal values —
        so snapshots that share a trie keep sharing it.
        """
        key_path = self.key_path
        batch = {key_path(key): value for key, value in items}
        if not batch:
            return self
        run = sorted(batch.items())
        root = _update(self._root, run, 0, len(run), 0)
        return self if root is self._root else type(self)(root)

    def set(self: _T, key: bytes, value: bytes) -> _T:
        return self.update_many(((key, value),))

    def delete(self: _T, key: bytes) -> _T:
        return self.update_many(((key, b""),))

    def root_hash(self) -> Hash32:
        if self._root is None:
            return EMPTY_ROOT
        ref = _node_ref(self._root)
        # a hashed reference is 33 bytes, an inline one under 32
        return Hash32(ref[1:]) if len(ref) == 33 else keccak(ref)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in lexicographic order of the keys
        as stored (a :class:`SecureMPT` stores, and yields, hashed keys).

        Only keys with an even nibble count (i.e. whole bytes) are
        representable; all keys inserted through :meth:`set` qualify.
        """
        for nibbles, value in _iter_items(self._root, b""):
            yield nibbles_to_bytes(nibbles), value

    def __len__(self) -> int:
        return sum(1 for _ in _iter_items(self._root, b""))

    def is_empty(self) -> bool:
        return self._root is None


class SecureMPT(MPT):
    """MPT variant that keys entries by ``keccak(key)``.

    This mirrors Ethereum's *secure trie*: it bounds path depth and
    prevents key-grinding attacks on the structure.  Iteration yields
    hashed keys, so callers that need reverse lookup keep their own index
    (the :class:`~repro.state.statedb.StateDB` does); ``MPT(trie._root)``
    is the same trie addressed by those hashed keys.

    The path of ``keccak(key)`` comes from the process-wide keccak memo
    (:func:`~repro.state.cache.keccak_path_cached`) — commits file the same
    addresses and slot keys block after block, so a memo hit saves the hash
    *and* its conversion into nibbles without changing any root (the memo is
    a pure-function cache).
    """

    __slots__ = ()

    key_path = staticmethod(keccak_path_cached)
