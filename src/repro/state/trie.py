"""An immutable hexary Merkle-Patricia trie (MPT).

This is the commitment structure Ethereum uses for the world state and for
per-contract storage (paper §2.1: two world states are identical iff their
MPT roots match, which is exactly how §5.2 validates correctness).

Design choices:

* **Immutable nodes with structural sharing.**  A mutation returns a new
  root and rebuilds only the nodes on the way to what it changed, so
  snapshotting a trie is free — which is what lets the chain layer keep the
  state of every block in its resident window (including fork siblings)
  alive simultaneously.
* **Batch-first.**  :meth:`MPT.update_many` is the one mutation; ``set``
  and ``delete`` are its one-item case.  A batch is de-duplicated, sorted
  once and applied in one descent (:func:`_update`): at a branch the sorted
  run splits by nibble, so a node that a hundred of the batch's keys pass
  through is rebuilt once, not copied a hundred times; an empty slot (or an
  empty trie: genesis) gets its run built bottom-up (:func:`_build`); a
  subtree in which nothing changed comes back as is.
* **Byte-string paths.**  A nibble path is ``bytes``, one nibble per byte
  (``hexlify`` + ``translate``), in the batch — the descent passes an index
  into its paths instead of cutting them up — and in the nodes, so paths are
  compared, joined and hex-prefix packed by ``bytes`` methods.
* **Yellow-paper encoding, referenced at birth: one wrap, one hash.**
  Paths are hex-prefix (HP) encoded; a node's reference is its RLP if under
  32 bytes, else ``0xa0 || keccak(RLP)``.  The constructors (:func:`_leaf`,
  :func:`_extension`, :func:`_branch`) pack the HP path inline, put the
  node's items under one list prefix and hash that once (:func:`_wrap`, the
  one place a node's RLP is formed; proofs re-form it there unhashed), and
  store the reference in the node: no memo is written later, so nodes are
  thread-safe by construction.
* **Index roots without a trie.**  A block's transactions and receipts
  roots key the i-th value by ``rlp(i)``, so the trie's shape depends only
  on the count: :func:`index_root` caches it per count and fills in the
  values' references — same nodes, same root, no node built.
* **Plain tuples** (layout at :data:`_Node`): CPython's collector untracks a
  tuple whose items are all untracked, never a class instance.  So a node
  holds only its tag, exact ``bytes``, ``None`` and nodes — a ``bytes``
  subclass inside keeps it and its ancestors on the collector's walk.
* **byte-string keys and values.**  A trie turns a key into its path
  through :attr:`MPT.key_path`; :class:`SecureMPT`, the keccak-keyed variant
  the state uses, overrides that and nothing else.
"""

from __future__ import annotations

import hashlib
from binascii import unhexlify
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.common.hashing import keccak
from repro.common.rlp import _LIST_PREFIX, _encode_length, rlp_int, rlp_string
from repro.common.types import Hash32
from repro.state.cache import bytes_to_nibbles, keccak_path_cached

__all__ = ["MPT", "SecureMPT", "EMPTY_ROOT", "index_root"]

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


class _HexPrefix(Dict[int, bytes]):
    """By path length, the hex digits that, put before a nibble path's, make
    ``unhexlify`` return the RLP string of its hex-prefix encoding."""

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf

    def __missing__(self, length: int) -> bytes:
        digits = rlp_string(hp_encode(bytes(length), self.is_leaf)).hex().encode()
        self[length] = head = digits[: len(digits) - length]
        return head


_HP_LEAF, _HP_EXTENSION = _HexPrefix(True), _HexPrefix(False)

#: ``(_LEAF, ref, path, value)``, ``(_EXTENSION, ref, path, child)`` or
#: ``(_BRANCH, ref, child_0, …, child_15, value or None)``, empty slots None
_Node = Tuple[Any, ...]
_LEAF, _EXTENSION, _BRANCH = 0, 1, 2
_T = TypeVar("_T", bound="MPT")

#: One update of a sorted run, ``(nibble path, value)`` (``b""`` deletes), and
#: what :func:`_build` places: an update or an existing ``(path, subtree)``.
_Entry = Tuple[bytes, bytes]
_Item = Tuple[bytes, Union[bytes, _Node]]

#: Root hash of the empty trie: hash of the RLP of the empty byte string.
EMPTY_ROOT = keccak(rlp_string(b""))


def _wrap(body: bytes, hashed: bool = True) -> bytes:
    """The one place a node's RLP is formed: ``body`` (its items, already
    encoded) under a list prefix.  Returns how the node appears inside its
    parent (yellow paper, D) — the RLP if under 32 bytes, else ``0xa0 ||
    keccak(RLP)`` — or, with ``hashed`` false, the RLP itself."""
    n = len(body)
    rlp = (_LIST_PREFIX[n] if n < 1024 else _encode_length(n, 0xC0)) + body
    return b"\xa0" + hashlib.sha3_256(rlp).digest() if hashed and n > 30 else rlp


def _leaf(path: bytes, value: bytes, hashed: bool = True) -> _Node:
    hp = unhexlify(_HP_LEAF[len(path)] + path.translate(_NIBBLE_TO_HEX))
    return (_LEAF, _wrap(hp + rlp_string(value), hashed), path, value)


def _extension(path: bytes, child: _Node, hashed: bool = True) -> _Node:
    hp = unhexlify(_HP_EXTENSION[len(path)] + path.translate(_NIBBLE_TO_HEX))
    return (_EXTENSION, _wrap(hp + child[1], hashed), path, child)


def _branch(children: Sequence[Optional[_Node]], value: Optional[bytes], hashed: bool = True) -> _Node:
    body = b"".join([b"\x80" if child is None else child[1] for child in children])
    body += b"\x80" if value is None else rlp_string(value)
    return (_BRANCH, _wrap(body, hashed), *children, value)


def _node_rlp(node: _Node) -> bytes:
    """Canonical RLP of a node, re-formed unhashed by its constructor; only
    proofs, which carry node encodings, need it again."""
    kind = node[0]
    if kind == _BRANCH:
        return _branch(node[2:18], node[18], False)[1]
    if kind == _LEAF:
        return _leaf(node[2], node[3], False)[1]
    return _extension(node[2], node[3], False)[1]


def _get(node: Optional[_Node], path: bytes) -> Optional[bytes]:
    depth = 0
    while node is not None:
        if node[0] == _BRANCH:
            if depth == len(path):
                return node[18]
            node = node[2 + path[depth]]
            depth += 1
        elif node[0] == _LEAF:
            return node[3] if path[depth:] == node[2] else None
        else:
            if not path.startswith(node[2], depth):
                return None
            depth += len(node[2])
            node = node[3]
    return None


def _build(items: Sequence[_Item], lo: int, hi: int, depth: int) -> _Node:
    """Bottom-up construction of the subtree that holds ``items[lo:hi]``: a
    non-empty sorted run of distinct paths that agree on their first
    ``depth`` nibbles, none of them a delete.  Each node is built once."""
    first, payload = items[lo]
    if hi - lo == 1:
        rest = first[depth:]
        if isinstance(payload, bytes):
            return _leaf(rest, payload)
        # an existing subtree, ``rest`` further down than it was: a leaf or
        # an extension absorbs the nibbles, a branch gets an extension
        if not rest:
            return payload
        if payload[0] == _LEAF:
            return _leaf(rest + payload[2], payload[3])
        if payload[0] == _EXTENSION:
            return _extension(rest + payload[2], payload[3])
        return _extension(rest, payload)
    # sorted: what the two ends share, everything between them shares
    last = items[hi - 1][0]
    split = depth
    while split < len(first) and first[split] == last[split]:
        split += 1
    if split > depth:
        return _extension(first[depth:split], _build(items, lo, hi, split))
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
    return _branch(children, value)


@lru_cache(maxsize=256)
def _index_program(n: int) -> Tuple[Tuple[Any, ...], ...]:
    """The trie over the keys ``rlp(0..n-1)``, split as :func:`_build` does,
    in post-order and by column: ``gap`` (the empty slots before the node in
    its parent), ``head``, ``count``, ``tail``, ``index``.  A node's RLP body
    is ``head``, the references of its ``count`` children and ``tail`` — for
    a leaf, ``head`` and ``values[index]``.  Equal fields are shared."""
    paths = sorted((bytes_to_nibbles(rlp_int(index)), index) for index in range(n))
    program: List[Tuple[Any, ...]] = []
    shared: Dict[Any, Any] = {}

    def step(*fields: Any) -> None:
        program.append(tuple(shared.setdefault(field, field) for field in fields))

    def emit(lo: int, hi: int, depth: int, gap: bytes) -> None:
        first, index = paths[lo]
        if hi - lo == 1:
            step(gap, rlp_string(hp_encode(first[depth:], True)), 0, b"", index)
            return
        last = paths[hi - 1][0]
        split = depth
        while split < len(first) and first[split] == last[split]:
            split += 1
        # index keys are never prefixes of each other: no branch holds a value
        assert split < len(first), "an index key ends inside another"
        if split > depth:
            emit(lo, hi, split, b"")
            step(gap, rlp_string(hp_encode(first[depth:split], False)), 1, b"", -1)
            return
        slot = count = 0
        while lo < hi:
            nibble = paths[lo][0][depth]
            end = lo + 1
            while end < hi and paths[end][0][depth] == nibble:
                end += 1
            emit(lo, end, depth + 1, b"\x80" * (nibble - slot))
            slot, count, lo = nibble + 1, count + 1, end
        step(gap, b"", count, b"\x80" * (17 - slot), -1)

    if n:
        emit(0, n, 0, b"")
    return tuple(zip(*program))


def index_root(values: Sequence[bytes]) -> Hash32:
    """Root of the trie mapping ``rlp(index)`` to ``values[index]``, with no
    trie built: each node's RLP is formed and hashed once, from the cached
    shape.  Values must be non-empty — an :class:`MPT` drops a ``b""`` one."""
    stack: List[bytes] = []
    for gap, head, count, tail, index in zip(*_index_program(len(values))):
        if count:
            body = head + b"".join(stack[-count:]) + tail
            del stack[-count:]
        else:
            body = head + rlp_string(values[index])
        stack.append(gap + _wrap(body))
    ref = stack[0] if stack else b"\x80"  # the empty trie is RLP's empty string
    return Hash32(ref[1:]) if len(ref) == 33 else keccak(ref)


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
    if node is None:
        run = [item for item in items[lo:hi] if item[1]]
    elif node[0] == _BRANCH:
        value = node[18]
        if len(first) == depth:
            value = items[lo][1] or None
            lo += 1
        shrunk = value is None and node[18] is not None
        children: Optional[List[Optional[_Node]]] = None
        while lo < hi:
            nibble = items[lo][0][depth]
            end = lo + 1
            while end < hi and items[end][0][depth] == nibble:
                end += 1
            old = node[2 + nibble]
            new = _update(old, items, lo, end, depth + 1)
            if new is not old:
                if children is None:
                    children = list(node[2:18])
                children[nibble] = new
                shrunk = shrunk or new is None
            lo = end
        if children is None and value == node[18]:
            return node
        if not shrunk:
            return _branch(children or node[2:18], value)
        # a delete emptied a slot and a branch needs two entries: what is
        # left is placed anew (one survivor merges into what is below it)
        run = [] if value is None else [(first[:depth], value)]
        for nibble, child in enumerate(children or node[2:18]):
            if child is not None:
                run.append((first[:depth] + bytes((nibble,)), child))
    elif node[0] == _LEAF:
        if hi - lo == 1 and first[depth:] == node[2]:
            value = items[lo][1]  # the common case: one overwrite, or one delete
            if value == node[3]:
                return node
            return _leaf(node[2], value) if value else None
        own = first[:depth] + node[2]
        merged = {own: node[3]}
        merged.update(items[lo:hi])
        run = sorted(item for item in merged.items() if item[1])
        if run == [(own, node[3])]:
            return node
    else:
        # the items below the whole of the extension's path are one stretch
        # of the sorted run and go down to its child ...
        own = first[:depth] + node[2]
        start = lo
        while start < hi and not items[start][0].startswith(own):
            start += 1
        end = start
        while end < hi and items[end][0].startswith(own):
            end += 1
        below: Optional[_Node] = node[3]
        if start < end:
            below = _update(below, items, start, end, len(own))
        # ... the others leave it part-way: deletes among them name absent keys
        run = [item for item in (*items[lo:start], *items[end:hi]) if item[1]]
        if below is node[3] and not run:
            return node
        if below is not None:
            run.append((own, below))
            run.sort()
    return _build(run, 0, len(run), depth) if run else None


def _iter_items(node: Optional[_Node], prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
    if node is None:
        return
    if node[0] == _BRANCH:
        if node[18] is not None:
            yield prefix, node[18]
        for nibble in range(16):
            yield from _iter_items(node[2 + nibble], prefix + bytes((nibble,)))
    elif node[0] == _LEAF:
        yield prefix + node[2], node[3]
    else:
        yield from _iter_items(node[3], prefix + node[2])


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
        ref = self._root[1]
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
