"""A second witness of the trie's node encoding: every node of a trie
re-encoded with the generic ``rlp_encode``, none of the trie's own
constructors, and held against the reference the node was born with."""

from repro.common.hashing import keccak
from repro.common.rlp import rlp_encode
from repro.state.trie import _BRANCH, _LEAF


def _hp(path, is_leaf):
    nibbles = bytes([2 * is_leaf + len(path) % 2]) + b"\0" * (1 - len(path) % 2) + path
    return bytes(nibbles[i] << 4 | nibbles[i + 1] for i in range(0, len(nibbles), 2))


def _checked(node):
    """``node`` as its parent embeds it, after asserting its cached reference."""
    if node is None:
        return b""
    if node[0] == _BRANCH:
        struct = [_checked(child) for child in node[2:18]] + [node[18] or b""]
    elif node[0] == _LEAF:
        struct = [_hp(node[2], True), node[3]]
    else:
        struct = [_hp(node[2], False), _checked(node[3])]
    encoded = rlp_encode(struct)
    inline = len(encoded) < 32
    assert node[1] == (encoded if inline else b"\xa0" + keccak(encoded)), f"stale reference {node[1].hex()}"
    return struct if inline else keccak(encoded)


def check_node_references(trie):
    """Assert every node's cached reference, and the root hash, against an
    independent re-encoding of the whole trie."""
    ref = _checked(trie._root)
    # a hashed root is its own hash; an inline root, or the empty string, is hashed here
    assert trie.root_hash() == (ref if isinstance(ref, bytes) and ref else keccak(rlp_encode(ref)))
