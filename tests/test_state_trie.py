"""Merkle-Patricia trie tests: semantics, structural sharing, root properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import keccak
from repro.common.rlp import rlp_encode, rlp_int
from repro.state.proofs import (
    ProofError,
    prove,
    prove_secure,
    verify_proof,
    verify_secure,
)
from repro.state.trie import _BRANCH, _EXTENSION, EMPTY_ROOT, MPT, SecureMPT, _node_rlp, index_root


class TestBasicSemantics:
    def test_empty_root_constant(self):
        assert MPT().root_hash() == EMPTY_ROOT

    def test_get_missing_returns_none(self):
        assert MPT().get(b"missing") is None

    def test_set_then_get(self):
        t = MPT().set(b"dog", b"puppy")
        assert t.get(b"dog") == b"puppy"

    def test_overwrite(self):
        t = MPT().set(b"k", b"v1").set(b"k", b"v2")
        assert t.get(b"k") == b"v2"

    def test_empty_value_deletes(self):
        t = MPT().set(b"k", b"v").set(b"k", b"")
        assert t.get(b"k") is None
        assert t.root_hash() == EMPTY_ROOT

    def test_delete_missing_is_noop(self):
        t = MPT().set(b"a", b"1")
        t2 = t.delete(b"zz")
        assert t2.root_hash() == t.root_hash()

    def test_prefix_keys_coexist(self):
        t = MPT().set(b"do", b"verb").set(b"dog", b"puppy").set(b"doge", b"coin")
        assert t.get(b"do") == b"verb"
        assert t.get(b"dog") == b"puppy"
        assert t.get(b"doge") == b"coin"

    def test_immutability(self):
        t1 = MPT().set(b"a", b"1")
        t2 = t1.set(b"b", b"2")
        assert t1.get(b"b") is None
        assert t2.get(b"a") == b"1"
        assert t1.root_hash() != t2.root_hash()

    def test_items_sorted(self):
        t = MPT()
        for k in [b"zebra", b"apple", b"mango"]:
            t = t.set(k, k.upper())
        assert [k for k, _ in t.items()] == sorted([b"zebra", b"apple", b"mango"])

    def test_len(self):
        t = MPT().set(b"a", b"1").set(b"b", b"2")
        assert len(t) == 2


class TestRootProperties:
    def test_insertion_order_invariance(self):
        keys = [f"key{i}".encode() for i in range(30)]
        t1 = MPT()
        for k in keys:
            t1 = t1.set(k, k + b"-v")
        t2 = MPT()
        for k in reversed(keys):
            t2 = t2.set(k, k + b"-v")
        assert t1.root_hash() == t2.root_hash()

    def test_insert_delete_restores_root(self):
        t = MPT()
        for i in range(20):
            t = t.set(f"k{i}".encode(), b"v")
        before = t.root_hash()
        t2 = t.set(b"extra", b"x").delete(b"extra")
        assert t2.root_hash() == before

    def test_value_changes_root(self):
        t = MPT().set(b"k", b"v1")
        assert t.root_hash() != MPT().set(b"k", b"v2").root_hash()

    def test_known_single_entry_stability(self):
        # regression anchor: the root of a fixed tiny trie must never change
        r1 = MPT().set(b"a", b"1").root_hash()
        r2 = MPT().set(b"a", b"1").root_hash()
        assert r1 == r2


@st.composite
def key_value_dicts(draw):
    keys = draw(st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=25))
    return {k: draw(st.binary(min_size=1, max_size=16)) for k in keys}


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(key_value_dicts())
    def test_matches_dict_semantics(self, mapping):
        t = MPT()
        for k, v in mapping.items():
            t = t.set(k, v)
        for k, v in mapping.items():
            assert t.get(k) == v
        assert len(t) == len(mapping)

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts(), st.randoms(use_true_random=False))
    def test_root_independent_of_order(self, mapping, rng):
        items = list(mapping.items())
        t1 = MPT()
        for k, v in items:
            t1 = t1.set(k, v)
        rng.shuffle(items)
        t2 = MPT()
        for k, v in items:
            t2 = t2.set(k, v)
        assert t1.root_hash() == t2.root_hash()

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts())
    def test_delete_all_returns_to_empty(self, mapping):
        t = MPT()
        for k, v in mapping.items():
            t = t.set(k, v)
        for k in mapping:
            t = t.delete(k)
        assert t.root_hash() == EMPTY_ROOT

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts(), key_value_dicts())
    def test_distinct_mappings_distinct_roots(self, a, b):
        ta = MPT()
        for k, v in a.items():
            ta = ta.set(k, v)
        tb = MPT()
        for k, v in b.items():
            tb = tb.set(k, v)
        if a == b:
            assert ta.root_hash() == tb.root_hash()
        else:
            assert ta.root_hash() != tb.root_hash()


class TestRandomizedOps:
    """Seeded op-sequence soak: the trie must track a plain dict exactly.

    Long interleaved set/overwrite/delete runs are where structural bugs
    (branch collapse, extension merging) hide; a dict is the reference
    model and the insertion-order-invariant root is the cross-check.
    """

    KEYS = [f"acct-{i}".encode() for i in range(40)] + [
        b"a",
        b"ab",
        b"abc",
        b"abd",  # shared-prefix cluster to force extension splits
    ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_random_ops_match_dict_reference(self, seed):
        rng = random.Random(seed)
        trie, model = MPT(), {}
        for step in range(300):
            key = rng.choice(self.KEYS)
            if rng.random() < 0.3 and model:
                key = rng.choice(list(model))
                trie = trie.delete(key)
                model.pop(key, None)
            else:
                value = f"v{step}".encode()
                trie = trie.set(key, value)
                model[key] = value
            if step % 50 == 0:
                assert len(trie) == len(model)
        for key in self.KEYS:
            assert trie.get(key) == model.get(key)
        rebuilt = MPT()
        for key in sorted(model):
            rebuilt = rebuilt.set(key, model[key])
        assert trie.root_hash() == rebuilt.root_hash()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_ops_secure_variant(self, seed):
        rng = random.Random(seed)
        trie, model = SecureMPT(), {}
        for step in range(200):
            key = rng.choice(self.KEYS)
            if rng.random() < 0.25 and model:
                key = rng.choice(list(model))
                trie = trie.delete(key)
                model.pop(key, None)
            else:
                value = f"s{step}".encode()
                trie = trie.set(key, value)
                model[key] = value
        for key in self.KEYS:
            assert trie.get(key) == model.get(key)
        assert trie.is_empty() == (not model)


class TestUpdateMany:
    def test_batch_equals_sequential_sets(self):
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(25)]
        batched = SecureMPT().update_many(items)
        sequential = SecureMPT()
        for key, value in items:
            sequential = sequential.set(key, value)
        assert batched.root_hash() == sequential.root_hash()

    def test_empty_value_deletes_in_batch(self):
        base = SecureMPT().set(b"keep", b"1").set(b"drop", b"2")
        updated = base.update_many([(b"drop", b"")])
        assert updated.get(b"drop") is None
        assert updated.get(b"keep") == b"1"
        assert updated.root_hash() == SecureMPT().set(b"keep", b"1").root_hash()

    def test_noop_batch_preserves_identity(self):
        base = SecureMPT().set(b"k", b"v")
        assert base.update_many([]) is base
        # deleting an absent key leaves the underlying trie untouched
        assert base.update_many([(b"ghost", b"")]) is base
        # rewriting an equal value rebuilds the path but keeps the root
        assert base.update_many([(b"k", b"v")]).root_hash() == base.root_hash()

    @settings(max_examples=40, deadline=None)
    @given(key_value_dicts())
    def test_batch_matches_sequential_for_any_mapping(self, mapping):
        items = list(mapping.items())
        batched = SecureMPT().update_many(items)
        sequential = SecureMPT()
        for key, value in items:
            sequential = sequential.set(key, value)
        assert batched.root_hash() == sequential.root_hash()


class TestProofs:
    def _populated(self):
        trie = MPT()
        for i in range(20):
            trie = trie.set(f"key-{i}".encode(), f"value-{i}".encode())
        return trie

    def test_inclusion_proof_round_trips(self):
        trie = self._populated()
        root = trie.root_hash()
        for i in (0, 7, 19):
            key = f"key-{i}".encode()
            proof = prove(trie, key)
            assert verify_proof(root, key, proof) == f"value-{i}".encode()

    def test_exclusion_proof_returns_none(self):
        trie = self._populated()
        proof = prove(trie, b"absent")
        assert verify_proof(trie.root_hash(), b"absent", proof) is None

    def test_empty_trie_exclusion(self):
        assert verify_proof(EMPTY_ROOT, b"anything", []) is None

    def test_tampered_node_rejected(self):
        trie = self._populated()
        proof = prove(trie, b"key-3")
        tampered = list(proof)
        tampered[0] = tampered[0][:-1] + bytes([tampered[0][-1] ^ 0x01])
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash(), b"key-3", tampered)

    def test_truncated_proof_rejected(self):
        trie = self._populated()
        proof = prove(trie, b"key-3")
        assert len(proof) > 1, "need a multi-node path to truncate"
        with pytest.raises(ProofError):
            verify_proof(trie.root_hash(), b"key-3", proof[:-1])

    def test_proof_against_wrong_root_rejected(self):
        trie = self._populated()
        other = trie.set(b"key-0", b"changed")
        proof = prove(trie, b"key-0")
        with pytest.raises(ProofError):
            verify_proof(other.root_hash(), b"key-0", proof)

    def test_secure_proofs_round_trip(self):
        trie = SecureMPT()
        for i in range(10):
            trie = trie.set(f"acct{i}".encode(), f"data{i}".encode())
        root = trie.root_hash()
        proof = prove_secure(trie, b"acct4")
        assert verify_secure(root, b"acct4", proof) == b"data4"
        assert verify_secure(root, b"ghost", prove_secure(trie, b"ghost")) is None

    @settings(max_examples=30, deadline=None)
    @given(key_value_dicts())
    def test_every_key_proves_for_any_mapping(self, mapping):
        trie = MPT()
        for key, value in mapping.items():
            trie = trie.set(key, value)
        root = trie.root_hash()
        for key, value in mapping.items():
            assert verify_proof(root, key, prove(trie, key)) == value
        missing = b"\xff" * 9  # longer than any generated key
        assert verify_proof(root, missing, prove(trie, missing)) is None


class TestSecureMPT:
    def test_get_set(self):
        t = SecureMPT().set(b"account1", b"data")
        assert t.get(b"account1") == b"data"

    def test_keys_are_hashed(self):
        t = SecureMPT().set(b"k", b"v")
        # the raw key is not reachable through the underlying trie
        assert MPT(t._root).get(b"k") is None
        assert MPT(t._root).get(keccak(b"k")) == b"v"

    def test_delete(self):
        t = SecureMPT().set(b"k", b"v").delete(b"k")
        assert t.get(b"k") is None
        assert t.is_empty()

    def test_root_matches_regardless_of_insertion_order(self):
        keys = [f"acct{i}".encode() for i in range(10)]
        t1 = SecureMPT()
        t2 = SecureMPT()
        for k in keys:
            t1 = t1.set(k, b"v")
        for k in reversed(keys):
            t2 = t2.set(k, b"v")
        assert t1.root_hash() == t2.root_hash()


# --------------------------------------------------------------------------- #
# an independent root calculator, and literal roots pinned at the commit before
# node references were cached
# --------------------------------------------------------------------------- #


def _ref_nibbles(key):
    out = []
    for byte in key:
        out += [byte >> 4, byte & 0x0F]
    return out


def _ref_hp(path, is_leaf):
    flag = 2 if is_leaf else 0
    nibbles = [flag + 1] + path if len(path) % 2 else [flag, 0] + path
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def _ref_struct(items):
    """Yellow-paper node of ``[(nibble list, value)]`` (sorted, distinct
    paths) as nested lists for the generic encoder — shares no code with
    ``repro.state.trie``."""
    if len(items) == 1:
        path, value = items[0]
        return [_ref_hp(path, True), value]
    shared = 0
    first, last = items[0][0], items[-1][0]
    while shared < len(first) and first[shared] == last[shared]:
        shared += 1
    if shared:
        rest = [(path[shared:], value) for path, value in items]
        return [_ref_hp(first[:shared], False), _ref_child(rest)]
    slots = [
        _ref_child([(p[1:], v) for p, v in items if p and p[0] == nibble])
        for nibble in range(16)
    ]
    return slots + [items[0][1] if not items[0][0] else b""]


def _ref_child(items):
    if not items:
        return b""
    struct = _ref_struct(items)
    encoded = rlp_encode(struct)
    return struct if len(encoded) < 32 else bytes(keccak(encoded))


def reference_root(mapping):
    if not mapping:
        return EMPTY_ROOT
    items = sorted((_ref_nibbles(k), v) for k, v in mapping.items())
    return keccak(rlp_encode(_ref_struct(items)))


#: keys over a two-nibble alphabet, 0-3 bytes long: they share prefixes, end
#: inside each other (branch values) and keep paths short
_short_keys = st.binary(max_size=3).map(lambda b: bytes(x & 0x11 for x in b))
#: 1-3 byte values, so that leaves, extensions and whole branches stay under
#: 32 bytes and are inlined, or values that put a leaf within a few bytes of
#: the 32-byte boundary on either side
_values = st.one_of(st.binary(min_size=1, max_size=3), st.binary(min_size=24, max_size=34))
_op_sequences = st.lists(st.tuples(st.booleans(), _short_keys, _values), max_size=30)


def _apply(trie, ops):
    """Run ``(is_delete, key, value)`` ops on ``trie`` and on a dict."""
    model = {}
    for is_delete, key, value in ops:
        if is_delete:
            trie = trie.delete(key)
            model.pop(key, None)
        else:
            trie = trie.set(key, value)
            model[key] = value
    return trie, model


class TestAgainstIndependentReference:
    @settings(max_examples=150, deadline=None)
    @given(_op_sequences)
    def test_mpt_root_and_proofs(self, ops):
        trie, model = _apply(MPT(), ops)
        root = trie.root_hash()
        assert root == reference_root(model)
        for key, value in model.items():
            assert verify_proof(root, key, prove(trie, key)) == value
        for _, key, _ in ops:
            if key not in model:
                assert verify_proof(root, key, prove(trie, key)) is None

    @settings(max_examples=60, deadline=None)
    @given(_op_sequences)
    def test_secure_root_and_proofs(self, ops):
        trie, model = _apply(SecureMPT(), ops)
        root = trie.root_hash()
        assert root == reference_root({keccak(k): v for k, v in model.items()})
        for key, value in model.items():
            assert verify_secure(root, key, prove_secure(trie, key)) == value

    def test_roots_are_read_before_and_after_an_update(self):
        """A cached reference must not leak into the rewritten path."""
        trie, model = _apply(MPT(), [(False, bytes([i, i]), b"v" * 40) for i in range(40)])
        assert trie.root_hash() == reference_root(model)  # fills every cache
        trie = trie.set(b"\x07\x07", b"w").delete(b"\x08\x08")
        model[b"\x07\x07"] = b"w"
        del model[b"\x08\x08"]
        assert trie.root_hash() == reference_root(model)

    @pytest.mark.parametrize(
        "mapping",
        [
            {b"\x01": b"a"},  # a lone leaf: the root itself is < 32 bytes
            {b"\x01\x02": b"a", b"\x01\x03": b"b"},  # extension -> inline branch
            {b"": b"r", b"\x01": b"a", b"\x11": b"b"},  # branch with a value
            {bytes([i]): b"x" for i in range(0, 256, 16)},  # full inline-leaf branch
        ],
    )
    def test_inline_shapes(self, mapping):
        trie, _ = _apply(MPT(), [(False, k, v) for k, v in mapping.items()])
        assert trie.root_hash() == reference_root(mapping)
        for key, value in mapping.items():
            assert verify_proof(trie.root_hash(), key, prove(trie, key)) == value

    @pytest.mark.parametrize("value_len", range(26, 33))
    def test_leaf_at_the_32_byte_boundary(self, value_len):
        # a one-nibble leaf under the root branch encodes to value_len + 3
        # bytes: inline up to 31, hashed from 32
        mapping = {b"\x01": b"v" * value_len, b"\x11": b"w"}
        trie, _ = _apply(MPT(), [(False, k, v) for k, v in mapping.items()])
        assert trie.root_hash() == reference_root(mapping)
        assert verify_proof(trie.root_hash(), b"\x01", prove(trie, b"\x01")) == mapping[b"\x01"]

    def test_the_strategy_reaches_inline_nodes_at_and_below_the_root(self):
        assert len(rlp_encode(_ref_struct([(_ref_nibbles(b"\x01"), b"a")]))) < 32
        two = sorted((_ref_nibbles(k), b"a") for k in (b"\x01\x02", b"\x01\x03"))
        extension = _ref_struct(two)
        assert isinstance(extension[1], list)  # the branch is embedded, not hashed


#: every index-trie length from empty to 300 — the keys cross ``rlp``'s
#: one-byte / ``0x81`` boundary at 127/128 — and both sides of 255/256
#: (``0x81`` / ``0x82``) and of 511/512 and 1023/1024
_INDEX_LENGTHS = [*range(301), 511, 512, 1023, 1024]


def _exactly(size):
    return st.binary(min_size=size, max_size=size)


#: one value of each length class: a single byte below and at or above
#: ``0x80`` (its own RLP or a prefixed one), leaves just under and over the
#: 32-byte inline boundary, RLP string prefixes either side of 55/56 bytes
#: and a long-form one past 255
_index_palettes = st.tuples(
    st.integers(0, 0x7F).map(lambda b: bytes((b,))),
    st.integers(0x80, 0xFF).map(lambda b: bytes((b,))),
    *map(_exactly, (28, 29, 30, 31, 32, 33, 55, 56)),
    st.binary(min_size=256, max_size=300),
)


def _children(node):
    if node[0] == _EXTENSION:
        return [node[3]]
    if node[0] == _BRANCH:
        return [child for child in node[2:18] if child is not None]
    return []


class TestIndexRoot:
    """``index_root`` against the trie it stands in for, and against the
    independent calculator, which shares no encoder with it."""

    @settings(max_examples=5, deadline=None)
    @given(_index_palettes, st.integers(0, 2**32))
    def test_equals_the_mpt_at_every_length(self, palette, seed):
        rng = random.Random(seed)
        ref_sizes = set()
        for n in _INDEX_LENGTHS:
            values = [rng.choice(palette) for _ in range(n)]
            oracle = MPT().update_many((rlp_int(index), value) for index, value in enumerate(values))
            assert index_root(values) == oracle.root_hash(), n
            if oracle._root is not None:
                ref_sizes.update(len(child[1]) < 32 for node in _nodes(oracle._root) for child in _children(node))
        assert ref_sizes == {True, False}  # inline children and hashed ones

    @settings(max_examples=8, deadline=None)
    @given(_index_palettes, st.integers(0, 2**32))
    def test_equals_the_independent_calculator(self, palette, seed):
        rng = random.Random(seed)
        for n in [*range(40), 127, 128, 129, 255, 256, 257]:
            values = [rng.choice(palette) for _ in range(n)]
            assert index_root(values) == reference_root({rlp_int(i): v for i, v in enumerate(values)}), n


#: ``(key, value)`` batches over the same short keys; ``b""`` deletes, and a
#: key may come up several times
_batches = st.lists(st.tuples(_short_keys, st.one_of(st.just(b""), _values)), max_size=30)


def _fold(trie, batch):
    for key, value in batch:
        trie = trie.set(key, value)
    return trie


def _after(model, batch):
    model = dict(model)
    for key, value in batch:
        if value:
            model[key] = value
        else:
            model.pop(key, None)
    return model


class TestBatchEqualsFold:
    """``update_many(batch)`` is the one mutation; ``set``/``delete`` are its
    one-item case.  A batch must leave the trie a left fold of its pairs
    leaves — over keys that end inside each other (branch values), split
    extensions and collapse branches when deleted — and both must agree with
    the from-scratch calculator above."""

    @settings(max_examples=300, deadline=None)
    @given(_op_sequences, _batches, st.booleans())
    def test_mpt(self, ops, batch, hashed_first):
        base, model = _apply(MPT(), ops)
        if hashed_first:
            base.root_hash()  # the batch then meets cached references
        batched = base.update_many(batch)
        folded = _fold(base, batch)
        expected = _after(model, batch)
        root = batched.root_hash()
        assert root == folded.root_hash() == reference_root(expected)
        assert list(batched.items()) == list(folded.items()) == sorted(expected.items())
        assert len(batched) == len(expected)
        for key in set(expected).union(key for key, _ in batch):
            assert batched.get(key) == expected.get(key)
            assert verify_proof(root, key, prove(batched, key)) == expected.get(key)
        # the receiver is untouched, whatever it shares with the result
        assert base.root_hash() == reference_root(model)
        assert list(base.items()) == sorted(model.items())

    @settings(max_examples=80, deadline=None)
    @given(_op_sequences, _batches)
    def test_secure(self, ops, batch):
        base, model = _apply(SecureMPT(), ops)
        batched = base.update_many(batch)
        expected = _after(model, batch)
        root = batched.root_hash()
        assert root == _fold(base, batch).root_hash()
        assert root == reference_root({keccak(k): v for k, v in expected.items()})
        for key, _ in batch:
            assert verify_secure(root, key, prove_secure(batched, key)) == expected.get(key)

    @settings(max_examples=100, deadline=None)
    @given(_op_sequences, st.lists(_short_keys, max_size=10))
    def test_a_batch_that_changes_nothing_returns_the_receiver(self, ops, absent):
        base, model = _apply(MPT(), ops)
        assert base.update_many([]) is base
        assert base.update_many(iter(())) is base
        deletes = [(key, b"") for key in absent if key not in model]
        assert base.update_many(deletes) is base
        # so does rewriting what is there, and an insert a later pair undoes
        assert base.update_many(list(model.items())) is base
        undone = [(key, b"x") for key, _ in deletes] + deletes
        assert base.update_many(undone) is base
        secure = SecureMPT().update_many(model.items())
        assert secure.update_many(deletes) is secure
        assert secure.update_many([]) is secure

    def test_the_last_pair_for_a_key_wins(self):
        base = MPT().set(b"\x01\x01", b"old")
        batch = [(b"\x01\x01", b"a"), (b"\x01\x00", b"b"), (b"\x01\x01", b""), (b"\x01\x00", b"c")]
        assert dict(base.update_many(batch).items()) == {b"\x01\x00": b"c"}
        assert dict(base.update_many(batch[:3]).items()) == {b"\x01\x00": b"b"}

    @pytest.mark.parametrize(
        "before,batch",
        [
            # a two-leaf branch loses one: what is left is a single leaf
            ({b"\x01\x00": b"a", b"\x01\x10": b"b"}, [(b"\x01\x10", b"")]),
            # a branch with a value loses its only child: a leaf for the value
            ({b"\x01": b"a", b"\x01\x10": b"b"}, [(b"\x01\x10", b"")]),
            # ... or loses the value: the child absorbs the branch's nibble
            ({b"\x01": b"a", b"\x01\x10": b"b"}, [(b"\x01", b"")]),
            # the surviving child is a branch: an extension appears above it
            (
                {b"\x00": b"a", b"\x10\x00": b"b", b"\x10\x10": b"c"},
                [(b"\x00", b"")],
            ),
            # the surviving child is an extension: the two paths merge
            (
                {b"\x00": b"a", b"\x11\x10\x00": b"b", b"\x11\x10\x01": b"c"},
                [(b"\x00", b"")],
            ),
            # a collapse below an extension, and an insert that splits it, at once
            (
                {b"\x11\x10\x00": b"b", b"\x11\x10\x01": b"c"},
                [(b"\x11\x10\x01", b""), (b"\x10", b"d")],
            ),
            # everything under an extension goes while a new key leaves its path
            (
                {b"\x11\x10\x00": b"b", b"\x11\x10\x01": b"c"},
                [(b"\x11\x10\x01", b""), (b"\x11\x10\x00", b""), (b"\x11\x00", b"d")],
            ),
            # deletes of absent keys beside a real insert under one extension
            (
                {b"\x11\x10\x00": b"b", b"\x11\x10\x01": b"c"},
                [(b"\x10", b""), (b"\x11\x11", b""), (b"\x11\x10\x11", b"d")],
            ),
            # the whole trie goes
            ({b"\x01": b"a", b"\x11": b"b", b"": b"r"}, [(b"\x01", b""), (b"", b""), (b"\x11", b"")]),
        ],
    )
    def test_collapses(self, before, batch):
        base = MPT().update_many(before.items())
        assert base.root_hash() == reference_root(before)
        expected = _after(before, batch)
        batched = base.update_many(batch)
        assert batched.root_hash() == _fold(base, batch).root_hash() == reference_root(expected)
        assert dict(batched.items()) == expected
        assert batched.is_empty() == (not expected)


def _nodes(node):
    """Every node under (and including) ``node``."""
    if node is None:
        return
    yield node
    if node[0] == _EXTENSION:
        yield from _nodes(node[3])
    elif node[0] == _BRANCH:
        for child in node[2:18]:
            yield from _nodes(child)


class TestBatchBudget:
    """What one batch may cost, counted in objects and calls instead of timed."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Every trie node constructed, and every preimage hashed, while the
        test runs, in order."""
        import hashlib

        from repro.state import trie

        built, hashed = [], []
        for name in ("_leaf", "_extension", "_branch"):

            def counting(*args, _make=getattr(trie, name)):
                built.append(_make(*args))
                return built[-1]

            monkeypatch.setattr(trie, name, counting)
        real_sha3 = hashlib.sha3_256

        def sha3(data=b""):
            hashed.append(data)
            return real_sha3(data)

        monkeypatch.setattr(hashlib, "sha3_256", sha3)
        return built, hashed

    def test_a_batch_constructs_only_the_nodes_it_leaves_dirty(self, counted):
        """300 keys (half new, half overwrites) into a 1 542-key trie: the
        batch builds exactly the nodes of the new trie it does not share with
        the old one — each node on the way to a changed entry once, however
        many of the batch's keys pass through it, nothing built and dropped —
        and hashes each of them once, at birth, and nothing else."""
        built, hashed = counted
        rng = random.Random(19)
        keys = [bytes(keccak(rng.randbytes(20))) for _ in range(1542)]
        base = MPT().update_many((key, rng.randbytes(70)) for key in keys)
        assert len(built) == sum(1 for _ in _nodes(base._root))
        batch = [
            (keys[i] if i % 2 else bytes(keccak(rng.randbytes(20))), rng.randbytes(70))
            for i in range(300)
        ]
        del built[:], hashed[:]
        updated = base.update_many(batch)
        updated.root_hash()  # reads the root's reference: hashes nothing
        shared = {id(node) for node in _nodes(base._root)}
        fresh = [node for node in _nodes(updated._root) if id(node) not in shared]
        assert len(built) == len(fresh)
        assert {id(node) for node in built} == {id(node) for node in fresh}
        # every node here encodes to 32 bytes or more, so each is hashed
        assert sorted(hashed) == sorted(_node_rlp(node) for node in fresh)
        # the same pairs one at a time copy the path from the root per key
        del built[:]
        assert _fold(base, batch).root_hash() == updated.root_hash()
        assert len(built) > 2 * len(fresh)

    def test_a_transfer_only_commit_is_one_account_trie_batch(self, monkeypatch):
        from repro.common.types import address
        from repro.state.account import AccountData
        from repro.state.statedb import StateDB, genesis_snapshot

        alloc = {address(bytes([i + 1]) * 20): AccountData(balance=10**9) for i in range(40)}
        genesis = genesis_snapshot(alloc)
        batches = []
        real = MPT.update_many

        def counting(self, items):
            batches.append(list(items))
            return real(self, batches[-1])

        monkeypatch.setattr(MPT, "update_many", counting)
        db = StateDB(genesis)
        senders = list(alloc)[:25]
        receivers = list(alloc)[20:] + [address(b"\xee" * 20)]  # one fresh account
        for sender, receiver in zip(senders, receivers):
            db.sub_balance(sender, 1000)
            db.add_balance(receiver, 1000)
            db.increment_nonce(sender)
        db.add_balance(address(b"\xdd" * 20), 0)  # touched and empty: an EIP-158 delete
        committed = db.commit()
        touched = set(senders) | set(receivers) | {address(b"\xdd" * 20)}
        assert [len(batch) for batch in batches] == [len(touched)]
        assert sum(1 for _, value in batches[0] if not value) == 1
        monkeypatch.undo()
        assert committed.state_root() == genesis_snapshot(dict(committed.accounts)).state_root()


    def test_a_block_is_one_commit_and_one_account_batch_per_role(self, monkeypatch, tmp_path):
        """Sealing a block and importing it each fold fees and rewards into
        the block's one still-open ``StateDB``: one ``commit`` and one
        account-trie batch per role, and a ``Receipt`` is built three times
        per committed transaction (seal, the validator's rebuild, the store's
        write-time round trip), never per root."""
        from repro.chain import block as block_mod
        from repro.common.types import address
        from repro.network.node import ProposerNode, ValidatorNode
        from repro.state.account import AccountData
        from repro.state.statedb import StateDB, genesis_snapshot
        from repro.store import open_store
        from repro.txpool.transaction import Transaction

        accounts = [address(bytes([i + 1]) * 20) for i in range(30)]
        genesis = genesis_snapshot({a: AccountData(balance=10**18) for a in accounts})
        txs = [
            Transaction(sender, receiver, 1000 + i, b"", 21_000, 7, 0)
            for i, (sender, receiver) in enumerate(zip(accounts[:15], accounts[15:]))
        ]
        chain, store, _ = open_store(str(tmp_path), genesis, fsync=False)
        proposer = ProposerNode("budget-proposer")
        validator = ValidatorNode("budget-validator", genesis, chain=chain)

        calls = {"commit": 0, "account_batch": 0, "receipt": 0}

        def counted(cls, name, key, applies=lambda self: True):
            real = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[key] += applies(self)
                return real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(StateDB, "commit", "commit")
        counted(MPT, "update_many", "account_batch", lambda self: isinstance(self, SecureMPT))
        counted(block_mod.Receipt, "__init__", "receipt")
        try:
            sealed = proposer.build_block(chain.genesis.header, genesis, txs)
            assert len(sealed.block.transactions) == len(txs)
            assert sealed.proposal.total_fees > 0
            assert (calls["commit"], calls["account_batch"]) == (1, 1)
            outcome = validator.receive_blocks([sealed.block])
            assert len(outcome.accepted) == 1
            assert (calls["commit"], calls["account_batch"]) == (2, 2)
            assert calls["receipt"] <= 3 * len(txs)
        finally:
            validator.pipeline.close()
            store.close()
        assert chain.head_state.state_root() == sealed.post_state.state_root()


def _tracked_for_good(*roots):
    """How many nodes of these tries the cyclic collector still walks once
    collections stop untracking any."""
    return _still_tracked([node for root in roots for node in _nodes(root)])


def _still_tracked(objects):
    """How many of ``objects`` the collector still walks once collections
    stop untracking any.  CPython untracks a tuple whose items are all
    untracked, children before parents — one level per collection, so it
    takes about as many collections as the nesting is deep."""
    import gc

    assert objects
    tracked = None
    while True:
        gc.collect()
        now = sum(map(gc.is_tracked, objects))
        if now == tracked:
            return now
        tracked = now


class TestNothingTracked:
    """Trie nodes are plain tuples of plain ``bytes``, ``int``, ``None`` and
    other nodes, so none stays on the collector's walk — and neither do the
    identifiers and state keys every rw-set is made of."""

    def test_identifiers_and_every_key_of_a_sealed_profile(self, small_universe, small_generator):
        from repro.chain.blockchain import Blockchain
        from repro.common.types import address, address_from_hex, address_from_int, hash32, hash32_from_hex
        from repro.network.node import ProposerNode

        identifiers = [
            address(bytearray(20)), address_from_int(7), address_from_hex("ab" * 20),
            hash32(bytearray(32)), hash32_from_hex("0x" + "cd" * 32),
        ]
        assert all(type(i) is bytes for i in identifiers)
        assert _still_tracked(identifiers) == 0
        genesis = small_universe.genesis
        head = Blockchain(genesis).head
        sealed = ProposerNode("untracked").build_block(
            head.header, genesis, small_generator.generate_block_txs()
        )
        rws = [entry.rw for entry in sealed.block.profile.entries]
        pairs = [pair for rw in rws for pair in (*rw.reads, *rw.writes)]
        keys = [key for key, _ in pairs]
        assert len(set(keys)) > 100
        assert {kind for kind, _, _ in keys} == {"balance", "nonce", "code", "storage"}
        assert _still_tracked(keys + pairs + [rw.reads for rw in rws] + [rw.writes for rw in rws]) == 0

    def test_genesis_account_and_storage_tries(self, small_universe):
        genesis = small_universe.genesis
        assert genesis._storage_tries
        assert _tracked_for_good(
            genesis._account_trie._root, *(t._root for t in genesis._storage_tries.values())
        ) == 0

    def test_tries_committed_by_a_block_and_its_index_programs(self, small_universe, small_generator, monkeypatch):
        """The state tries a sealed and validated block commits are untracked;
        its index roots build no trie — ``StateDB.commit`` is the only caller
        of ``MPT.update_many`` — and the cached index programs are untracked."""
        import os
        import sys

        from repro.network.node import ProposerNode, ValidatorNode
        from repro.state.trie import _index_program

        callers = []
        update_many = MPT.update_many

        def spied(self, items):
            code = sys._getframe(1).f_code
            callers.append((os.path.basename(code.co_filename), code.co_name))
            return update_many(self, items)

        validator = ValidatorNode("untracked", small_universe.genesis)
        head = validator.chain.head
        monkeypatch.setattr(MPT, "update_many", spied)
        sealed = ProposerNode("untracked").build_block(
            head.header, validator.chain.state_at(head.hash), small_generator.generate_block_txs()
        )
        assert validator.receive_blocks([sealed.block]).accepted
        assert callers and set(callers) == {("statedb.py", "commit")}
        genesis_tries = set(map(id, small_universe.genesis._storage_tries.values()))
        for state in (sealed.post_state, validator.chain.head_state):
            changed = [t for t in state._storage_tries.values() if id(t) not in genesis_tries]
            assert changed
            assert _tracked_for_good(state._account_trie._root, *(t._root for t in changed)) == 0
        block = sealed.block
        assert _index_program.cache_info().currsize
        program = _index_program(len(block.transactions))
        assert index_root([tx.hash for tx in block.transactions]) == block.header.transactions_root
        # a tuple is untracked only once every item in it is
        assert _tracked_for_good(program) == 0

    def test_a_bytes_subclass_inside_keeps_its_node_and_every_node_above_it(self):
        class _B(bytes):
            pass

        # an extension (the shared first nibble) over a branch over two leaves
        trie = MPT().update_many([(b"\x01", b"a" * 40), (b"\x02", _B(b"\x11" * 32))])
        assert _tracked_for_good(trie._root) == 3  # all but the plain leaf
        assert _tracked_for_good(trie.set(b"\x02", b"b" * 40)._root) == 0


class TestPinnedRoots:
    """Literal roots and head hashes computed at the parent of the commit that
    introduced cached node references (04fb2d2): byte identity of the state
    commitment across that change, and across any later one."""

    SCENARIO_GENESIS = {
        "counter-shared": "83cd5522f28be4b0969c36f86126540a92028bddd1c6069995f57d79944dc1b9",
        "counter-partitioned": "83cd5522f28be4b0969c36f86126540a92028bddd1c6069995f57d79944dc1b9",
        "airdrop-storm": "6b13a7a479520ce406ce042d2b19194b597a3ba78fcc01405a3786e49b60258b",
        "nft-mint-rush": "6b13a7a479520ce406ce042d2b19194b597a3ba78fcc01405a3786e49b60258b",
        "mev-bundles": "6b13a7a479520ce406ce042d2b19194b597a3ba78fcc01405a3786e49b60258b",
        "long-tail": "cf53c35b328bac18a446a1808c6f8a33b9fbdf489fd0f2f9ff0b285da8cdc7c8",
        "day-in-the-life": "6b13a7a479520ce406ce042d2b19194b597a3ba78fcc01405a3786e49b60258b",
    }

    #: benchmarks/e2e workload -> (scenario, backend, head after 5 OCC-WSI
    #: blocks of 132 txs at seed 42).  ``mainnet-process`` runs on the serial
    #: backend, which seals the same chain as the process pool.
    E2E_HEADS = {
        "mainnet": (None, None, "a54ed49edea077ff19b7e17ef250b756974356eaa61d09610ac4f5e91189739d"),
        "longtail-payments": ("long-tail", None, "a6488cccd4304b33e60a90aebc98a08e1f374be59c7dd706eac16dc56162a2f4"),
        "mint-rush": ("nft-mint-rush", None, "e63f87e14d1e1dca8e8348be2c76a63b986b8cc5f590072d38e37136e58411b8"),
        "mainnet-process": (None, "serial", "f87a3fc32f10ac1ec7e9a8645f56971012a0cde6825a9c1658d4ae81b5bbd8f5"),
    }

    @pytest.fixture(scope="class")
    def default_universe(self):
        from repro.workload.universe import build_universe

        return build_universe()

    def test_default_universe_genesis_root(self, default_universe):
        assert bytes(default_universe.genesis.state_root()).hex() == (
            "90f0f65580f96820578e1ba68e997eca3e44dec3d2af85ec639d51fc16e486e3"
        )

    def test_every_scenario_is_pinned(self):
        from repro.workload.scenarios import scenario_names

        assert sorted(scenario_names()) == sorted(self.SCENARIO_GENESIS)

    @pytest.mark.parametrize("name", sorted(SCENARIO_GENESIS))
    def test_scenario_genesis_root(self, name):
        from repro.workload.scenarios import get_scenario

        stream = get_scenario(name, seed=42, txs_per_block=132)
        assert bytes(stream.universe.genesis.state_root()).hex() == self.SCENARIO_GENESIS[name]

    @pytest.mark.parametrize("workload", sorted(E2E_HEADS))
    def test_head_after_five_blocks(self, workload, default_universe):
        import dataclasses

        from repro.exec.backend import get_backend
        from repro.network.node import ProposerNode, ValidatorNode
        from repro.workload.generator import BlockWorkloadGenerator
        from repro.workload.scenarios import get_scenario, mainnet_scenario

        scenario, backend_name, expected = self.E2E_HEADS[workload]
        if scenario is None:
            universe = dataclasses.replace(default_universe, nonces={})
            config = dataclasses.replace(mainnet_scenario(seed=42), txs_per_block=132)
            stream = BlockWorkloadGenerator(universe, config)
        else:
            stream = get_scenario(scenario, seed=42, txs_per_block=132)
            universe = stream.universe
        backend = get_backend(backend_name, 1)
        proposer = ProposerNode("serve-proposer", backend=backend)
        validator = ValidatorNode("serve-validator", universe.genesis, backend=backend)
        chain = validator.chain
        for _ in range(5):
            head = chain.head
            sealed = proposer.build_block(
                head.header,
                chain.state_at(head.hash),
                stream.generate_block_txs(),
                timestamp=head.header.timestamp + 12,
            )
            assert validator.receive_blocks([sealed.block]).accepted
        assert bytes(chain.head.hash).hex() == expected
