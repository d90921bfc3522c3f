"""Merkle-proof tests: inclusion, exclusion, tamper detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import keccak
from repro.state.proofs import (
    ProofError,
    prove,
    prove_secure,
    verify_proof,
    verify_secure,
)
from repro.state.trie import EMPTY_ROOT, MPT, SecureMPT


def build(mapping):
    t = MPT()
    for k, v in mapping.items():
        t = t.set(k, v)
    return t


class TestInclusion:
    def test_single_entry(self):
        t = build({b"key": b"value"})
        proof = prove(t, b"key")
        assert verify_proof(t.root_hash(), b"key", proof) == b"value"

    def test_many_entries(self):
        mapping = {f"key{i}".encode(): f"value{i}".encode() for i in range(50)}
        t = build(mapping)
        root = t.root_hash()
        for k, v in mapping.items():
            assert verify_proof(root, k, prove(t, k)) == v

    def test_deep_shared_prefixes(self):
        mapping = {
            b"aaaa": b"1",
            b"aaab": b"2",
            b"aabb": b"3",
            b"a": b"4",
            b"aaaaaaaa": b"5",
        }
        t = build(mapping)
        root = t.root_hash()
        for k, v in mapping.items():
            assert verify_proof(root, k, prove(t, k)) == v


class TestExclusion:
    def test_absent_key_in_populated_trie(self):
        t = build({f"key{i}".encode(): b"v" for i in range(20)})
        root = t.root_hash()
        for absent in (b"missing", b"key999", b"", b"zzz"):
            proof = prove(t, absent)
            assert verify_proof(root, absent, proof) is None

    def test_empty_trie(self):
        assert prove(MPT(), b"x") == []
        assert verify_proof(EMPTY_ROOT, b"x", []) is None

    def test_empty_proof_for_nonempty_root_rejected(self):
        t = build({b"a": b"1"})
        with pytest.raises(ProofError):
            verify_proof(t.root_hash(), b"a", [])


class TestTampering:
    def test_wrong_root_rejected(self):
        t = build({b"key": b"value"})
        other = build({b"key": b"other"})
        proof = prove(t, b"key")
        with pytest.raises(ProofError):
            verify_proof(other.root_hash(), b"key", proof)

    def test_modified_node_rejected(self):
        t = build({f"k{i}".encode(): b"v" * 40 for i in range(10)})
        proof = prove(t, b"k3")
        assert len(proof) >= 2
        tampered = list(proof)
        tampered[-1] = tampered[-1][:-1] + bytes([tampered[-1][-1] ^ 1])
        with pytest.raises(ProofError):
            verify_proof(t.root_hash(), b"k3", tampered)

    def test_truncated_proof_rejected(self):
        t = build({f"k{i}".encode(): b"v" * 40 for i in range(30)})
        proof = prove(t, b"k7")
        if len(proof) > 1:
            with pytest.raises(ProofError):
                verify_proof(t.root_hash(), b"k7", proof[:-1])

    def test_garbage_rlp_rejected(self):
        t = build({b"key": b"value"})
        with pytest.raises(ProofError):
            verify_proof(t.root_hash(), b"key", [b"\xff\xff\xff"])

    def test_proof_for_one_key_does_not_prove_another(self):
        mapping = {f"key{i}".encode(): f"v{i}".encode() for i in range(20)}
        t = build(mapping)
        root = t.root_hash()
        proof_for_3 = prove(t, b"key3")
        # verifying a different key with this proof either fails or (if the
        # path happens to diverge early) yields an exclusion — never the
        # wrong value
        try:
            value = verify_proof(root, b"key15", proof_for_3)
        except ProofError:
            value = None
        assert value != mapping[b"key3"]
        assert value is None or value == mapping[b"key15"]


@st.composite
def tries_and_keys(draw):
    mapping = draw(
        st.dictionaries(
            st.binary(min_size=1, max_size=6),
            st.binary(min_size=1, max_size=48),
            min_size=1,
            max_size=30,
        )
    )
    present = draw(st.sampled_from(sorted(mapping)))
    return mapping, present


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(tries_and_keys())
    def test_inclusion_round_trip(self, data):
        mapping, key = data
        t = build(mapping)
        assert verify_proof(t.root_hash(), key, prove(t, key)) == mapping[key]

    @settings(max_examples=40, deadline=None)
    @given(tries_and_keys(), st.binary(min_size=1, max_size=6))
    def test_arbitrary_key_proof_consistent_with_trie(self, data, probe):
        mapping, _ = data
        t = build(mapping)
        value = verify_proof(t.root_hash(), probe, prove(t, probe))
        assert value == mapping.get(probe)


class TestSecureProofs:
    def test_account_style_proof(self):
        t = SecureMPT()
        t = t.set(b"account-1", b"account-data-1")
        t = t.set(b"account-2", b"account-data-2")
        proof = prove_secure(t, b"account-1")
        assert verify_secure(t.root_hash(), b"account-1", proof) == b"account-data-1"

    def test_state_snapshot_account_proof(self, small_universe):
        """Prove one account's body against the world-state root — what a
        light client does with a block header."""
        snapshot = small_universe.genesis
        trie = snapshot._account_trie
        address = small_universe.eoas[0]
        proof = prove(trie, bytes(address))
        body = verify_proof(
            snapshot.state_root(), keccak(bytes(address)), proof
        )
        from repro.state.account import encode_account

        acct = snapshot.account(address)
        assert body == encode_account(acct, snapshot.storage_root(address))
