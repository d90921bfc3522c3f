"""Proofs that are not honest trie paths: a value or a ``ProofError``, never
another exception.

Each node below hashes to its own root, so only the node checks stand
between it and the caller; the properties mutate honest proofs byte by byte
and fuzz whole node structures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import keccak
from repro.common.rlp import rlp_encode
from repro.common.types import Address, Hash32
from repro.state.account import AccountData
from repro.state.proofs import ProofError, prove_storage, verify_proof, verify_storage_proof
from repro.state.statedb import genesis_snapshot
from repro.state.trie import bytes_to_nibbles, hp_encode


def self_rooted(node):
    """A one-node proof and the root it authenticates against."""
    encoding = rlp_encode(node)
    return Hash32(keccak(encoding)), [encoding]


class TestMalformedNodes:
    @pytest.mark.parametrize(
        "node",
        [
            [[0x20], b"v"],  # the path is a list
            [0x20, [b"v"]],  # a leaf value that is a list
            [b""] * 16 + [[b"v"]],  # a branch value that is a list
            [0x40, b"v"],  # hex-prefix flag nibble 4
            [0x21, b"v"],  # an even path whose pad nibble is 1
            [0x20, b""],  # a leaf without a value
        ],
        ids=["list-path", "list-leaf-value", "list-branch-value", "flag-4", "pad-1", "empty-leaf"],
    )
    def test_rejected(self, node):
        root, proof = self_rooted(node)
        with pytest.raises(ProofError):
            verify_proof(root, b"", proof)

    @pytest.mark.parametrize("node", [[0x20, b"v"], [b""] * 16 + [b"v"]], ids=["leaf", "branch"])
    def test_well_formed_counterparts_prove_their_value(self, node):
        root, proof = self_rooted(node)
        assert verify_proof(root, b"", proof) == b"v"

    @pytest.mark.parametrize(
        "value",
        [[b"v"], b"\xff\xff", rlp_encode([1, 2, [3], 4]), rlp_encode([0, 0, b"\x01" * 31, b"\x02" * 32])],
        ids=["list", "not-rlp", "list-storage-root", "short-storage-root"],
    )
    def test_storage_proof_over_a_malformed_account(self, value):
        address = Address(b"\x07" * 20)
        path = bytes_to_nibbles(keccak(bytes(address)))
        root, account_proof = self_rooted([hp_encode(path, True), value])
        with pytest.raises(ProofError):
            verify_storage_proof(root, address, 0, account_proof, [])


ADDRESSES = [Address(bytes([i + 1]) * 20) for i in range(12)]
SNAPSHOT = genesis_snapshot(
    {
        address: AccountData(
            nonce=i, balance=10**18 + i, storage={slot: 7 * slot + i + 1 for slot in range(3 * i)}
        )
        for i, address in enumerate(ADDRESSES)
    }
)


@st.composite
def mutated_proofs(draw):
    """An honest (account, storage) proof pair with one byte-level edit."""
    address = draw(st.sampled_from(ADDRESSES + [Address(b"\xee" * 20)]))
    slot = draw(st.integers(0, 40))
    proofs = list(map(list, prove_storage(SNAPSHOT, address, slot)))
    which = draw(st.sampled_from([i for i, proof in enumerate(proofs) if proof]))
    proof = proofs[which]
    index = draw(st.integers(0, len(proof) - 1))
    element = proof[index]
    at = draw(st.integers(0, len(element) - 1))
    edit = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
    if edit == "flip":
        element = element[:at] + bytes([element[at] ^ draw(st.integers(1, 255))]) + element[at + 1 :]
    elif edit == "insert":
        element = element[:at] + bytes([draw(st.integers(0, 255))]) + element[at:]
    elif edit == "delete":
        element = element[:at] + element[at + 1 :]
    else:
        element = element[:at]
    proof[index] = element
    return address, slot, proofs


class TestProperties:
    @given(mutated_proofs())
    @settings(deadline=None)
    def test_a_mutated_proof_is_rejected_or_proves_the_true_value(self, case):
        address, slot, (account_proof, storage_proof) = case
        account = SNAPSHOT.account(address)
        expected = account.storage.get(slot, 0) if account else 0
        try:
            value = verify_storage_proof(SNAPSHOT.state_root(), address, slot, account_proof, storage_proof)
        except ProofError:
            return
        assert value == expected

    @given(
        st.recursive(
            st.one_of(st.binary(max_size=34), st.integers(0, 0x3F)),
            lambda inner: st.one_of(
                st.lists(inner, min_size=2, max_size=2), st.lists(inner, min_size=17, max_size=17)
            ),
            max_leaves=40,
        ),
        st.binary(max_size=3),
    )
    @settings(deadline=None)
    def test_any_self_rooted_node_gives_a_value_or_a_proof_error(self, node, key):
        root, proof = self_rooted(node)
        try:
            value = verify_proof(root, key, proof)
        except ProofError:
            return
        assert value is None or (isinstance(value, bytes) and value)
