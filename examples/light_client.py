#!/usr/bin/env python3
"""Light client: verifying state against a block header with Merkle proofs.

A full validator re-executes every block (that is BlockPilot's job); a
light client holds only block *headers* and asks full nodes for proofs.
This example walks the whole flow: a chain grows through the validator,
a full node serves an account proof from its state, and the light client
checks it against nothing but the 32-byte state root in the header —
including catching a forged proof.

Run:  python examples/light_client.py
"""

from repro import BlockWorkloadGenerator, ProposerNode, ValidatorNode, build_universe
from repro.common.hashing import keccak
from repro.common.rlp import rlp_decode
from repro.state.proofs import ProofError, prove, verify_proof


def serve_account_proof(snapshot, address):
    """What a full node returns for eth_getProof(address)."""
    return prove(snapshot._account_trie, bytes(address))


def main() -> None:
    universe = build_universe()
    generator = BlockWorkloadGenerator(universe)
    proposer = ProposerNode("alice")
    validator = ValidatorNode("fullnode", universe.genesis)

    # grow a 3-block chain
    parent = validator.chain.genesis.header
    parent_state = universe.genesis
    for _ in range(3):
        txs = generator.generate_block_txs()
        sealed = proposer.build_block(parent, parent_state, txs)
        assert validator.receive_blocks([sealed.block]).accepted
        parent = sealed.block.header
        parent_state = validator.chain.state_at(sealed.block.hash)

    # the light client holds only headers
    head = validator.chain.head
    print(f"light client synced headers up to height {head.number}")
    print(f"state root: {head.header.state_root.hex()}")

    # pick a busy account and ask the full node for a proof
    snapshot = validator.chain.head_state
    target = universe.eoas[0]
    proof = serve_account_proof(snapshot, target)
    print(f"\nfull node served a {len(proof)}-node proof for {target.hex()[:12]}…")

    # the client verifies against the header root alone
    body = verify_proof(head.header.state_root, keccak(bytes(target)), proof)
    assert body is not None
    nonce, balance, storage_root, code_hash = rlp_decode(body)
    print("proof verified; account body decoded from the proof itself:")
    print(f"  nonce   : {int.from_bytes(nonce, 'big')}")
    print(f"  balance : {int.from_bytes(balance, 'big') / 10**18:.6f} ETH")
    print(f"  storage : {storage_root.hex()[:16]}…")

    # cross-check against the full node's state (the client can't do this,
    # but we can)
    acct = snapshot.account(target)
    assert int.from_bytes(nonce, "big") == acct.nonce
    assert int.from_bytes(balance, "big") == acct.balance

    # a tampered proof is caught
    forged = list(proof)
    forged[-1] = forged[-1][:-1] + bytes([forged[-1][-1] ^ 0xFF])
    try:
        verify_proof(head.header.state_root, keccak(bytes(target)), forged)
        raise AssertionError("forged proof accepted!")
    except ProofError as exc:
        print(f"\nforged proof rejected as expected: {exc}")

    # a single storage slot can be proven too (account + storage proof)
    from repro.state.proofs import prove_storage, verify_storage_proof
    from repro.workload.contracts import AMM_RESERVE0_SLOT

    pool, _tin, _tout = universe.amms[0]
    acct_proof, slot_proof = prove_storage(snapshot, pool, AMM_RESERVE0_SLOT)
    reserve = verify_storage_proof(
        head.header.state_root, pool, AMM_RESERVE0_SLOT, acct_proof, slot_proof
    )
    print(
        f"\nstorage proof verified: AMM reserve0 = {reserve:,} "
        f"({len(acct_proof)}+{len(slot_proof)} proof nodes)"
    )
    assert reserve == snapshot.account(pool).storage[AMM_RESERVE0_SLOT]

    # absence is provable too
    from repro.common.types import Address

    ghost = Address.from_int(0xDEAD_BEEF_0000)
    ghost_proof = serve_account_proof(snapshot, ghost)
    assert verify_proof(head.header.state_root, keccak(bytes(ghost)), ghost_proof) is None
    print(f"exclusion proof verified: {ghost.hex()[:12]}… has no account")


if __name__ == "__main__":
    main()
