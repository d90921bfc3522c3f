#!/usr/bin/env python3
"""Authoring a custom contract and running it under every execution mode.

Shows the lower-level APIs: write a voting contract in the assembler DSL,
deploy it with a CREATE transaction, drive it with hand-built calldata,
and then demonstrate that the same bytecode produces identical results
under serial execution and under OCC snapshot views — the property the
whole framework leans on.

Run:  python examples/custom_contract.py
"""

from repro import StateDB, genesis_snapshot
from repro.common.types import address_from_int
from repro.evm.asm import Assembler
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.account import AccountData
from repro.state.versioned import MultiVersionStore, OCCStateView
from repro.txpool.transaction import Transaction

ETHER = 10**18
CTX = ExecutionContext(block_number=1, timestamp=1700000000)


def voting_contract() -> bytes:
    """vote(option): tallies[option] += 1 in storage slots 0..255.

    calldata: 4-byte selector 0x00000001, then a 32-byte option word.
    """
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(224).op("SHR")  # [selector]
    a.op("DUP1").push(1).op("EQ").jumpi_to("vote")
    a.push(0).push(0).op("REVERT")

    a.label("vote")
    a.op("POP")
    a.push(4).op("CALLDATALOAD")  # [option]
    a.op("DUP1").push(255).op("LT").jumpi_to("bad")  # 255 < option ?
    a.op("DUP1").op("SLOAD")  # [tally, option]
    a.push(1).op("ADD")  # [tally+1, option]
    a.op("SWAP1").op("SSTORE")  # tallies[option] += 1
    a.op("STOP")

    a.label("bad")
    a.push(0).push(0).op("REVERT")
    return a.assemble()


def vote_calldata(option: int) -> bytes:
    return (1).to_bytes(4, "big") + option.to_bytes(32, "big")


def main() -> None:
    deployer = address_from_int(0xD0)
    voters = [address_from_int(0xE0 + i) for i in range(6)]
    alloc = {a: AccountData(balance=10 * ETHER) for a in [deployer, *voters]}
    genesis = genesis_snapshot(alloc)
    evm = EVM()

    # --- deploy via a CREATE transaction ---------------------------------- #
    runtime = voting_contract()
    # init code: the classic constructor pattern — copy the runtime blob
    # (appended after a 13-byte fixed header) into memory and RETURN it
    header_len = 13
    init = Assembler()
    init.push(len(runtime), width=2)  # [size]                       3 bytes
    init.op("DUP1")  # [size, size]                                  1 byte
    init.push(header_len, width=2)  # [src, size, size]              3 bytes
    init.push(0)  # [dst, src, size, size]                           2 bytes
    init.op("CODECOPY")  # memory[0:size] = runtime                  1 byte
    init.push(0)  # [offset, size]                                   2 bytes
    init.op("RETURN")  #                                             1 byte
    init.raw(runtime)
    initcode = init.assemble()
    assert initcode[:header_len].__len__() == header_len

    db = StateDB(genesis)
    deploy_tx = Transaction(deployer, None, 0, initcode, 3_000_000, 1, 0)
    result = evm.apply_transaction(db, deploy_tx, CTX)
    assert result.success, result.error
    contract = result.created
    deployed = db.get_code(contract)
    assert deployed == runtime
    print(f"deployed voting contract at {contract.hex()} ({len(deployed)} bytes)")

    # --- vote serially ---------------------------------------------------- #
    for i, voter in enumerate(voters):
        tx = Transaction(voter, contract, 0, vote_calldata(i % 3), 200_000, 1, 0)
        res = evm.apply_transaction(db, tx, CTX)
        assert res.success, res.error
    print("tallies after serial voting:", [db.get_storage(contract, s) for s in range(3)])

    # out-of-range option reverts
    bad = Transaction(voters[0], contract, 0, vote_calldata(999), 200_000, 1, 1)
    res = evm.apply_transaction(db, bad, CTX)
    print(f"vote(999): success={res.success} (guard reverted it)")

    # --- same bytecode under an OCC snapshot view -------------------------- #
    committed = db.commit()
    store = MultiVersionStore(committed)
    view = OCCStateView(store, snapshot_version=0)  # buffers writes, records the rw-set
    tx = Transaction(voters[1], contract, 0, vote_calldata(0), 200_000, 1, 1)
    res = evm.apply_transaction(view, tx, CTX)
    assert res.success
    # a state key is a plain ``(kind, address, slot)`` tuple
    reads = [k for k in view.rw.reads if k[0] == "storage"]
    writes = [k for k in view.rw.writes if k[0] == "storage"]
    print(
        f"\nOCC execution recorded {len(reads)} storage read(s) and "
        f"{len(writes)} storage write(s):"
    )
    for key in writes:
        _, _, slot = key
        print(f"  slot {slot} -> {view.rw.writes[key]}")
    print("(these are exactly the rw-sets a proposer would publish in the")
    print(" block profile and a validator would verify with Algorithm 2)")


if __name__ == "__main__":
    main()
