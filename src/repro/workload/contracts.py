"""Hotspot contract bytecode (ERC-20, AMM, NFT, airdrop) and calldata ABIs.

These four families cover the conflict patterns Garamvölgyi et al. and the
paper identify (§2.3, §5.5):

* **ERC-20 transfer** — storage conflicts only between transactions that
  share a holder; a *popular token* becomes a soft hotspot through shared
  recipients.
* **AMM swap** — every swap reads and writes the pool's reserve slots:
  all swaps of one pool form a single serial chain (the Uniswap effect).
* **NFT mint** — a shared ``next_id`` counter serialises all mints of a
  collection (token-distribution pattern).
* **Airdrop claim** — a shared remaining-supply counter plus per-user
  claimed flags: the §2.3 "counter" conflict in its purest form.

Two further ERC-20 variants isolate the *semantic conflict reduction*
result of Garamvölgyi et al. ("Taming Application-Inherent Conflicts"):
both count transfers, but the **shared-counter** variant read-modify-writes
one global slot (every transfer of the token conflicts with every other),
while the **partitioned-counter** variant bumps one of ``N`` shard slots
selected by the caller (commutative increments land on disjoint keys, so
only same-shard transfers conflict).  The two runtimes accept identical
calldata, so the same sampled traffic can be replayed against either
variant and the conflict-graph delta is purely the counter layout.

ABI convention: the first 4 bytes of calldata carry the selector; each
argument is a 32-byte big-endian word starting at offset 4.  Mapping slots
follow Solidity: ``keccak(key_word ++ slot_word)``.
"""

from __future__ import annotations

from repro.common.hashing import keccak
from repro.common.types import Address, address_to_int
from repro.evm.asm import Assembler

__all__ = [
    "deploy_initcode",
    "SEL_TRANSFER",
    "SEL_MINT",
    "SEL_SWAP",
    "SEL_NFT_MINT",
    "SEL_CLAIM",
    "erc20_code",
    "erc20_shared_counter_code",
    "erc20_partitioned_counter_code",
    "amm_code",
    "nft_code",
    "airdrop_code",
    "erc20_transfer_calldata",
    "erc20_counted_transfer_calldata",
    "erc20_mint_calldata",
    "amm_swap_calldata",
    "nft_mint_calldata",
    "airdrop_claim_calldata",
    "erc20_balance_slot",
    "nft_owner_slot",
    "airdrop_claimed_slot",
    "mapping_slot",
]

# selectors (one byte is plenty; stored in the conventional 4-byte field)
SEL_TRANSFER = 1
SEL_MINT = 2
SEL_SWAP = 3
SEL_NFT_MINT = 4
SEL_CLAIM = 5

# storage layout constants
ERC20_BALANCES_SLOT = 0
#: shared variant: the raw slot of the global transfer counter;
#: partitioned variant: the mapping base slot of the per-shard counters
ERC20_COUNTER_SLOT = 1
AMM_RESERVE0_SLOT = 0
AMM_RESERVE1_SLOT = 1
NFT_NEXT_ID_SLOT = 0
NFT_OWNERS_SLOT = 1
AIRDROP_REMAINING_SLOT = 0
AIRDROP_CLAIMED_SLOT = 1
AIRDROP_AMOUNT = 1000


def deploy_initcode(runtime: bytes) -> bytes:
    """Constructor wrapper: CODECOPY the runtime blob to memory, RETURN it.

    The 13-byte header layout is fixed so the runtime offset is static:
    PUSH2 size | DUP1 | PUSH2 off | PUSH1 0 | CODECOPY | PUSH1 0 | RETURN.
    """
    header_len = 13
    a = Assembler()
    a.push(len(runtime), width=2)
    a.op("DUP1")
    a.push(header_len, width=2)
    a.push(0)
    a.op("CODECOPY")
    a.push(0)
    a.op("RETURN")
    a.raw(runtime)
    return a.assemble()


def mapping_slot(key: int, slot: int) -> int:
    """Solidity mapping storage slot: keccak(key_word ++ slot_word)."""
    data = key.to_bytes(32, "big") + slot.to_bytes(32, "big")
    return int.from_bytes(keccak(data), "big")


def erc20_balance_slot(holder: Address) -> int:
    return mapping_slot(address_to_int(holder), ERC20_BALANCES_SLOT)


def nft_owner_slot(token_id: int) -> int:
    return mapping_slot(token_id, NFT_OWNERS_SLOT)


def airdrop_claimed_slot(claimer: Address) -> int:
    return mapping_slot(address_to_int(claimer), AIRDROP_CLAIMED_SLOT)


# --------------------------------------------------------------------- #
# assembly helpers                                                      #
# --------------------------------------------------------------------- #


def _emit_selector_dispatch(a: Assembler, routes: list) -> None:
    """Selector word -> label dispatch; unknown selectors revert.

    Leaves the selector on the stack for each route (routes must POP it).
    """
    a.push(0).op("CALLDATALOAD")
    a.push(224).op("SHR")  # [selector]
    for selector, label in routes:
        a.op("DUP1").push(selector).op("EQ").jumpi_to(label)
    _emit_revert(a)


def _emit_revert(a: Assembler) -> None:
    a.push(0).push(0).op("REVERT")  # size, offset (offset on top)


def _emit_mapping_key(a: Assembler, slot: int) -> None:
    """[key_word] -> [storage_key]  via keccak(mem[0:64))."""
    a.push(0).op("MSTORE")  # mem[0:32) = key_word
    a.push(slot).push(32).op("MSTORE")  # mem[32:64) = slot
    a.push(64).push(0).op("SHA3")  # sha3(offset=0, size=64)


def _emit_log0(a: Assembler) -> None:
    a.push(0).push(0).op("LOG0")  # empty event, keeps log plumbing honest


# --------------------------------------------------------------------- #
# ERC-20                                                                #
# --------------------------------------------------------------------- #


def erc20_code() -> bytes:
    """Token contract: ``transfer(to, amount)`` and ``mint(to, amount)``.

    ``transfer`` reverts when the caller's balance is insufficient — the
    revert path exercises journal rollback under every execution mode.
    """
    a = Assembler()
    _emit_selector_dispatch(a, [(SEL_TRANSFER, "transfer"), (SEL_MINT, "mint")])

    # -- transfer(to @4, amount @36) ------------------------------------ #
    a.label("transfer")
    a.op("POP")  # drop selector
    a.op("CALLER")
    _emit_mapping_key(a, ERC20_BALANCES_SLOT)  # [key_from]
    a.op("DUP1").op("SLOAD")  # [bal_from, key_from]
    a.push(36).op("CALLDATALOAD")  # [amt, bal_from, key_from]
    # revert when bal_from < amt
    a.op("DUP1").op("DUP3")  # [bal_from, amt, amt, bal_from, key_from]
    a.op("SWAP1")  # [amt, bal_from, amt, bal_from, key_from]
    a.op("GT").jumpi_to("insufficient")  # amt > bal_from ?
    # new_from = bal_from - amt
    a.op("SWAP1")  # [bal_from, amt, key_from]
    a.op("SUB")  # [bal_from - amt, key_from]
    a.op("SWAP1").op("SSTORE")  # sstore(key_from, new_from)
    # credit recipient
    a.push(4).op("CALLDATALOAD")  # [to]
    _emit_mapping_key(a, ERC20_BALANCES_SLOT)  # [key_to]
    a.op("DUP1").op("SLOAD")  # [bal_to, key_to]
    a.push(36).op("CALLDATALOAD").op("ADD")  # [new_to, key_to]
    a.op("SWAP1").op("SSTORE")
    _emit_log0(a)
    a.op("STOP")

    # -- mint(to @4, amount @36) ---------------------------------------- #
    a.label("mint")
    a.op("POP")
    a.push(4).op("CALLDATALOAD")
    _emit_mapping_key(a, ERC20_BALANCES_SLOT)  # [key_to]
    a.op("DUP1").op("SLOAD")  # [bal, key]
    a.push(36).op("CALLDATALOAD").op("ADD")  # [new, key]
    a.op("SWAP1").op("SSTORE")
    a.op("STOP")

    a.label("insufficient")
    _emit_revert(a)
    return a.assemble()


def erc20_transfer_calldata(to: Address, amount: int) -> bytes:
    return (
        SEL_TRANSFER.to_bytes(4, "big")
        + address_to_int(to).to_bytes(32, "big")
        + amount.to_bytes(32, "big")
    )


def erc20_mint_calldata(to: Address, amount: int) -> bytes:
    return (
        SEL_MINT.to_bytes(4, "big")
        + address_to_int(to).to_bytes(32, "big")
        + amount.to_bytes(32, "big")
    )


def _erc20_counted_code(partitioned: bool) -> bytes:
    """Shared assembly of the two counter variants (see module docs).

    ``transfer(to, amount, shard)`` moves balance exactly like
    :func:`erc20_code`'s transfer, then counts the transfer: the shared
    variant read-modify-writes the single ``ERC20_COUNTER_SLOT`` (and
    ignores ``shard``); the partitioned variant bumps
    ``counters[shard]`` at ``mapping_slot(shard, ERC20_COUNTER_SLOT)``.
    """
    a = Assembler()
    _emit_selector_dispatch(a, [(SEL_TRANSFER, "transfer")])

    # -- transfer(to @4, amount @36, shard @68) ------------------------- #
    a.label("transfer")
    a.op("POP")  # drop selector
    a.op("CALLER")
    _emit_mapping_key(a, ERC20_BALANCES_SLOT)  # [key_from]
    a.op("DUP1").op("SLOAD")  # [bal_from, key_from]
    a.push(36).op("CALLDATALOAD")  # [amt, bal_from, key_from]
    a.op("DUP1").op("DUP3")  # [bal_from, amt, amt, bal_from, key_from]
    a.op("SWAP1")  # [amt, bal_from, amt, bal_from, key_from]
    a.op("GT").jumpi_to("insufficient")  # amt > bal_from ?
    a.op("SWAP1")  # [bal_from, amt, key_from]
    a.op("SUB")  # [bal_from - amt, key_from]
    a.op("SWAP1").op("SSTORE")  # sstore(key_from, new_from)
    a.push(4).op("CALLDATALOAD")  # [to]
    _emit_mapping_key(a, ERC20_BALANCES_SLOT)  # [key_to]
    a.op("DUP1").op("SLOAD")  # [bal_to, key_to]
    a.push(36).op("CALLDATALOAD").op("ADD")  # [new_to, key_to]
    a.op("SWAP1").op("SSTORE")

    # -- count the transfer --------------------------------------------- #
    if partitioned:
        a.push(68).op("CALLDATALOAD")  # [shard]
        _emit_mapping_key(a, ERC20_COUNTER_SLOT)  # [key_shard]
        a.op("DUP1").op("SLOAD")  # [count, key_shard]
        a.push(1).op("ADD")  # [count+1, key_shard]
        a.op("SWAP1").op("SSTORE")
    else:
        a.push(ERC20_COUNTER_SLOT).op("SLOAD")  # [count]
        a.push(1).op("ADD")  # [count+1]
        a.push(ERC20_COUNTER_SLOT).op("SSTORE")
    _emit_log0(a)
    a.op("STOP")

    a.label("insufficient")
    _emit_revert(a)
    return a.assemble()


def erc20_shared_counter_code() -> bytes:
    """Counting token, naive layout: one global transfer counter."""
    return _erc20_counted_code(partitioned=False)


def erc20_partitioned_counter_code() -> bytes:
    """Counting token, conflict-tamed layout: per-shard counters."""
    return _erc20_counted_code(partitioned=True)


def erc20_counted_transfer_calldata(to: Address, amount: int, shard: int) -> bytes:
    """Calldata accepted by *both* counter variants (shard ignored by the
    shared one) — identical traffic, different conflict footprint."""
    return (
        SEL_TRANSFER.to_bytes(4, "big")
        + address_to_int(to).to_bytes(32, "big")
        + amount.to_bytes(32, "big")
        + shard.to_bytes(32, "big")
    )


# --------------------------------------------------------------------- #
# AMM pair                                                              #
# --------------------------------------------------------------------- #


def amm_code(token_out: Address) -> bytes:
    """Constant-product pool: ``swap(amount_in)``.

    Reads both reserve slots, writes both (the hotspot), then CALLs the
    output token's ``mint(caller, amount_out)`` so a swap also touches the
    token contract — cross-contract conflict propagation through a real
    inter-contract message call.
    """
    a = Assembler()
    _emit_selector_dispatch(a, [(SEL_SWAP, "swap")])

    a.label("swap")
    a.op("POP")
    a.push(4).op("CALLDATALOAD")  # [in]
    a.op("DUP1").op("ISZERO").jumpi_to("badinput")
    a.push(AMM_RESERVE0_SLOT).op("SLOAD")  # [r0, in]
    a.push(AMM_RESERVE1_SLOT).op("SLOAD")  # [r1, r0, in]
    # out = (in * r1) / (r0 + in)
    a.op("DUP3").op("MUL")  # [in*r1, r0, in]
    a.op("SWAP1")  # [r0, in*r1, in]
    a.op("DUP3").op("ADD")  # [r0+in, in*r1, in]
    a.op("SWAP1")  # [in*r1, r0+in, in]
    a.op("DIV")  # [out, in]
    # r1' = r1 - out ; r0' = r0 + in   (recompute via SLOADs kept simple)
    a.op("DUP1")  # [out, out, in]
    a.push(AMM_RESERVE1_SLOT).op("SLOAD")  # [r1, out, out, in]
    a.op("SUB")  # [r1-out, out, in]
    a.push(AMM_RESERVE1_SLOT).op("SSTORE")  # [out, in]
    a.op("SWAP1")  # [in, out]
    a.push(AMM_RESERVE0_SLOT).op("SLOAD")  # [r0, in, out]
    a.op("ADD")  # [r0+in, out]
    a.push(AMM_RESERVE0_SLOT).op("SSTORE")  # [out]

    # mint the output token to the caller: token.mint(caller, out)
    sel_word = SEL_MINT << 224
    a.push(sel_word).push(0).op("MSTORE")  # mem[0:32) selector-aligned
    a.op("CALLER").push(4).op("MSTORE")  # mem[4:36) = caller
    a.push(36).op("MSTORE")  # mem[36:68) = out  (pops [36, out]? no:)
    # NOTE: MSTORE pops offset then value; stack here is [out]; we pushed 36
    # so the pop order is offset=36, value=out.  Correct.
    a.push(0)  # out_size
    a.push(0)  # out_off
    a.push(68)  # in_size
    a.push(0)  # in_off
    a.push(0)  # value
    a.push(address_to_int(token_out))  # to
    a.push(200_000)  # gas
    a.op("CALL")
    a.op("ISZERO").jumpi_to("mintfailed")
    _emit_log0(a)
    a.op("STOP")

    a.label("badinput")
    _emit_revert(a)
    a.label("mintfailed")
    _emit_revert(a)
    return a.assemble()


def amm_swap_calldata(amount_in: int) -> bytes:
    return SEL_SWAP.to_bytes(4, "big") + amount_in.to_bytes(32, "big")


# --------------------------------------------------------------------- #
# NFT collection                                                        #
# --------------------------------------------------------------------- #


def nft_code() -> bytes:
    """NFT mint with a shared counter: ``mint()``.

    ``id = next_id; next_id += 1; owners[id] = caller`` — every mint
    read-writes slot 0, so all mints of one collection serialise.
    """
    a = Assembler()
    _emit_selector_dispatch(a, [(SEL_NFT_MINT, "mint")])

    a.label("mint")
    a.op("POP")
    a.push(NFT_NEXT_ID_SLOT).op("SLOAD")  # [id]
    a.op("DUP1").push(1).op("ADD")  # [id+1, id]
    a.push(NFT_NEXT_ID_SLOT).op("SSTORE")  # [id]
    _emit_mapping_key(a, NFT_OWNERS_SLOT)  # [owner_key]
    a.op("CALLER")  # [caller, owner_key]
    a.op("SWAP1")  # [owner_key, caller]
    a.op("SSTORE")
    _emit_log0(a)
    a.op("STOP")
    return a.assemble()


def nft_mint_calldata() -> bytes:
    return SEL_NFT_MINT.to_bytes(4, "big")


# --------------------------------------------------------------------- #
# airdrop distributor                                                   #
# --------------------------------------------------------------------- #


def airdrop_code() -> bytes:
    """Airdrop ``claim()``: one claim per address while supply remains.

    Conflicts on the shared remaining-supply counter (slot 0); the
    double-claim guard gives the workload a natural revert path.
    """
    a = Assembler()
    _emit_selector_dispatch(a, [(SEL_CLAIM, "claim")])

    a.label("claim")
    a.op("POP")
    # already claimed?
    a.op("CALLER")
    _emit_mapping_key(a, AIRDROP_CLAIMED_SLOT)  # [claim_key]
    a.op("DUP1").op("SLOAD")  # [claimed, claim_key]
    a.jumpi_to("alreadyclaimed")  # [claim_key]
    # supply left?
    a.push(AIRDROP_REMAINING_SLOT).op("SLOAD")  # [remaining, claim_key]
    a.op("DUP1").op("ISZERO").jumpi_to("exhausted")
    # remaining -= 1
    a.push(1).op("SWAP1").op("SUB")  # [remaining-1, claim_key]
    a.push(AIRDROP_REMAINING_SLOT).op("SSTORE")  # [claim_key]
    # claimed[caller] = 1
    a.push(1).op("SWAP1").op("SSTORE")  # sstore(claim_key, 1)
    _emit_log0(a)
    a.op("STOP")

    a.label("alreadyclaimed")
    _emit_revert(a)
    a.label("exhausted")
    _emit_revert(a)
    return a.assemble()


def airdrop_claim_calldata() -> bytes:
    return SEL_CLAIM.to_bytes(4, "big")
