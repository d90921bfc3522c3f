"""Genesis construction: funded EOAs and pre-deployed hotspot contracts.

Contracts are placed in the genesis allocation with populated storage
(token balances for every EOA, AMM reserves, airdrop supply), which mirrors
how the paper's evaluation starts from a mainnet state at height 10M — the
contracts and balances already exist when the measured blocks execute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.types import Address, address_from_int
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot, genesis_snapshot
from repro.workload.contracts import (
    AIRDROP_REMAINING_SLOT,
    AMM_RESERVE0_SLOT,
    AMM_RESERVE1_SLOT,
    NFT_NEXT_ID_SLOT,
    airdrop_code,
    amm_code,
    erc20_balance_slot,
    erc20_code,
    erc20_partitioned_counter_code,
    erc20_shared_counter_code,
    nft_code,
)

__all__ = ["UniverseConfig", "Universe", "build_universe"]

ETHER = 10**18


@dataclass(frozen=True)
class UniverseConfig:
    """Shape of the synthetic world."""

    n_eoas: int = 1500
    n_tokens: int = 24
    n_amms: int = 8
    n_nfts: int = 6
    n_airdrops: int = 4
    #: counting ERC-20 variants (see contracts module docs) — off by
    #: default so the paper-calibrated genesis is unchanged; the
    #: conflict-taming scenarios turn them on in matched pairs
    n_counter_tokens: int = 0
    n_partitioned_tokens: int = 0
    #: shard count of the partitioned-counter variant
    counter_shards: int = 8
    eoa_balance: int = 1_000 * ETHER
    token_holder_fraction: float = 0.8  # EOAs pre-holding each token
    initial_token_balance: int = 10**12
    amm_reserve: int = 10**15
    airdrop_supply: int = 10**9
    seed: int = 1


@dataclass
class Universe:
    """The generated world: genesis state plus the address book.

    ``nonces`` tracks the next nonce per EOA as the generator emits
    transactions; it must stay in sync with the chain (it does as long as
    every generated transaction is eventually packed — see the generator's
    invariants).
    """

    config: UniverseConfig
    genesis: StateSnapshot
    eoas: List[Address]
    tokens: List[Address]
    amms: List[Tuple[Address, Address, Address]]  # (pool, token_in, token_out)
    nfts: List[Address]
    airdrops: List[Address]
    #: counting ERC-20 variants (empty unless the config asks for them)
    counter_tokens: List[Address] = field(default_factory=list)
    partitioned_tokens: List[Address] = field(default_factory=list)
    nonces: Dict[Address, int] = field(default_factory=dict)

    def next_nonce(self, sender: Address) -> int:
        """Allocate the next nonce for ``sender`` (mutates the counter)."""
        nonce = self.nonces.get(sender, 0)
        self.nonces[sender] = nonce + 1
        return nonce


def _eoa_address(index: int) -> Address:
    # offset keeps EOAs clear of the low addresses used in tests
    return address_from_int(0x1000_0000 + index)


def _contract_address(kind: int, index: int) -> Address:
    return address_from_int(0xC0 << 152 | kind << 32 | index)


def build_universe(config: UniverseConfig | None = None) -> Universe:
    """Build genesis state and address book for a workload run."""
    cfg = config or UniverseConfig()
    if cfg.n_eoas < 1:
        raise ValueError("universe needs at least one EOA")
    if cfg.n_amms > 0 and cfg.n_tokens < 1:
        raise ValueError("AMM pools pair tokens: n_amms > 0 needs n_tokens >= 1")
    rng = random.Random(cfg.seed)

    eoas = [_eoa_address(i) for i in range(cfg.n_eoas)]
    alloc: Dict[Address, AccountData] = {
        a: AccountData(balance=cfg.eoa_balance) for a in eoas
    }

    # tokens: every holder EOA gets an initial balance
    tokens: List[Address] = []
    token_code = erc20_code()
    for t in range(cfg.n_tokens):
        address = _contract_address(1, t)
        holders = rng.sample(
            eoas, max(1, int(len(eoas) * cfg.token_holder_fraction))
        )
        storage = {
            erc20_balance_slot(h): cfg.initial_token_balance for h in holders
        }
        alloc[address] = AccountData(code=token_code, storage=storage, balance=0)
        tokens.append(address)

    # AMM pools: each pairs two tokens; swaps mint the output token
    amms: List[Tuple[Address, Address, Address]] = []
    for p in range(cfg.n_amms):
        token_in = tokens[p % len(tokens)]
        token_out = tokens[(p + 1) % len(tokens)]
        address = _contract_address(2, p)
        alloc[address] = AccountData(
            code=amm_code(token_out),
            storage={
                AMM_RESERVE0_SLOT: cfg.amm_reserve,
                AMM_RESERVE1_SLOT: cfg.amm_reserve,
            },
        )
        amms.append((address, token_in, token_out))

    # NFT collections
    nfts: List[Address] = []
    nft_bytecode = nft_code()
    for c in range(cfg.n_nfts):
        address = _contract_address(3, c)
        alloc[address] = AccountData(
            code=nft_bytecode, storage={NFT_NEXT_ID_SLOT: 1}
        )
        nfts.append(address)

    # counting ERC-20 variants: matched pairs for conflict-taming studies
    # (same holder sets per index, so shared-vs-partitioned runs differ
    # only in counter layout)
    counter_tokens: List[Address] = []
    partitioned_tokens: List[Address] = []
    if cfg.n_counter_tokens or cfg.n_partitioned_tokens:
        shared_code = erc20_shared_counter_code()
        partitioned_code = erc20_partitioned_counter_code()
        pair_count = max(cfg.n_counter_tokens, cfg.n_partitioned_tokens)
        for t in range(pair_count):
            holders = rng.sample(
                eoas, max(1, int(len(eoas) * cfg.token_holder_fraction))
            )
            storage = {
                erc20_balance_slot(h): cfg.initial_token_balance for h in holders
            }
            if t < cfg.n_counter_tokens:
                address = _contract_address(5, t)
                alloc[address] = AccountData(
                    code=shared_code, storage=dict(storage), balance=0
                )
                counter_tokens.append(address)
            if t < cfg.n_partitioned_tokens:
                address = _contract_address(6, t)
                alloc[address] = AccountData(
                    code=partitioned_code, storage=dict(storage), balance=0
                )
                partitioned_tokens.append(address)

    # airdrop distributors
    airdrops: List[Address] = []
    airdrop_bytecode = airdrop_code()
    for d in range(cfg.n_airdrops):
        address = _contract_address(4, d)
        alloc[address] = AccountData(
            code=airdrop_bytecode,
            storage={AIRDROP_REMAINING_SLOT: cfg.airdrop_supply},
        )
        airdrops.append(address)

    genesis = genesis_snapshot(alloc)
    return Universe(
        config=cfg,
        genesis=genesis,
        eoas=eoas,
        tokens=tokens,
        amms=amms,
        nfts=nfts,
        airdrops=airdrops,
        counter_tokens=counter_tokens,
        partitioned_tokens=partitioned_tokens,
    )
