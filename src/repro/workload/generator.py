"""Per-block transaction sampling with tunable hotspot pressure.

The generator reproduces the statistical properties the paper's evaluation
depends on:

* ~132 transactions per block (§5.1), jittered;
* a transaction mix spanning plain payments, token transfers, AMM swaps,
  NFT mints and airdrop claims (§5.5's application patterns);
* ``hotspot_intensity`` concentrates contract traffic on the single
  hottest instance of each family; at the mainnet calibration the largest
  dependency subgraph averages ≈27.5% of the block (Fig. 8's observation),
  and sweeping the knob sweeps that ratio — the x-axis of Fig. 8;
* Zipf-skewed receiver popularity, so payment graphs also percolate.

Invariant: every generated transaction is *valid at generation order*
(correct nonce, affordable); transactions may still revert (token
insufficiency, double claims), which is realistic and exercised.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.types import Address
from repro.txpool.transaction import Transaction
from repro.workload.contracts import (
    airdrop_claim_calldata,
    amm_swap_calldata,
    deploy_initcode,
    erc20_code,
    erc20_transfer_calldata,
    nft_mint_calldata,
)
from repro.workload.universe import Universe

__all__ = ["WorkloadConfig", "BlockWorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload shape parameters (see module docs)."""

    txs_per_block: int = 132
    tx_count_jitter: float = 0.12
    # transaction-type mix (normalised internally)
    w_payment: float = 0.30
    w_erc20: float = 0.40
    w_amm: float = 0.14
    w_nft: float = 0.09
    w_airdrop: float = 0.07
    #: probability that a contract transaction targets the hottest instance
    #: of its family (0 = uniform spread, 1 = all traffic on one contract)
    hotspot_intensity: float = 0.52
    #: chance of reusing a sender already used in this block (nonce chains)
    sender_repeat_prob: float = 0.04
    #: Zipf-ish skew for payment receivers (higher = more concentrated)
    receiver_skew: float = 1.0
    #: fraction of token transfers that attempt more than the balance
    #: (exercises the revert path)
    revert_fraction: float = 0.01
    #: fraction of transactions that deploy a fresh contract (CREATE txs —
    #: new token clones entering the ecosystem).  Off by default: the
    #: calibrated benchmarks were fitted without deployments; enable for
    #: workloads that should exercise the CREATE path end to end.
    deploy_fraction: float = 0.0
    gas_price_min: int = 10
    gas_price_max: int = 200
    seed: int = 42

    def weights(self) -> List[float]:
        return [self.w_payment, self.w_erc20, self.w_amm, self.w_nft, self.w_airdrop]


_KINDS = ["payment", "erc20", "amm", "nft", "airdrop"]

# generous per-kind gas limits (execution uses far less; unused gas refunds)
_GAS_LIMITS = {
    "payment": 60_000,
    "erc20": 400_000,
    "amm": 900_000,
    "nft": 400_000,
    "airdrop": 400_000,
}


class BlockWorkloadGenerator:
    """Stateful generator: tracks nonces and airdrop claims across blocks."""

    def __init__(self, universe: Universe, config: Optional[WorkloadConfig] = None):
        if not universe.eoas:
            raise ValueError("cannot generate transactions: universe has no EOAs")
        self.universe = universe
        cfg = config or WorkloadConfig()
        self.rng = random.Random(cfg.seed)
        self._claimed: Dict[Address, set] = {a: set() for a in universe.airdrops}
        self.config = cfg  # property: validates and derives sampling weights

    @property
    def config(self) -> WorkloadConfig:
        return self._config

    @config.setter
    def config(self, value: WorkloadConfig) -> None:
        """Swap the workload shape mid-stream (scenario engines modulate
        the mix per height).  The RNG is *not* reseeded — the stream stays
        one deterministic function of the original seed."""
        weights = value.weights()
        if any(w < 0 for w in weights):
            raise ValueError("workload mix weights must be non-negative")
        universe = self.universe
        # a weighted kind with no deployed instances would crash sampling
        # (IndexError out of an empty family); zero it out instead so
        # partial universes (payments-only, no AMMs, ...) just work
        families = [
            universe.eoas,
            universe.tokens,
            universe.amms,
            universe.nfts,
            universe.airdrops,
        ]
        kind_weights = [w if family else 0.0 for w, family in zip(weights, families)]
        if sum(kind_weights) <= 0 and value.deploy_fraction < 1.0:
            raise ValueError(
                "workload mix is empty: every transaction kind has zero weight "
                "or no deployed instances (and deploy_fraction < 1)"
            )
        self._config = value
        self._kind_weights = kind_weights
        # Zipf-like weights over EOAs for receiver popularity, accumulated
        # once here: ``random.choices(weights=)`` would on every draw
        skew = value.receiver_skew
        self._receiver_cum_weights = list(
            itertools.accumulate(1.0 / (rank + 1) ** skew for rank in range(len(universe.eoas)))
        )

    # ------------------------------------------------------------------ #

    def _pick_receiver(self) -> Address:
        return self.rng.choices(
            self.universe.eoas, cum_weights=self._receiver_cum_weights
        )[0]

    def _pick_hot_or_uniform(self, instances: Sequence) -> object:
        """The family hotspot with probability ``hotspot_intensity``.

        At intensity 0 traffic spreads uniformly over the *non-hottest*
        instances — the hotspot contributes nothing, which is the sweep's
        intended floor.  An empty family is a configuration error (the
        constructor zeroes the weights of missing families, so reaching
        this with one means the caller bypassed the mix).
        """
        if not instances:
            raise ValueError(
                "no deployed instances of the requested contract family"
            )
        if len(instances) == 1 or self.rng.random() < self.config.hotspot_intensity:
            return instances[0]
        return self.rng.choice(instances[1:])

    def _pick_sender(self, used: List[Address]) -> Address:
        cfg = self.config
        if used and self.rng.random() < cfg.sender_repeat_prob:
            return self.rng.choice(used)
        return self.rng.choice(self.universe.eoas)

    # ------------------------------------------------------------------ #

    def generate_block_txs(self, count: Optional[int] = None) -> List[Transaction]:
        """Sample one block's worth of pending transactions."""
        cfg = self.config
        rng = self.rng
        uni = self.universe
        if count is None:
            jitter = int(cfg.txs_per_block * cfg.tx_count_jitter)
            count = cfg.txs_per_block + rng.randint(-jitter, jitter) if jitter else cfg.txs_per_block
        txs: List[Transaction] = []
        used_senders: List[Address] = []

        deploy_code = (
            deploy_initcode(erc20_code()) if cfg.deploy_fraction > 0 else b""
        )
        for _ in range(count):
            if cfg.deploy_fraction > 0 and rng.random() < cfg.deploy_fraction:
                kind = "deploy"
            else:
                kind = rng.choices(_KINDS, self._kind_weights)[0]
            drop = None
            if kind == "airdrop":
                drop = self._pick_hot_or_uniform(uni.airdrops)
                claimed = self._claimed[drop]
                fresh = [e for e in uni.eoas if e not in claimed]
                # prefer an unclaimed sender so most claims succeed; fall
                # back to a repeat claimer (its claim reverts — realistic)
                sender = rng.choice(fresh) if fresh else self._pick_sender(used_senders)
                claimed.add(sender)
            else:
                sender = self._pick_sender(used_senders)
            used_senders.append(sender)
            nonce = uni.next_nonce(sender)
            gas_price = rng.randint(cfg.gas_price_min, cfg.gas_price_max)

            if kind == "deploy":
                tx = Transaction(
                    sender=sender,
                    to=None,
                    value=0,
                    data=deploy_code,
                    gas_limit=3_000_000,
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="deploy",
                )
            elif kind == "payment":
                to = self._pick_receiver()
                tx = Transaction(
                    sender=sender,
                    to=to,
                    value=rng.randint(1, 10**9),
                    data=b"",
                    gas_limit=_GAS_LIMITS[kind],
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="payment",
                )
            elif kind == "erc20":
                token = self._pick_hot_or_uniform(uni.tokens)
                to = self._pick_receiver()
                if rng.random() < cfg.revert_fraction:
                    amount = uni.config.initial_token_balance * 10**6  # reverts
                else:
                    amount = rng.randint(1, 10**6)
                tx = Transaction(
                    sender=sender,
                    to=token,
                    value=0,
                    data=erc20_transfer_calldata(to, amount),
                    gas_limit=_GAS_LIMITS[kind],
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="erc20",
                )
            elif kind == "amm":
                pool, _tin, _tout = self._pick_hot_or_uniform(uni.amms)
                tx = Transaction(
                    sender=sender,
                    to=pool,
                    value=0,
                    data=amm_swap_calldata(rng.randint(10**3, 10**9)),
                    gas_limit=_GAS_LIMITS[kind],
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="amm",
                )
            elif kind == "nft":
                collection = self._pick_hot_or_uniform(uni.nfts)
                tx = Transaction(
                    sender=sender,
                    to=collection,
                    value=0,
                    data=nft_mint_calldata(),
                    gas_limit=_GAS_LIMITS[kind],
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="nft",
                )
            else:  # airdrop
                tx = Transaction(
                    sender=sender,
                    to=drop,
                    value=0,
                    data=airdrop_claim_calldata(),
                    gas_limit=_GAS_LIMITS[kind],
                    gas_price=gas_price,
                    nonce=nonce,
                    tag="airdrop",
                )
            txs.append(tx)
        return txs

    def generate_blocks(self, n_blocks: int) -> List[List[Transaction]]:
        """Generate transaction sets for ``n_blocks`` consecutive blocks."""
        return [self.generate_block_txs() for _ in range(n_blocks)]
