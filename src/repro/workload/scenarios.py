"""Named workload parameterisations and the scenario stream engine.

Config-level scenarios (plain :class:`WorkloadConfig` factories):

* ``mainnet`` — the default calibration: ≈132 tx/block with the mix and
  hotspot pressure tuned so the largest dependency subgraph averages near
  the paper's 27.5% (§5.5).
* ``payment_heavy`` — early-era blocks: mostly plain transfers, high
  parallelism (the regime where Saraph et al. report blocks parallelise
  well).
* ``hotspot(h)`` — the Fig. 8 sweep: same mix, hotspot intensity ``h``.
* ``era_profile(height)`` — parallelizability decays with chain age
  ("the parallelizability of blocks decreases over time", §5.5): later
  heights shift weight from payments toward DeFi/NFT hotspots.

Stream-level scenarios (:data:`SCENARIO_REGISTRY`, via
:func:`get_scenario`) go beyond what a single static config can express.
Each is a :class:`ScenarioStream` — a stateful, lazily-iterated block
source layered on :class:`BlockWorkloadGenerator` — reproducing traffic
shapes from the related literature:

* ``counter-shared`` / ``counter-partitioned`` — the semantic
  conflict-reduction pair of Garamvölgyi et al.: identical counted-ERC-20
  traffic (same seed ⇒ same senders, receivers, amounts) hitting either
  the global-counter or the per-shard-counter token variant.  The only
  difference is the counter's storage layout, so any conflict-graph delta
  is purely the commutativity win.
* ``airdrop-storm`` / ``nft-mint-rush`` — burst-arrival models: a
  periodic envelope swaps the per-block mix between calm mainnet traffic
  and a claim/mint stampede on one hot contract.
* ``mev-bundles`` — Block-STM's adversarial pattern: searcher bundles
  (frontrun → victim → backrun on one AMM pool) injected into organic
  traffic, producing long dependency chains and searcher nonce chains.
* ``long-tail`` — a streaming generator drawing payment receivers from a
  million-account universe via inverse-CDF Zipf sampling; accounts are
  materialised lazily (an address is just a number until a payment
  creates it), so memory stays bounded by the *sender* set.
* ``day-in-the-life`` — a 24-block diurnal cycle composing era drift
  with a storm phase, an MEV window and a mint rush.

Determinism contract: a stream is a pure function of its construction
seed.  Same scenario + same seed ⇒ byte-identical transaction stream
(see :func:`tx_fingerprint`), which the property suite enforces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.common.types import Address, address_from_int, address_to_int
from repro.txpool.transaction import Transaction
from repro.workload.contracts import (
    amm_swap_calldata,
    erc20_counted_transfer_calldata,
)
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.universe import Universe, UniverseConfig, build_universe

__all__ = [
    "mainnet_scenario",
    "payment_heavy_scenario",
    "hotspot_scenario",
    "era_profile",
    "SCENARIOS",
    "ScenarioStream",
    "CounterTokenStream",
    "BurstScenarioStream",
    "MevBundleStream",
    "StreamingLongTailGenerator",
    "LongTailStream",
    "DayInTheLifeStream",
    "ScenarioSpec",
    "SCENARIO_REGISTRY",
    "get_scenario",
    "scenario_names",
    "tx_fingerprint",
    "build_mev_bundle",
    "LONG_TAIL_ACCOUNT_BASE",
]


def mainnet_scenario(seed: int = 42) -> WorkloadConfig:
    """The paper-calibrated default (see EXPERIMENTS.md for the fit)."""
    return WorkloadConfig(seed=seed)


def payment_heavy_scenario(seed: int = 42) -> WorkloadConfig:
    """Early-chain traffic: payments dominate, weak hotspots."""
    return WorkloadConfig(
        w_payment=0.80,
        w_erc20=0.15,
        w_amm=0.02,
        w_nft=0.02,
        w_airdrop=0.01,
        hotspot_intensity=0.1,
        receiver_skew=0.6,
        seed=seed,
    )


def hotspot_scenario(intensity: float, seed: int = 42) -> WorkloadConfig:
    """Fig. 8's independent variable: sweep the hotspot pressure."""
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0, 1]")
    return WorkloadConfig(hotspot_intensity=intensity, seed=seed)


def era_profile(height: int, *, horizon: int = 10_000_000, seed: int = 42) -> WorkloadConfig:
    """Interpolate from payment-heavy genesis-era traffic to the hotspot-
    dominated modern mix as ``height`` approaches ``horizon``."""
    t = max(0.0, min(1.0, height / horizon))
    early = payment_heavy_scenario(seed)
    late = mainnet_scenario(seed)

    def lerp(a: float, b: float) -> float:
        return a + (b - a) * t

    return replace(
        early,
        w_payment=lerp(early.w_payment, late.w_payment),
        w_erc20=lerp(early.w_erc20, late.w_erc20),
        w_amm=lerp(early.w_amm, late.w_amm),
        w_nft=lerp(early.w_nft, late.w_nft),
        w_airdrop=lerp(early.w_airdrop, late.w_airdrop),
        hotspot_intensity=lerp(early.hotspot_intensity, late.hotspot_intensity),
        receiver_skew=lerp(early.receiver_skew, late.receiver_skew),
    )


SCENARIOS: Dict[str, Callable[..., WorkloadConfig]] = {
    "mainnet": mainnet_scenario,
    "payment_heavy": payment_heavy_scenario,
    "hotspot": hotspot_scenario,
}


# ===================================================================== #
# Scenario stream engine                                                #
# ===================================================================== #

#: synthetic receiver space for the streaming long-tail generator; clear
#: of EOAs (0x1000_0000+) and genesis contracts (0xC0 << 152 | ...)
LONG_TAIL_ACCOUNT_BASE = 0x4000_0000


def tx_fingerprint(tx: Transaction) -> bytes:
    """Canonical byte serialisation of everything that matters for
    equality — two streams are byte-identical iff their fingerprint
    sequences match."""
    to = tx.to if tx.to is not None else b"\xff" * 20
    return b"".join(
        (
            tx.sender,
            to,
            tx.value.to_bytes(16, "big"),
            tx.gas_limit.to_bytes(8, "big"),
            tx.gas_price.to_bytes(8, "big"),
            tx.nonce.to_bytes(8, "big"),
            len(tx.data).to_bytes(4, "big"),
            tx.data,
        )
    )


class ScenarioStream:
    """A lazily-iterated block source: generator + per-height modulation.

    Subclasses customise two hooks:

    * :meth:`config_at` — return a :class:`WorkloadConfig` to swap in
      before sampling a given height (burst envelopes, era drift).  The
      generator's RNG is *not* reseeded on swap, so the stream stays a
      single deterministic function of the construction seed.
    * :meth:`_post` — transform or extend the sampled transactions
      (bundle injection, adversarial traffic).

    The stream exposes the same ``generate_block_txs`` /
    ``generate_blocks`` surface as :class:`BlockWorkloadGenerator`, so
    every consumer (CLI, benches, fuzzer) can take either.
    """

    def __init__(
        self,
        universe: Universe,
        config: Optional[WorkloadConfig] = None,
        *,
        generator: Optional[BlockWorkloadGenerator] = None,
    ):
        self.universe = universe
        self.generator = generator or BlockWorkloadGenerator(universe, config)
        self.height = 0

    # hooks ------------------------------------------------------------ #

    def config_at(self, height: int) -> Optional[WorkloadConfig]:
        """Workload shape for ``height`` (None = keep the current one)."""
        return None

    def _post(self, height: int, txs: List[Transaction]) -> List[Transaction]:
        """Post-process one block's transactions."""
        return txs

    # iteration -------------------------------------------------------- #

    def generate_block_txs(self, count: Optional[int] = None) -> List[Transaction]:
        height = self.height
        cfg = self.config_at(height)
        if cfg is not None and cfg is not self.generator.config:
            self.generator.config = cfg
        txs = self.generator.generate_block_txs(count)
        txs = self._post(height, txs)
        self.height += 1
        return txs

    def generate_blocks(self, n_blocks: int) -> List[List[Transaction]]:
        return [self.generate_block_txs() for _ in range(n_blocks)]


# --------------------------------------------------------------------- #
# (a) commutative / partitioned-counter ERC-20                          #
# --------------------------------------------------------------------- #


class CounterTokenStream(ScenarioStream):
    """Counted-ERC-20 traffic against the shared- or partitioned-counter
    token variant.

    The RNG draw sequence is independent of the variant: both variants of
    a given seed see the same senders, receivers, amounts and token
    indices, and the shard index is a pure function of the sender.  The
    only difference between the two streams is which address-family the
    token index resolves into — so the conflict-graph delta between them
    is exactly the counter layout (the commutativity regression test
    keys off this).
    """

    def __init__(
        self,
        universe: Universe,
        config: Optional[WorkloadConfig] = None,
        *,
        partitioned: bool,
        payment_fraction: float = 0.1,
    ):
        super().__init__(universe, config)
        tokens = (
            universe.partitioned_tokens if partitioned else universe.counter_tokens
        )
        if not tokens:
            raise ValueError(
                "universe has no counter-token variants: build it with "
                "n_counter_tokens / n_partitioned_tokens > 0"
            )
        self.partitioned = partitioned
        self.tokens = tokens
        self.payment_fraction = payment_fraction

    def generate_block_txs(self, count: Optional[int] = None) -> List[Transaction]:
        cfg = self.generator.config
        rng = self.generator.rng
        uni = self.universe
        if count is None:
            count = cfg.txs_per_block
        shards = max(1, uni.config.counter_shards)
        txs: List[Transaction] = []
        for _ in range(count):
            # draw order is variant-independent: every branch consumes the
            # same RNG sequence, so shared and partitioned runs of one
            # seed carry identical traffic
            is_payment = rng.random() < self.payment_fraction
            sender = rng.choice(uni.eoas)
            token = self.tokens[rng.randrange(len(self.tokens))]
            to = self.generator._pick_receiver()
            amount = rng.randint(1, 10**6)
            gas_price = rng.randint(cfg.gas_price_min, cfg.gas_price_max)
            nonce = uni.next_nonce(sender)
            if is_payment:
                txs.append(
                    Transaction(
                        sender=sender,
                        to=to,
                        value=amount,
                        data=b"",
                        gas_limit=60_000,
                        gas_price=gas_price,
                        nonce=nonce,
                        tag="payment",
                    )
                )
            else:
                shard = address_to_int(sender) % shards
                txs.append(
                    Transaction(
                        sender=sender,
                        to=token,
                        value=0,
                        data=erc20_counted_transfer_calldata(to, amount, shard),
                        gas_limit=400_000,
                        gas_price=gas_price,
                        nonce=nonce,
                        tag="erc20-counter",
                    )
                )
        self.height += 1
        return txs


# --------------------------------------------------------------------- #
# (b) burst-arrival models                                              #
# --------------------------------------------------------------------- #


class BurstScenarioStream(ScenarioStream):
    """Per-height mix modulation through an envelope function."""

    def __init__(
        self,
        universe: Universe,
        envelope: Callable[[int], WorkloadConfig],
        *,
        seed: int = 42,
    ):
        self.envelope = envelope
        super().__init__(universe, envelope(0))
        # config_at swaps shapes; the seed lives in the RNG, created once
        self.generator.rng.seed(seed)

    def config_at(self, height: int) -> Optional[WorkloadConfig]:
        return self.envelope(height)


def _storm_envelope(
    calm: WorkloadConfig,
    storm: WorkloadConfig,
    *,
    period: int,
    burst: int,
) -> Callable[[int], WorkloadConfig]:
    def envelope(height: int) -> WorkloadConfig:
        return storm if (height % period) < burst else calm

    return envelope


def airdrop_storm_envelope(
    seed: int = 42, *, period: int = 8, burst: int = 3
) -> Callable[[int], WorkloadConfig]:
    """Airdrop claim stampede: the first ``burst`` of every ``period``
    blocks is ~3/4 claims on the hottest distributor."""
    calm = mainnet_scenario(seed)
    storm = replace(
        calm,
        w_payment=0.12,
        w_erc20=0.08,
        w_amm=0.03,
        w_nft=0.02,
        w_airdrop=0.75,
        hotspot_intensity=0.92,
    )
    return _storm_envelope(calm, storm, period=period, burst=burst)


def nft_mint_rush_envelope(
    seed: int = 42, *, period: int = 8, burst: int = 3
) -> Callable[[int], WorkloadConfig]:
    """Drop-day mint rush: burst blocks are ~3/4 mints on one collection
    (its ``next_id`` counter serialises the whole rush)."""
    calm = mainnet_scenario(seed)
    storm = replace(
        calm,
        w_payment=0.12,
        w_erc20=0.08,
        w_amm=0.03,
        w_nft=0.75,
        w_airdrop=0.02,
        hotspot_intensity=0.92,
    )
    return _storm_envelope(calm, storm, period=period, burst=burst)


# --------------------------------------------------------------------- #
# (c) MEV-style dependent bundles                                       #
# --------------------------------------------------------------------- #


def build_mev_bundle(
    universe: Universe,
    rng: random.Random,
    searcher: Address,
    *,
    hot_pool_bias: float = 0.7,
) -> List[Transaction]:
    """One sandwich: searcher frontrun, victim swap, searcher backrun —
    all on one AMM pool, whose reserve slots chain the three serially."""
    amms = universe.amms
    if not amms:
        raise ValueError("MEV bundles need at least one AMM pool")
    if len(amms) == 1 or rng.random() < hot_pool_bias:
        pool, _tin, _tout = amms[0]
    else:
        pool, _tin, _tout = amms[1 + rng.randrange(len(amms) - 1)]
    victim = rng.choice(universe.eoas)
    bundle: List[Transaction] = []
    for who, tag in (
        (searcher, "mev-front"),
        (victim, "mev-victim"),
        (searcher, "mev-back"),
    ):
        bundle.append(
            Transaction(
                sender=who,
                to=pool,
                value=0,
                data=amm_swap_calldata(rng.randint(10**3, 10**9)),
                gas_limit=900_000,
                gas_price=rng.randint(150, 400),  # bundles bid high
                nonce=universe.next_nonce(who),
                tag=tag,
            )
        )
    return bundle


class MevBundleStream(ScenarioStream):
    """Organic traffic plus searcher bundles appended per block.

    Searchers rotate round-robin over a small set, so each accumulates a
    long nonce chain on top of the serial reserve-slot chains — the
    dependent-path adversary Block-STM evaluates against.
    """

    def __init__(
        self,
        universe: Universe,
        config: Optional[WorkloadConfig] = None,
        *,
        bundles_per_block: int = 4,
        n_searchers: int = 4,
        hot_pool_bias: float = 0.7,
    ):
        super().__init__(universe, config)
        n_searchers = max(1, min(n_searchers, len(universe.eoas)))
        self.searchers = list(universe.eoas[:n_searchers])
        self.bundles_per_block = bundles_per_block
        self.hot_pool_bias = hot_pool_bias
        self._next_searcher = 0

    def _post(self, height: int, txs: List[Transaction]) -> List[Transaction]:
        rng = self.generator.rng
        for _ in range(self.bundles_per_block):
            searcher = self.searchers[self._next_searcher % len(self.searchers)]
            self._next_searcher += 1
            txs.extend(
                build_mev_bundle(
                    self.universe,
                    rng,
                    searcher,
                    hot_pool_bias=self.hot_pool_bias,
                )
            )
        return txs


# --------------------------------------------------------------------- #
# (d) streaming long-tail generator                                     #
# --------------------------------------------------------------------- #


class StreamingLongTailGenerator(BlockWorkloadGenerator):
    """Payment receivers drawn lazily from a million-account universe.

    Inverse-CDF sampling of a bounded Zipf(s≈1) over ``universe_size``
    ranks: ``rank = ⌊exp(u·ln(N+1))⌋ − 1`` needs no weight table, so the
    account universe is never materialised — a receiver only becomes
    state when a payment credits it.  Memory is O(senders), not O(N)
    (the bounded-memory test pins this).
    """

    def __init__(
        self,
        universe: Universe,
        config: Optional[WorkloadConfig] = None,
        *,
        universe_size: int = 1_000_000,
    ):
        if universe_size < 1:
            raise ValueError("universe_size must be positive")
        self.universe_size = universe_size
        self._log_n1 = math.log(universe_size + 1)
        super().__init__(universe, config)

    def _pick_receiver(self) -> Address:
        u = self.rng.random()
        rank = int(math.exp(u * self._log_n1)) - 1
        rank = min(max(rank, 0), self.universe_size - 1)
        return address_from_int(LONG_TAIL_ACCOUNT_BASE + rank)


class LongTailStream(ScenarioStream):
    """Payment-only traffic through the streaming long-tail generator."""

    def __init__(
        self,
        universe: Universe,
        config: Optional[WorkloadConfig] = None,
        *,
        universe_size: int = 1_000_000,
    ):
        cfg = config or replace(
            payment_heavy_scenario(),
            w_payment=1.0,
            w_erc20=0.0,
            w_amm=0.0,
            w_nft=0.0,
            w_airdrop=0.0,
        )
        super().__init__(
            universe,
            generator=StreamingLongTailGenerator(
                universe, cfg, universe_size=universe_size
            ),
        )


# --------------------------------------------------------------------- #
# (e) day-in-the-life replay                                            #
# --------------------------------------------------------------------- #


class DayInTheLifeStream(ScenarioStream):
    """A 24-block diurnal cycle composing the other shapes.

    Within each cycle: era-drifted organic traffic, an airdrop storm at
    hours 6–9, an MEV window at hours 10–13 (bundle injection), and an
    NFT mint rush at hours 14–17.  Across cycles the era drift advances,
    so later days are more hotspot-bound than earlier ones (§5.5).
    """

    CYCLE = 24
    STORM_HOURS = range(6, 10)
    MEV_HOURS = range(10, 14)
    MINT_HOURS = range(14, 18)

    def __init__(
        self,
        universe: Universe,
        *,
        seed: int = 42,
        txs_per_block: Optional[int] = None,
        drift_horizon: int = 10 * 24,
    ):
        self.seed = seed
        self.txs_per_block = txs_per_block
        self.drift_horizon = drift_horizon
        self._storm = airdrop_storm_envelope(seed)
        self._mint = nft_mint_rush_envelope(seed)
        super().__init__(universe, self._shape(0))
        self.searchers = list(universe.eoas[: min(4, len(universe.eoas))])
        self._next_searcher = 0

    def _shape(self, height: int) -> WorkloadConfig:
        hour = height % self.CYCLE
        if hour in self.STORM_HOURS:
            cfg = self._storm(0)  # storm block of the envelope's cycle
        elif hour in self.MINT_HOURS:
            cfg = self._mint(0)
        else:
            cfg = era_profile(height, horizon=self.drift_horizon, seed=self.seed)
        if self.txs_per_block is not None:
            cfg = replace(cfg, txs_per_block=self.txs_per_block)
        return cfg

    def config_at(self, height: int) -> Optional[WorkloadConfig]:
        return self._shape(height)

    def _post(self, height: int, txs: List[Transaction]) -> List[Transaction]:
        if (height % self.CYCLE) in self.MEV_HOURS and self.universe.amms:
            rng = self.generator.rng
            for _ in range(2):
                searcher = self.searchers[self._next_searcher % len(self.searchers)]
                self._next_searcher += 1
                txs.extend(build_mev_bundle(self.universe, rng, searcher))
        return txs


# --------------------------------------------------------------------- #
# registry                                                              #
# --------------------------------------------------------------------- #


#: ``(seed, txs_per_block, compact) -> stream``: how a scenario is built
ScenarioFactory = Callable[[int, Optional[int], bool], ScenarioStream]


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario: summary line plus a stream factory."""

    name: str
    summary: str
    factory: ScenarioFactory


def _counter_universe(compact: bool) -> Universe:
    return build_universe(
        UniverseConfig(
            n_eoas=24 if compact else 400,
            n_tokens=0,
            n_amms=0,
            n_nfts=0,
            n_airdrops=0,
            n_counter_tokens=4,
            n_partitioned_tokens=4,
            counter_shards=8,
        )
    )


def _full_universe(compact: bool) -> Universe:
    if compact:
        # ≥6 EOAs: the fuzzer's adversarial forgeries need that many
        return build_universe(
            UniverseConfig(n_eoas=40, n_tokens=4, n_amms=2, n_nfts=2, n_airdrops=2)
        )
    return build_universe(
        UniverseConfig(n_eoas=400, n_tokens=8, n_amms=4, n_nfts=3, n_airdrops=2)
    )


def _sized(cfg: WorkloadConfig, txs_per_block: Optional[int]) -> WorkloadConfig:
    if txs_per_block is None:
        return cfg
    return replace(cfg, txs_per_block=txs_per_block, tx_count_jitter=0.0)


def _counter_factory(partitioned: bool) -> ScenarioFactory:
    def factory(
        seed: int, txs_per_block: Optional[int], compact: bool
    ) -> ScenarioStream:
        cfg = _sized(replace(mainnet_scenario(seed), tx_count_jitter=0.0), txs_per_block)
        return CounterTokenStream(
            _counter_universe(compact), cfg, partitioned=partitioned
        )

    return factory


def _burst_factory(
    envelope_fn: Callable[..., Callable[[int], WorkloadConfig]]
) -> ScenarioFactory:
    def factory(
        seed: int, txs_per_block: Optional[int], compact: bool
    ) -> ScenarioStream:
        base = envelope_fn(seed)

        def envelope(height: int) -> WorkloadConfig:
            return _sized(base(height), txs_per_block)

        return BurstScenarioStream(_full_universe(compact), envelope, seed=seed)

    return factory


def _mev_factory(
    seed: int, txs_per_block: Optional[int], compact: bool
) -> ScenarioStream:
    cfg = _sized(mainnet_scenario(seed), txs_per_block)
    return MevBundleStream(
        _full_universe(compact), cfg, bundles_per_block=2 if compact else 4
    )


def _long_tail_factory(
    seed: int, txs_per_block: Optional[int], compact: bool
) -> ScenarioStream:
    universe = build_universe(
        UniverseConfig(
            n_eoas=24 if compact else 200,
            n_tokens=0,
            n_amms=0,
            n_nfts=0,
            n_airdrops=0,
        )
    )
    cfg = _sized(
        replace(
            payment_heavy_scenario(seed),
            w_payment=1.0,
            w_erc20=0.0,
            w_amm=0.0,
            w_nft=0.0,
            w_airdrop=0.0,
        ),
        txs_per_block,
    )
    return LongTailStream(universe, cfg)


def _day_factory(
    seed: int, txs_per_block: Optional[int], compact: bool
) -> ScenarioStream:
    return DayInTheLifeStream(
        _full_universe(compact), seed=seed, txs_per_block=txs_per_block
    )


SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "counter-shared",
            "counted ERC-20, one global counter slot (every transfer conflicts)",
            _counter_factory(partitioned=False),
        ),
        ScenarioSpec(
            "counter-partitioned",
            "counted ERC-20, per-shard counter slots (commutative increments)",
            _counter_factory(partitioned=True),
        ),
        ScenarioSpec(
            "airdrop-storm",
            "periodic claim stampede on the hottest airdrop distributor",
            _burst_factory(airdrop_storm_envelope),
        ),
        ScenarioSpec(
            "nft-mint-rush",
            "drop-day mint burst serialised by one collection's counter",
            _burst_factory(nft_mint_rush_envelope),
        ),
        ScenarioSpec(
            "mev-bundles",
            "searcher sandwiches on AMM pools: long dependency chains",
            _mev_factory,
        ),
        ScenarioSpec(
            "long-tail",
            "streaming payments into a lazily-sampled 1M-account universe",
            _long_tail_factory,
        ),
        ScenarioSpec(
            "day-in-the-life",
            "24-block diurnal cycle: era drift + storm + MEV window + mint rush",
            _day_factory,
        ),
    )
}


def scenario_names() -> List[str]:
    return list(SCENARIO_REGISTRY)


def get_scenario(
    name: str,
    *,
    seed: int = 42,
    txs_per_block: Optional[int] = None,
    compact: bool = False,
) -> ScenarioStream:
    """Instantiate a registered scenario stream.

    ``compact`` shrinks the universe for test/fuzz-sized runs; benches
    and the CLI default to the full shape.
    """
    try:
        spec = SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_REGISTRY)}"
        ) from None
    return spec.factory(seed, txs_per_block, compact)
