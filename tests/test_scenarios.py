"""Scenario stream engine: registry, per-shape behaviour, conflict taming.

The scenario-specific claims pinned here:

* ``counter-shared`` / ``counter-partitioned`` carry *identical* traffic
  (same senders, nonces, amounts, calldata) and differ only in which
  token family the transfers hit — so the conflict-graph edge reduction
  measured between them is purely the commutativity win (satellite of
  Garamvölgyi et al.'s semantic conflict-reduction result).
* the burst envelopes actually modulate the mix per height (storm blocks
  are claim/mint-dominated, calm blocks are not);
* MEV bundles are well-formed sandwiches (front/victim/back on one pool,
  searcher nonce chains intact);
* the streaming long-tail generator spans a 1M-account receiver space
  without materialising it — memory stays bounded by the sender set;
* the diurnal cycle visits all of its phases.
"""

import tracemalloc

import pytest

from repro.chain.blockchain import Blockchain
from repro.check.oracle import verify_commit_order
from repro.common.types import address_to_int
from repro.core.occ_wsi import ProposerConfig
from repro.network.node import ProposerNode
from repro.workload.scenarios import (
    LONG_TAIL_ACCOUNT_BASE,
    SCENARIO_REGISTRY,
    CounterTokenStream,
    DayInTheLifeStream,
    LongTailStream,
    MevBundleStream,
    StreamingLongTailGenerator,
    build_mev_bundle,
    get_scenario,
    scenario_names,
    tx_fingerprint,
)
from repro.workload.universe import UniverseConfig, build_universe

pytestmark = pytest.mark.scenarios


class TestRegistry:
    def test_at_least_five_scenarios(self):
        assert len(scenario_names()) >= 5

    def test_specs_have_summaries(self):
        for name, spec in SCENARIO_REGISTRY.items():
            assert spec.name == name
            assert spec.summary

    def test_every_scenario_streams(self):
        for name in scenario_names():
            stream = get_scenario(name, seed=3, txs_per_block=8, compact=True)
            txs = stream.generate_block_txs()
            assert len(txs) >= 8, name
            assert stream.height == 1, name

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="counter-shared"):
            get_scenario("no-such-scenario")


class TestCounterStreams:
    """The matched-pair property and the commutativity regression."""

    def streams(self, seed=42, txs=60):
        return (
            get_scenario("counter-shared", seed=seed, txs_per_block=txs, compact=True),
            get_scenario(
                "counter-partitioned", seed=seed, txs_per_block=txs, compact=True
            ),
        )

    def test_variants_carry_identical_traffic(self):
        shared, partitioned = self.streams()
        a = shared.generate_block_txs()
        b = partitioned.generate_block_txs()
        assert [t.sender for t in a] == [t.sender for t in b]
        assert [t.nonce for t in a] == [t.nonce for t in b]
        assert [t.value for t in a] == [t.value for t in b]
        assert [t.gas_price for t in a] == [t.gas_price for t in b]
        assert [t.data for t in a] == [t.data for t in b]
        assert [t.tag for t in a] == [t.tag for t in b]
        # the one allowed difference: which token family the calls target
        diverging = [
            (x.to, y.to) for x, y in zip(a, b) if x.tag == "erc20-counter"
        ]
        assert diverging
        assert all(x != y for x, y in diverging)
        # payments are untouched by the variant switch
        assert all(
            x.to == y.to for x, y in zip(a, b) if x.tag == "payment"
        )

    def test_partitioned_counters_shed_conflict_edges(self):
        """Satellite regression: same traffic, partitioned layout ⇒ a
        strictly smaller conflict graph and fewer OCC aborts."""
        shared, partitioned = self.streams()

        def conflict_shape(stream):
            node = ProposerNode(
                "commut",
                config=ProposerConfig(lanes=8, strict_checks=True),
            )
            chain = Blockchain(stream.universe.genesis)
            sealed = node.build_block(
                chain.genesis.header,
                stream.universe.genesis,
                stream.generate_block_txs(),
            )
            order = verify_commit_order(sealed.proposal)
            assert order.ok, order.summary()
            return (
                sum(order.edge_counts().values()),
                sealed.proposal.stats.aborts,
            )

        shared_edges, shared_aborts = conflict_shape(shared)
        part_edges, part_aborts = conflict_shape(partitioned)
        assert part_edges < shared_edges, (part_edges, shared_edges)
        assert part_aborts <= shared_aborts, (part_aborts, shared_aborts)

    def test_requires_counter_token_family(self):
        universe = build_universe(
            UniverseConfig(n_eoas=6, n_tokens=1, n_amms=0, n_nfts=0, n_airdrops=0)
        )
        with pytest.raises(ValueError, match="counter-token"):
            CounterTokenStream(universe, partitioned=True)


class TestBurstStreams:
    def tag_fraction(self, txs, tag):
        return sum(1 for t in txs if t.tag == tag) / len(txs)

    @pytest.mark.parametrize(
        "name,tag", [("airdrop-storm", "airdrop"), ("nft-mint-rush", "nft")]
    )
    def test_storm_and_calm_phases(self, name, tag):
        stream = get_scenario(name, seed=11, txs_per_block=48, compact=True)
        blocks = stream.generate_blocks(5)
        # period 8, burst 3: heights 0-2 storm, heights 3-4 calm
        for storm in blocks[:3]:
            assert self.tag_fraction(storm, tag) > 0.5
        for calm in blocks[3:]:
            assert self.tag_fraction(calm, tag) < 0.3

    def test_storm_returns_on_next_period(self):
        stream = get_scenario("airdrop-storm", seed=11, txs_per_block=48, compact=True)
        blocks = stream.generate_blocks(9)
        assert self.tag_fraction(blocks[8], "airdrop") > 0.5  # height 8 ≡ 0


class TestMevBundles:
    def test_bundles_are_sandwiches(self):
        stream = get_scenario("mev-bundles", seed=5, txs_per_block=20, compact=True)
        assert isinstance(stream, MevBundleStream)
        txs = stream.generate_block_txs()
        # organic traffic first, then bundles_per_block=2 appended bundles
        assert len(txs) == 20 + 2 * 3
        bundles = [txs[20:23], txs[23:26]]
        for front, victim, back in bundles:
            assert (front.tag, victim.tag, back.tag) == (
                "mev-front",
                "mev-victim",
                "mev-back",
            )
            # one pool chains the sandwich; the searcher brackets the victim
            assert front.to == victim.to == back.to
            assert front.sender == back.sender
            assert back.nonce == front.nonce + 1
            assert front.gas_price >= 150 and back.gas_price >= 150

    def test_searchers_rotate_and_chain_nonces(self):
        stream = get_scenario("mev-bundles", seed=5, txs_per_block=10, compact=True)
        seen = {}
        for txs in stream.generate_blocks(4):
            for t in txs:
                if t.tag in ("mev-front", "mev-back"):
                    seen.setdefault(t.sender, []).append(t.nonce)
        assert len(seen) >= 2  # round-robin actually rotates
        for nonces in seen.values():
            assert nonces == sorted(nonces)

    def test_bundle_needs_an_amm(self):
        universe = build_universe(
            UniverseConfig(n_eoas=6, n_tokens=1, n_amms=0, n_nfts=0, n_airdrops=0)
        )
        import random

        with pytest.raises(ValueError, match="AMM"):
            build_mev_bundle(universe, random.Random(0), universe.eoas[0])


class TestLongTail:
    def test_receivers_come_from_the_synthetic_tail(self):
        stream = get_scenario("long-tail", seed=9, txs_per_block=50, compact=True)
        assert isinstance(stream, LongTailStream)
        txs = stream.generate_block_txs()
        assert all(t.tag == "payment" for t in txs)
        ranks = [address_to_int(t.to) - LONG_TAIL_ACCOUNT_BASE for t in txs]
        assert all(0 <= r < 1_000_000 for r in ranks)
        # Zipf head *and* tail are both visited
        assert min(ranks) < 100
        assert max(ranks) > 10_000

    def test_universe_size_must_be_positive(self):
        universe = build_universe(
            UniverseConfig(n_eoas=4, n_tokens=0, n_amms=0, n_nfts=0, n_airdrops=0)
        )
        with pytest.raises(ValueError, match="universe_size"):
            StreamingLongTailGenerator(universe, universe_size=0)

    def test_million_account_stream_is_bounded_memory(self):
        """The acceptance bar: a 1M-account universe never materialises;
        streaming thousands of payments stays within a few MB and the
        only per-account state is the (small) sender nonce map."""
        universe = build_universe(
            UniverseConfig(n_eoas=24, n_tokens=0, n_amms=0, n_nfts=0, n_airdrops=0)
        )
        stream = LongTailStream(universe, universe_size=1_000_000)
        tracemalloc.start()
        try:
            for _ in range(5):
                assert len(stream.generate_block_txs()) > 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024, f"peak {peak} bytes"
        assert len(universe.nonces) <= len(universe.eoas)


class TestDayInTheLife:
    def test_cycle_visits_every_phase(self):
        stream = get_scenario("day-in-the-life", seed=13, txs_per_block=30, compact=True)
        assert isinstance(stream, DayInTheLifeStream)
        blocks = stream.generate_blocks(DayInTheLifeStream.CYCLE)

        def fraction(height, tag):
            txs = blocks[height]
            return sum(1 for t in txs if t.tag == tag) / len(txs)

        for hour in DayInTheLifeStream.STORM_HOURS:
            assert fraction(hour, "airdrop") > 0.5, hour
        for hour in DayInTheLifeStream.MINT_HOURS:
            assert fraction(hour, "nft") > 0.5, hour
        for hour in DayInTheLifeStream.MEV_HOURS:
            tags = {t.tag for t in blocks[hour]}
            assert {"mev-front", "mev-victim", "mev-back"} <= tags, hour
        # organic hours: no bundles, no storm dominance
        assert fraction(0, "airdrop") < 0.3
        assert not any(t.tag.startswith("mev-") for t in blocks[0])

    def test_era_drift_advances_across_days(self):
        stream = get_scenario("day-in-the-life", seed=13, compact=True)
        early = stream.config_at(0)
        late = stream.config_at(9 * DayInTheLifeStream.CYCLE)
        assert late.w_payment < early.w_payment
        assert late.hotspot_intensity > early.hotspot_intensity


class TestDeterminism:
    """Cheap spot-check; the hypothesis suite sweeps seeds properly."""

    def test_same_seed_same_stream(self):
        for name in scenario_names():
            runs = []
            for _ in range(2):
                stream = get_scenario(name, seed=21, txs_per_block=12, compact=True)
                runs.append(
                    [tx_fingerprint(t) for b in stream.generate_blocks(3) for t in b]
                )
            assert runs[0] == runs[1], name

    def test_different_seeds_diverge(self):
        def fingerprints(seed):
            stream = get_scenario(
                "mev-bundles", seed=seed, txs_per_block=12, compact=True
            )
            return [tx_fingerprint(t) for t in stream.generate_block_txs()]

        assert fingerprints(1) != fingerprints(2)
