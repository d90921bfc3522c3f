"""Workload layer tests: contracts behave, generator invariants hold."""

import pytest

from repro.common.types import Address
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.statedb import StateDB
from repro.txpool.transaction import Transaction
from repro.workload.contracts import (
    AIRDROP_REMAINING_SLOT,
    AMM_RESERVE0_SLOT,
    AMM_RESERVE1_SLOT,
    NFT_NEXT_ID_SLOT,
    airdrop_claim_calldata,
    airdrop_claimed_slot,
    amm_swap_calldata,
    erc20_balance_slot,
    erc20_transfer_calldata,
    nft_mint_calldata,
    nft_owner_slot,
)
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.scenarios import (
    era_profile,
    hotspot_scenario,
    mainnet_scenario,
    payment_heavy_scenario,
)

CTX = ExecutionContext(block_number=1, timestamp=1000)


def apply(universe, db, sender, to, data, nonce=None):
    tx = Transaction(
        sender=sender,
        to=to,
        value=0,
        data=data,
        gas_limit=900_000,
        gas_price=0,
        nonce=nonce if nonce is not None else db.get_nonce(sender),
    )
    return EVM().apply_transaction(db, tx, CTX)


class TestERC20:
    def test_transfer_moves_balance(self, small_universe):
        uni = small_universe
        token = uni.tokens[0]
        db = StateDB(uni.genesis)
        sender = next(
            e for e in uni.eoas if db.get_storage(token, erc20_balance_slot(e)) > 0
        )
        receiver = Address.from_int(0x9999)
        before = db.get_storage(token, erc20_balance_slot(sender))
        result = apply(uni, db, sender, token, erc20_transfer_calldata(receiver, 500))
        assert result.success, result.error
        assert db.get_storage(token, erc20_balance_slot(sender)) == before - 500
        assert db.get_storage(token, erc20_balance_slot(receiver)) == 500
        assert len(result.logs) == 1

    def test_transfer_insufficient_reverts(self, small_universe):
        uni = small_universe
        token = uni.tokens[0]
        db = StateDB(uni.genesis)
        pauper = Address.from_int(0x8888)
        db.set_balance(pauper, 10**18)  # has ETH, no tokens
        result = apply(uni, db, pauper, token, erc20_transfer_calldata(uni.eoas[0], 1))
        assert not result.success
        assert result.error == "revert"
        assert db.get_storage(token, erc20_balance_slot(uni.eoas[0])) == \
            uni.genesis.account(token).storage.get(erc20_balance_slot(uni.eoas[0]), 0)

    def test_unknown_selector_reverts(self, small_universe):
        uni = small_universe
        db = StateDB(uni.genesis)
        result = apply(uni, db, uni.eoas[0], uni.tokens[0], b"\x00\x00\x00\x99")
        assert not result.success

    def test_storage_trace_counted(self, small_universe):
        uni = small_universe
        token = uni.tokens[0]
        db = StateDB(uni.genesis)
        sender = next(
            e for e in uni.eoas if db.get_storage(token, erc20_balance_slot(e)) > 0
        )
        result = apply(
            uni, db, sender, token, erc20_transfer_calldata(uni.eoas[1], 10)
        )
        assert result.trace.counts["storage_read"] >= 2
        assert result.trace.counts["storage_write"] == 2
        assert result.trace.counts["sha3"] == 2


class TestAMM:
    def test_swap_updates_reserves_and_mints(self, small_universe):
        uni = small_universe
        pool, _tin, tout = uni.amms[0]
        db = StateDB(uni.genesis)
        sender = uni.eoas[0]
        r0 = db.get_storage(pool, AMM_RESERVE0_SLOT)
        r1 = db.get_storage(pool, AMM_RESERVE1_SLOT)
        amount_in = 10**6
        result = apply(uni, db, sender, pool, amm_swap_calldata(amount_in))
        assert result.success, result.error
        expected_out = (amount_in * r1) // (r0 + amount_in)
        assert db.get_storage(pool, AMM_RESERVE0_SLOT) == r0 + amount_in
        assert db.get_storage(pool, AMM_RESERVE1_SLOT) == r1 - expected_out
        # swapped tokens minted to the caller on the output token
        assert db.get_storage(tout, erc20_balance_slot(sender)) >= expected_out

    def test_zero_input_reverts(self, small_universe):
        uni = small_universe
        pool, _, _ = uni.amms[0]
        db = StateDB(uni.genesis)
        result = apply(uni, db, uni.eoas[0], pool, amm_swap_calldata(0))
        assert not result.success

    def test_swap_traces_inter_contract_call(self, small_universe):
        uni = small_universe
        pool, _, _ = uni.amms[0]
        db = StateDB(uni.genesis)
        result = apply(uni, db, uni.eoas[0], pool, amm_swap_calldata(1000))
        assert result.trace.counts.get("call", 0) == 1


class TestNFT:
    def test_mint_assigns_sequential_ids(self, small_universe):
        uni = small_universe
        nft = uni.nfts[0]
        db = StateDB(uni.genesis)
        first_id = db.get_storage(nft, NFT_NEXT_ID_SLOT)
        r1 = apply(uni, db, uni.eoas[0], nft, nft_mint_calldata())
        r2 = apply(uni, db, uni.eoas[1], nft, nft_mint_calldata())
        assert r1.success and r2.success
        assert db.get_storage(nft, NFT_NEXT_ID_SLOT) == first_id + 2
        assert db.get_storage(nft, nft_owner_slot(first_id)) == uni.eoas[0].to_int()
        assert db.get_storage(nft, nft_owner_slot(first_id + 1)) == uni.eoas[1].to_int()


class TestAirdrop:
    def test_claim_once(self, small_universe):
        uni = small_universe
        drop = uni.airdrops[0]
        db = StateDB(uni.genesis)
        supply = db.get_storage(drop, AIRDROP_REMAINING_SLOT)
        result = apply(uni, db, uni.eoas[0], drop, airdrop_claim_calldata())
        assert result.success, result.error
        assert db.get_storage(drop, AIRDROP_REMAINING_SLOT) == supply - 1
        assert db.get_storage(drop, airdrop_claimed_slot(uni.eoas[0])) == 1

    def test_double_claim_reverts(self, small_universe):
        uni = small_universe
        drop = uni.airdrops[0]
        db = StateDB(uni.genesis)
        apply(uni, db, uni.eoas[0], drop, airdrop_claim_calldata())
        result = apply(uni, db, uni.eoas[0], drop, airdrop_claim_calldata())
        assert not result.success
        assert result.error == "revert"


class TestGenerator:
    def test_tx_count_respected(self, small_universe):
        gen = BlockWorkloadGenerator(
            small_universe, WorkloadConfig(txs_per_block=50, tx_count_jitter=0.0)
        )
        assert len(gen.generate_block_txs()) == 50

    def test_explicit_count_overrides(self, small_generator):
        assert len(small_generator.generate_block_txs(count=7)) == 7

    def test_nonces_in_order_per_sender(self, small_generator):
        txs = small_generator.generate_block_txs(count=200)
        seen = {}
        for tx in txs:
            expected = seen.get(tx.sender, 0)
            assert tx.nonce == expected
            seen[tx.sender] = expected + 1

    def test_all_generated_txs_execute(self, small_universe, small_generator):
        """Every generated tx is valid in generated order (may revert)."""
        txs = small_generator.generate_block_txs(count=120)
        db = StateDB(small_universe.genesis)
        evm = EVM()
        for tx in txs:
            evm.apply_transaction(db, tx, CTX)  # must not raise

    def test_deterministic_by_seed(self, small_universe):
        import dataclasses

        g1 = BlockWorkloadGenerator(
            dataclasses.replace(small_universe, nonces={}), WorkloadConfig(seed=3)
        )
        g2 = BlockWorkloadGenerator(
            dataclasses.replace(small_universe, nonces={}), WorkloadConfig(seed=3)
        )
        assert [t.hash for t in g1.generate_block_txs()] == [
            t.hash for t in g2.generate_block_txs()
        ]

    def test_mix_tags_present(self, small_generator):
        txs = small_generator.generate_block_txs(count=300)
        tags = {t.tag for t in txs}
        assert {"payment", "erc20", "amm", "nft", "airdrop"} <= tags

    def test_deploy_txs_generated_and_valid(self, small_universe):
        import dataclasses

        from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig

        uni = dataclasses.replace(small_universe, nonces={})
        gen = BlockWorkloadGenerator(
            uni, WorkloadConfig(deploy_fraction=0.3, seed=4)
        )
        txs = gen.generate_block_txs(count=60)
        deploys = [t for t in txs if t.tag == "deploy"]
        assert deploys
        assert all(t.to is None for t in deploys)
        # the deployments execute and leave real contract code behind
        db = StateDB(uni.genesis)
        evm = EVM()
        created = []
        for tx in txs:
            result = evm.apply_transaction(db, tx, CTX)
            if tx.tag == "deploy":
                assert result.success, result.error
                created.append(result.created)
        assert all(db.get_code(addr) for addr in created)
        # distinct sender/nonce pairs -> distinct addresses
        assert len(set(created)) == len(created)

    def test_deploy_blocks_round_trip_proposer_validator(self, small_universe):
        """CREATE transactions flow through OCC-WSI, the profile and the
        validator — code-write keys included."""
        import dataclasses

        from repro.core.validator import ParallelValidator
        from repro.network.node import ProposerNode
        from repro.chain.blockchain import Blockchain
        from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig

        uni = dataclasses.replace(small_universe, nonces={})
        gen = BlockWorkloadGenerator(uni, WorkloadConfig(deploy_fraction=0.2, seed=9))
        txs = gen.generate_block_txs(count=40)
        assert any(t.tag == "deploy" for t in txs)
        chain = Blockchain(uni.genesis)
        sealed = ProposerNode("alice").build_block(
            chain.genesis.header, uni.genesis, txs
        )
        assert len(sealed.block) == len(txs)
        res = ParallelValidator().validate_block(sealed.block, uni.genesis)
        assert res.accepted, res.reason

    def test_hotspot_intensity_increases_concentration(self, small_universe):
        import dataclasses

        def hot_share(intensity):
            uni = dataclasses.replace(small_universe, nonces={})
            gen = BlockWorkloadGenerator(
                uni, WorkloadConfig(hotspot_intensity=intensity, seed=2)
            )
            txs = gen.generate_block_txs(count=400)
            erc = [t for t in txs if t.tag == "erc20"]
            hot = [t for t in erc if t.to == uni.tokens[0]]
            return len(hot) / len(erc)

        assert hot_share(0.9) > hot_share(0.1)


class TestScenarios:
    def test_scenarios_are_valid_configs(self):
        for cfg in (
            mainnet_scenario(),
            payment_heavy_scenario(),
            hotspot_scenario(0.3),
        ):
            assert abs(sum(cfg.weights()) - 1.0) < 0.2

    def test_hotspot_scenario_bounds(self):
        with pytest.raises(ValueError):
            hotspot_scenario(1.5)

    def test_era_profile_interpolates(self):
        early = era_profile(0)
        late = era_profile(10_000_000)
        mid = era_profile(5_000_000)
        assert early.w_payment > mid.w_payment > late.w_payment
        assert early.hotspot_intensity < mid.hotspot_intensity < late.hotspot_intensity


@pytest.mark.scenarios
class TestGeneratorEdgeCases:
    """Degenerate shapes the scenario engine can reach: empty families,
    single-account universes, zeroed knobs, mid-stream config swaps."""

    def _bare_universe(self, n_eoas=4):
        from repro.workload.universe import UniverseConfig, build_universe

        return build_universe(
            UniverseConfig(
                n_eoas=n_eoas, n_tokens=0, n_amms=0, n_nfts=0, n_airdrops=0
            )
        )

    def test_weights_order_matches_kinds(self):
        cfg = WorkloadConfig(
            w_payment=1, w_erc20=2, w_amm=3, w_nft=4, w_airdrop=5
        )
        assert cfg.weights() == [1, 2, 3, 4, 5]

    def test_negative_weight_rejected(self, small_universe):
        with pytest.raises(ValueError, match="non-negative"):
            BlockWorkloadGenerator(small_universe, WorkloadConfig(w_amm=-0.1))

    def test_universe_without_eoas_rejected(self):
        import dataclasses

        from repro.workload.universe import UniverseConfig, build_universe

        with pytest.raises(ValueError):
            build_universe(UniverseConfig(n_eoas=0))
        # a hand-mutilated universe is caught by the generator itself
        crippled = dataclasses.replace(self._bare_universe(), eoas=[])
        with pytest.raises(ValueError, match="no EOAs"):
            BlockWorkloadGenerator(crippled)

    def test_amm_without_tokens_rejected(self):
        from repro.workload.universe import UniverseConfig, build_universe

        with pytest.raises(ValueError):
            build_universe(UniverseConfig(n_eoas=4, n_tokens=0, n_amms=1))

    def test_empty_effective_mix_rejected(self):
        # payments zeroed + every contract family undeployed = nothing
        # left to sample; this used to IndexError deep inside sampling
        with pytest.raises(ValueError, match="mix is empty"):
            BlockWorkloadGenerator(
                self._bare_universe(), WorkloadConfig(w_payment=0.0)
            )

    def test_deploy_only_mix_is_legal(self):
        gen = BlockWorkloadGenerator(
            self._bare_universe(),
            WorkloadConfig(w_payment=0.0, deploy_fraction=1.0),
        )
        txs = gen.generate_block_txs(count=10)
        assert [t.tag for t in txs] == ["deploy"] * 10

    def test_missing_families_are_zeroed_not_fatal(self):
        # default config weights every kind, but only payments exist
        gen = BlockWorkloadGenerator(self._bare_universe())
        txs = gen.generate_block_txs(count=30)
        assert {t.tag for t in txs} == {"payment"}

    def test_single_account_universe(self):
        uni = self._bare_universe(n_eoas=1)
        gen = BlockWorkloadGenerator(uni, WorkloadConfig(tx_count_jitter=0.0))
        txs = gen.generate_block_txs(count=12)
        only = uni.eoas[0]
        assert all(t.sender == only and t.to == only for t in txs)
        assert [t.nonce for t in txs] == list(range(12))

    def test_pick_hot_or_uniform_empty_family_raises(self, small_generator):
        with pytest.raises(ValueError, match="no deployed instances"):
            small_generator._pick_hot_or_uniform([])

    def test_pick_hot_or_uniform_single_instance(self, small_universe):
        gen = BlockWorkloadGenerator(
            small_universe, WorkloadConfig(hotspot_intensity=0.0)
        )
        assert gen._pick_hot_or_uniform(["only"]) == "only"

    def test_zero_hotspot_intensity_skips_the_hotspot(self, small_universe):
        gen = BlockWorkloadGenerator(
            small_universe,
            WorkloadConfig(hotspot_intensity=0.0, w_erc20=1.0, w_payment=0.0,
                           w_amm=0.0, w_nft=0.0, w_airdrop=0.0),
        )
        txs = gen.generate_block_txs(count=200)
        targets = {t.to for t in txs}
        assert small_universe.tokens[0] not in targets
        assert len(targets) == len(small_universe.tokens) - 1

    def test_config_swap_rebinds_mix_without_reseeding(self, small_generator):
        small_generator.generate_block_txs(count=20)
        rng_state = small_generator.rng.getstate()
        small_generator.config = WorkloadConfig(
            w_payment=1.0, w_erc20=0.0, w_amm=0.0, w_nft=0.0, w_airdrop=0.0,
            receiver_skew=2.5,
        )
        assert small_generator.rng.getstate() == rng_state
        txs = small_generator.generate_block_txs(count=20)
        assert {t.tag for t in txs} == {"payment"}

    def test_receiver_draws_equal_the_weights_form_across_a_config_swap(
        self, small_generator
    ):
        """The cumulative weights are accumulated once per config, not per
        draw; ``random.choices`` consumes the same ``random()`` and bisects
        the same floats either way, so the stream must not move by a draw."""
        import random

        eoas = small_generator.universe.eoas
        shadow = random.Random()
        shadow.setstate(small_generator.rng.getstate())
        for skew in (small_generator.config.receiver_skew, 2.5, 0.0):
            small_generator.config = WorkloadConfig(receiver_skew=skew)
            weights = [1.0 / (rank + 1) ** skew for rank in range(len(eoas))]
            drawn = [small_generator._pick_receiver() for _ in range(700)]
            assert drawn == [shadow.choices(eoas, weights)[0] for _ in range(700)]
            assert len(set(drawn)) > 1
        assert small_generator.rng.getstate() == shadow.getstate()

    def test_config_swap_rejects_bad_mix_and_keeps_old(self, small_generator):
        before = small_generator.config
        with pytest.raises(ValueError):
            small_generator.config = WorkloadConfig(w_payment=-1.0)
        assert small_generator.config is before
        assert small_generator.generate_block_txs(count=5)
