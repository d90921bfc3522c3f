"""Reward economics and uncle policy (§3.4): proposer/validator symmetry."""

import dataclasses

import pytest

from repro.chain.params import ChainParams, DEFAULT_CHAIN_PARAMS, ETHEREUM_POW_PARAMS, ETHER
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode, ValidatorNode


class TestChainParams:
    def test_default_is_rewardless(self):
        assert DEFAULT_CHAIN_PARAMS.block_reward == 0
        assert DEFAULT_CHAIN_PARAMS.nephew_reward(2) == 0
        assert DEFAULT_CHAIN_PARAMS.uncle_reward(10, 9) == 0

    def test_pow_uncle_reward_schedule(self):
        p = ETHEREUM_POW_PARAMS
        r = p.block_reward
        assert p.uncle_reward(10, 9) == r * 7 // 8  # depth 1
        assert p.uncle_reward(10, 8) == r * 6 // 8
        assert p.uncle_reward(10, 3) == r * 1 // 8  # depth 7 (max)
        assert p.uncle_reward(10, 2) == 0  # too deep
        assert p.uncle_reward(10, 10) == 0  # same height invalid

    def test_nephew_reward(self):
        p = ETHEREUM_POW_PARAMS
        assert p.nephew_reward(1) == p.block_reward // 32
        assert p.nephew_reward(2) == 2 * (p.block_reward // 32)
        assert p.nephew_reward(0) == 0

    def test_validate_uncle_window(self):
        p = ChainParams(max_uncle_depth=6)
        assert p.validate_uncle(100, 99)
        assert p.validate_uncle(100, 93)
        assert not p.validate_uncle(100, 92)
        assert not p.validate_uncle(100, 100)
        assert not p.validate_uncle(100, 101)


class TestRewardedChain:
    def propose_and_validate(self, universe, generator, params, uncles=()):
        proposer = ProposerNode("miner", params=params)
        validator = ParallelValidator(config=ValidatorConfig(params=params))
        txs = generator.generate_block_txs()
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(universe.genesis).genesis
        sealed = proposer.build_block(
            genesis.header, universe.genesis, txs, uncles=uncles
        )
        res = validator.validate_block(sealed.block, universe.genesis)
        return proposer, sealed, res

    def test_block_reward_credited_and_verified(self, small_universe, small_generator):
        proposer, sealed, res = self.propose_and_validate(
            small_universe, small_generator, ETHEREUM_POW_PARAMS
        )
        assert res.accepted, res.reason
        balance = res.post_state.account(proposer.coinbase).balance
        assert balance == sealed.proposal.total_fees + 2 * ETHER

    def test_validator_node_takes_chain_params(self, small_universe, small_generator):
        """Every validator role takes the same ``ValidatorConfig``: a node
        given the PoW params accepts a PoW-sealed block and credits the
        reward on its chain."""
        proposer = ProposerNode("miner", params=ETHEREUM_POW_PARAMS)
        node = ValidatorNode(
            "val",
            small_universe.genesis,
            config=ValidatorConfig(params=ETHEREUM_POW_PARAMS),
        )
        sealed = proposer.build_block(
            node.chain.genesis.header,
            small_universe.genesis,
            small_generator.generate_block_txs(),
        )
        outcome = node.receive_blocks([sealed.block])
        assert [b.hash for b in outcome.accepted] == [sealed.block.hash]
        assert node.chain.head.hash == sealed.block.hash
        balance = node.chain.head_state.account(proposer.coinbase).balance
        assert balance == sealed.proposal.total_fees + 2 * ETHER

    def test_params_mismatch_rejected(self, small_universe, small_generator):
        """A validator with different consensus params rejects the block —
        the root includes the reward the validator does not expect."""
        proposer = ProposerNode("miner", params=ETHEREUM_POW_PARAMS)
        validator = ParallelValidator(
            config=ValidatorConfig(params=DEFAULT_CHAIN_PARAMS)
        )
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(small_universe.genesis).genesis
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(genesis.header, small_universe.genesis, txs)
        res = validator.validate_block(sealed.block, small_universe.genesis)
        assert not res.accepted
        assert "state root" in res.reason

    def test_uncle_rewards_flow(self, small_universe, small_generator):
        """Build a fork, then include the losing sibling as an uncle in the
        next block; both coinbases get paid and the validator agrees."""
        params = ETHEREUM_POW_PARAMS
        alice = ProposerNode("alice", params=params)
        bob = ProposerNode("bob", params=params)
        validator = ValidatorNode(
            "val",
            small_universe.genesis,
        )
        checker = ParallelValidator(config=ValidatorConfig(params=params))

        genesis_header = validator.chain.genesis.header
        txs = small_generator.generate_block_txs()
        sealed_a = alice.build_block(genesis_header, small_universe.genesis, txs)
        # bob proposes a sibling at the same height with an empty tx view
        sealed_b = bob.build_block(genesis_header, small_universe.genesis, [])

        res_a = checker.validate_block(sealed_a.block, small_universe.genesis)
        assert res_a.accepted, res_a.reason

        # alice extends her chain, embedding bob's block as an uncle
        txs2 = small_generator.generate_block_txs()
        sealed_2 = alice.build_block(
            sealed_a.block.header,
            res_a.post_state,
            txs2,
            uncles=(sealed_b.block.header,),
        )
        res_2 = checker.validate_block(sealed_2.block, res_a.post_state)
        assert res_2.accepted, res_2.reason

        # uncle coinbase earned 7/8 of the block reward (depth 1)
        uncle_balance = res_2.post_state.account(bob.coinbase).balance
        assert uncle_balance == params.block_reward * 7 // 8
        # alice earned: 2 block rewards + fees + one nephew reward
        alice_balance = res_2.post_state.account(alice.coinbase).balance
        expected = (
            2 * params.block_reward
            + sealed_a.proposal.total_fees
            + sealed_2.proposal.total_fees
            + params.nephew_reward(1)
        )
        assert alice_balance == expected

    def test_too_many_uncles_rejected_at_seal(self, small_universe, small_generator):
        params = dataclasses.replace(ETHEREUM_POW_PARAMS, max_uncles=1)
        alice = ProposerNode("alice", params=params)
        bob = ProposerNode("bob", params=params)
        carol = ProposerNode("carol", params=params)
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(small_universe.genesis).genesis
        u1 = bob.build_block(genesis.header, small_universe.genesis, [])
        u2 = carol.build_block(genesis.header, small_universe.genesis, [])
        base = alice.build_block(genesis.header, small_universe.genesis, [])
        with pytest.raises(ValueError, match="too many uncles"):
            alice.build_block(
                base.block.header,
                base.post_state,
                [],
                uncles=(u1.block.header, u2.block.header),
            )

    def test_stale_uncle_rejected_by_validator(self, small_universe, small_generator):
        """Tamper a sealed block to claim an out-of-window uncle."""
        params = ETHEREUM_POW_PARAMS
        alice = ProposerNode("alice", params=params)
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(small_universe.genesis).genesis
        txs = small_generator.generate_block_txs()
        sealed = alice.build_block(genesis.header, small_universe.genesis, txs)
        fake_uncle = dataclasses.replace(
            sealed.block.header, number=sealed.block.number, proposer_id="fake"
        )
        tampered = dataclasses.replace(sealed.block, uncles=(fake_uncle,))
        validator = ParallelValidator(config=ValidatorConfig(params=params))
        res = validator.validate_block(tampered, small_universe.genesis)
        assert not res.accepted
        assert "uncle" in res.reason

    def test_gas_over_limit_rejected(self, small_universe, small_generator):
        proposer = ProposerNode("alice")
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(small_universe.genesis).genesis
        txs = small_generator.generate_block_txs()
        sealed = proposer.build_block(genesis.header, small_universe.genesis, txs)
        bloated = dataclasses.replace(
            sealed.block,
            header=dataclasses.replace(
                sealed.block.header,
                gas_limit=sealed.block.header.gas_used - 1,
            ),
        )
        res = ParallelValidator().validate_block(bloated, small_universe.genesis)
        assert not res.accepted
        assert "exceeds limit" in res.reason
