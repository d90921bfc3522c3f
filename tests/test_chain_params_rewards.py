"""Reward economics: proposer/validator symmetry."""

import dataclasses

from repro.chain.params import ChainParams, DEFAULT_CHAIN_PARAMS
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode, ValidatorNode


REWARDED = ChainParams(block_reward=2 * 10**18)


class TestChainParams:
    def test_default_is_rewardless(self):
        assert DEFAULT_CHAIN_PARAMS.block_reward == 0


class TestRewardedChain:
    def propose_and_validate(self, universe, generator, params):
        proposer = ProposerNode("miner", params=params)
        validator = ParallelValidator(config=ValidatorConfig(params=params))
        txs = generator.generate_block_txs()
        from repro.chain.blockchain import Blockchain

        genesis = Blockchain(universe.genesis).genesis
        sealed = proposer.build_block(genesis.header, universe.genesis, txs)
        res = validator.validate_block(sealed.block, universe.genesis)
        return proposer, sealed, res

    def test_block_reward_credited_and_verified(self, small_universe, small_generator):
        proposer, sealed, res = self.propose_and_validate(
            small_universe, small_generator, REWARDED
        )
        assert res.accepted, res.reason
        balance = res.post_state.account(proposer.coinbase).balance
        assert balance == sealed.proposal.total_fees + REWARDED.block_reward

    def test_validator_node_takes_chain_params(self, small_universe, small_generator):
        """Every validator role takes the same ``ValidatorConfig``: a node
        given the rewarded params accepts a rewarded block and credits the
        reward on its chain."""
        proposer = ProposerNode("miner", params=REWARDED)
        node = ValidatorNode(
            "val",
            small_universe.genesis,
            config=ValidatorConfig(params=REWARDED),
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
        assert balance == sealed.proposal.total_fees + REWARDED.block_reward

    def test_params_mismatch_rejected(self, small_universe, small_generator):
        """A validator with different consensus params rejects the block —
        the root includes the reward the validator does not expect."""
        proposer = ProposerNode("miner", params=REWARDED)
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
