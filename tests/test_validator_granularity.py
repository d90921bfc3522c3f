"""Conflict-granularity ablation tests (§4.3 design choice)."""

import pytest

from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.node import ProposerNode


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    return ProposerNode("alice").build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestGranularity:
    def test_key_level_has_no_fewer_components(self, sealed, small_universe):
        """Key-level footprints split account-level components, never merge
        them (keys refine accounts)."""
        account = ParallelValidator(
            config=ValidatorConfig(granularity="account")
        ).validate_block(sealed.block, small_universe.genesis)
        key = ParallelValidator(
            config=ValidatorConfig(granularity="key")
        ).validate_block(sealed.block, small_universe.genesis)
        assert account.accepted and key.accepted
        assert len(key.graph.components) >= len(account.graph.components)
        assert (
            key.graph.largest_component_ratio()
            <= account.graph.largest_component_ratio()
        )

    def test_key_level_speedup_at_least_account_level(self, sealed, small_universe):
        account = ParallelValidator(
            config=ValidatorConfig(granularity="account", lanes=16)
        ).validate_block(sealed.block, small_universe.genesis)
        key = ParallelValidator(
            config=ValidatorConfig(granularity="key", lanes=16)
        ).validate_block(sealed.block, small_universe.genesis)
        # finer conflicts expose at least as much parallelism
        assert key.speedup >= account.speedup * 0.99

    def test_correctness_independent_of_granularity(self, sealed, small_universe):
        account = ParallelValidator(
            config=ValidatorConfig(granularity="account")
        ).validate_block(sealed.block, small_universe.genesis)
        key = ParallelValidator(
            config=ValidatorConfig(granularity="key")
        ).validate_block(sealed.block, small_universe.genesis)
        assert (
            account.post_state.state_root() == key.post_state.state_root()
        )

    def test_unknown_granularity_rejected(self):
        """A local misconfiguration is refused at construction — it is not
        any block's fault, so no block is executed and then rejected for it."""
        with pytest.raises(ValueError, match="unknown conflict granularity 'molecule'"):
            ValidatorConfig(granularity="molecule")
