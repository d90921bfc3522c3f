"""Property-based fault-injection invariants.

Two properties the robustness layer must hold for *any* corruption and
any seed:

1. **Safety** — a tampered block is rejected and leaves no state behind:
   ``post_state`` is ``None`` and the parent snapshot's root is untouched.
2. **Determinism** — the same seed reproduces the identical fault
   schedule: the failure sequence and every ``RunStats`` fault counter
   are equal across runs.
"""

import pytest

pytestmark = pytest.mark.faults
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.errors import FailureReason
from repro.faults.injector import CORRUPTION_KINDS, FaultConfig, FaultInjector
from tests.fault_scenarios import build_env

#: every corruption kind is applicable to the scenario block (24 real txs
#: guarantee entries with reads and writes)
KINDS = st.sampled_from(CORRUPTION_KINDS)
SEEDS = st.integers(0, 10**6)


@pytest.fixture(scope="module")
def env():
    return build_env(0, txs_per_block=16)


@pytest.fixture(scope="module")
def parent_root(env):
    return env.parent_state.state_root()


class TestCorruptionSafety:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kind=KINDS, seed=SEEDS)
    def test_any_corruption_rejected_without_state(
        self, env, parent_root, kind, seed
    ):
        injector = FaultInjector(FaultConfig(seed=seed))
        bad = injector.corrupt_block(env.honest.block, kind)
        result = env.fresh_validator().validate_block(bad, env.parent_state)
        assert not result.accepted, f"{kind} (seed {seed}) was accepted"
        assert result.failure is not None
        assert isinstance(result.failure.reason, FailureReason)
        # rejection leaves nothing behind: no post state, parent untouched
        assert result.post_state is None
        assert env.parent_state.state_root() == parent_root

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kind=KINDS, seed=SEEDS)
    def test_corruption_is_pure(self, env, kind, seed):
        """corrupt_block must never mutate the original block."""
        honest = env.honest.block
        snapshot = (honest.header, honest.transactions, honest.profile)
        FaultInjector(FaultConfig(seed=seed)).corrupt_block(honest, kind)
        assert (honest.header, honest.transactions, honest.profile) == snapshot


class TestDeterminism:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kind=KINDS, seed=SEEDS)
    def test_same_seed_identical_corruption(self, env, kind, seed):
        a = FaultInjector(FaultConfig(seed=seed)).corrupt_block(env.honest.block, kind)
        b = FaultInjector(FaultConfig(seed=seed)).corrupt_block(env.honest.block, kind)
        assert a.header == b.header
        assert a.transactions == b.transactions
        assert a.profile == b.profile

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=SEEDS, rate=st.floats(0.05, 0.6))
    def test_same_seed_identical_fault_schedule(self, env, seed, rate):
        """Worker-fault runs replay bit-identically: same failure sequence,
        same RunStats fault counters."""

        def run():
            injector = FaultInjector(
                FaultConfig(seed=seed, worker_fault_rate=rate, stall_rate=rate)
            )
            validator = env.fresh_validator(injector=injector)
            return validator.validate_block(env.honest.block, env.parent_state)

        first, second = run(), run()
        assert first.accepted == second.accepted
        assert first.failure == second.failure
        assert first.worker_faults == second.worker_faults
        assert first.exec_attempts == second.exec_attempts
        assert first.used_serial_fallback == second.used_serial_fallback
        if first.stats is not None:
            assert second.stats is not None
            assert first.stats.worker_faults == second.stats.worker_faults
            assert first.stats.exec_retries == second.stats.exec_retries
            assert first.stats.serial_fallbacks == second.stats.serial_fallbacks
            assert first.stats.failures == second.stats.failures
        assert first.tx_costs == second.tx_costs  # stalls charged identically

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_execution_fault_schedule_is_call_order_free(self, seed):
        """The keyed RNG decides per (block, attempt, tx) — query order and
        repetition never change the answer."""
        injector = FaultInjector(
            FaultConfig(seed=seed, worker_fault_rate=0.3, stall_rate=0.3)
        )
        block_hash = bytes(range(32))
        forward = [injector.execution_fault(block_hash, 0, i) for i in range(20)]
        backward = [
            injector.execution_fault(block_hash, 0, i) for i in reversed(range(20))
        ]
        assert forward == list(reversed(backward))
