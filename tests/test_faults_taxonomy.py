"""The typed failure taxonomy, exercised end to end.

Every :class:`FailureReason` variant must be reachable through the public
validator surface (``validate_block`` / ``process_blocks`` /
``receive_blocks``) — the scenario registry in ``tests/fault_scenarios.py``
is the executable proof, and these tests pin it.
"""

import pytest

pytestmark = pytest.mark.faults

from repro.faults.errors import BYZANTINE_REASONS, FailureReason, ValidationFailure
from tests.fault_scenarios import (
    SCENARIO_FOR_REASON,
    SCENARIOS,
    build_env,
    run_scenario,
)


class TestRegistryCoverage:
    def test_every_reason_has_a_scenario(self):
        missing = [r for r in FailureReason if r not in SCENARIO_FOR_REASON]
        assert not missing, f"unreachable failure reasons: {missing}"

    def test_registry_names_are_unique_and_self_describing(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description


@pytest.mark.parametrize("reason", list(FailureReason), ids=lambda r: r.value)
def test_reason_reachable_through_public_api(reason):
    """Each variant is produced by real validation, not hand-built errors."""
    scenario = SCENARIO_FOR_REASON[reason]
    outcome = run_scenario(scenario.name)
    assert outcome.triggered, (
        f"{scenario.name} did not produce {reason}: observed {outcome.observed}"
    )
    # a typed failure always rides on a rejection, never an acceptance
    for failure, accepted in zip(outcome.failures, outcome.accepted):
        if failure is not None and failure.reason == reason:
            assert not accepted


class TestByzantineRejections:
    """Profile/header lies must reject without committing any state."""

    @pytest.mark.parametrize(
        "name",
        [
            "malformed_block",
            "profile_read_mismatch",
            "profile_write_mismatch",
            "profile_gas_mismatch",
            "receipt_mismatch",
            "state_root_mismatch",
        ],
    )
    def test_byzantine_reason_classified(self, name):
        outcome = run_scenario(name)
        assert outcome.accepted == [False]
        assert outcome.failures[0] is not None
        assert outcome.failures[0].reason in BYZANTINE_REASONS


class TestGracefulDegradation:
    def test_serial_fallback_commits_identical_root(self):
        """The Block-STM guarantee: permanent worker crashes degrade to
        serial re-execution with the exact honest state root."""
        outcome = run_scenario("degrade_serial_fallback")
        assert outcome.accepted == [True]
        assert outcome.extra["serial_pass"] is True
        assert outcome.extra["worker_faults"] >= 1
        assert outcome.extra["state_root"] is not None
        assert outcome.extra["state_root"] == outcome.extra["honest_state_root"]

    def test_transient_fault_healed_by_parallel_retry(self):
        outcome = run_scenario("degrade_transient")
        assert outcome.accepted == [True]
        assert outcome.extra["serial_pass"] is False
        assert outcome.extra["worker_faults"] == 1
        assert outcome.extra["exec_attempts"] == 2

    def test_retry_backoff_charges_simulated_time(self):
        """A degraded run must cost more simulated time than the honest one."""
        from repro.faults.injector import FaultConfig, FaultInjector

        env = build_env(0)
        injector = FaultInjector(
            FaultConfig(seed=0, worker_fault_rate=1.0, worker_fault_attempts=10**6)
        )
        degraded = env.fresh_validator(injector=injector).validate_block(
            env.honest.block, env.parent_state
        )
        honest = env.fresh_validator().validate_block(
            env.honest.block, env.parent_state
        )
        assert degraded.accepted and honest.accepted
        assert degraded.phases.commit_end > honest.phases.commit_end
        assert degraded.stats.serial_fallbacks == 1
        assert honest.stats.serial_fallbacks == 0


class TestQuarantine:
    def test_strikes_then_refusal(self):
        outcome = run_scenario("proposer_quarantined")
        assert outcome.extra["quarantined"] == ["proposer-0"]
        assert all(r in BYZANTINE_REASONS for r in outcome.extra["strike_reasons"])
        assert outcome.failures[0].reason == FailureReason.PROPOSER_QUARANTINED

    def test_honest_proposer_never_quarantined(self):
        from repro.core.validator import ValidatorConfig
        from repro.network.node import ValidatorNode

        env = build_env(0)
        node = ValidatorNode(
            "validator-0",
            env.universe.genesis,
            config=ValidatorConfig(lanes=4),
            quarantine_threshold=1,
        )
        outcome = node.receive_blocks([env.honest.block])
        assert outcome.accepted and not node.quarantined_proposers


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["profile_write_mismatch", "degrade_serial_fallback"]
    )
    def test_same_seed_same_outcome(self, name):
        first = run_scenario(name, seed=3)
        second = run_scenario(name, seed=3)
        assert first.failures == second.failures
        assert first.accepted == second.accepted
        assert first.extra == second.extra

    def test_failure_is_hashable_value_object(self):
        reason = FailureReason.PROFILE_GAS_MISMATCH
        f = ValidationFailure(reason, tx_index=4, detail="x")
        assert f == ValidationFailure(reason, tx_index=4, detail="x")
        assert "profile_gas_mismatch" in str(f) and "@tx 4" in str(f)


class TestStatsCounters:
    def test_pipeline_aggregates_fault_counters(self):
        """RunStats carries typed failure counts through the pipeline."""
        from repro.core.pipeline import ValidatorPipeline
        from repro.core.validator import ValidatorConfig

        env = build_env(0)
        bad = env.injector.corrupt_block(env.honest.block, "state_root")
        pipeline = ValidatorPipeline(config=ValidatorConfig(lanes=4))
        result = pipeline.process_blocks(
            [env.honest.block, bad],
            parent_states={env.genesis_hash: env.parent_state},
        )
        # honest sibling commits; the liar is counted under its reason
        assert result.stats.failures == {"state_root_mismatch": 1}
        assert [t.accepted for t in result.timings] == [True, False]

    def test_pipeline_counts_serial_fallback_of_rejected_block(self):
        """A block whose fault ladder ran out re-executes serially whatever
        the verdict: the fallback is counted even when the block is then
        rejected, by the pipeline exactly as by the validator."""
        from repro.core.pipeline import ValidatorPipeline
        from repro.core.validator import ValidatorConfig
        from repro.faults.injector import FaultConfig, FaultInjector
        from repro.obs.metrics import MetricsRegistry

        env = build_env(0)
        bad = env.injector.corrupt_block(env.honest.block, "state_root")
        crashes = FaultConfig(seed=0, worker_fault_rate=1.0, worker_fault_attempts=100)
        metrics = MetricsRegistry()
        pipeline = ValidatorPipeline(
            config=ValidatorConfig(lanes=4),
            injector=FaultInjector(crashes),
            metrics=metrics,
        )
        result = pipeline.process_blocks(
            [bad], parent_states={env.genesis_hash: env.parent_state}
        )
        (validation,) = result.results
        assert not validation.accepted
        assert validation.used_serial_fallback is True
        assert result.stats.serial_fallbacks == 1
        assert metrics.counter_value("validator.serial_fallbacks") == 1
