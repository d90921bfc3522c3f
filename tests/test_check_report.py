"""Footprint race detector: lying profiles become typed findings.

Production behaviour on an out-of-footprint access is a silent serial
fallback; with a :class:`~repro.check.report.CheckLog` attached the same
fallback happens, but every miss is recorded as a
:class:`~repro.check.report.FootprintViolation` naming the component, the
transactions and the escaped account.
"""

import pytest

from repro.check.fuzzer import forge_lying_profile_block
from repro.check.report import CheckLog, FootprintViolation
from repro.common.types import address_from_int
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.exec import SerialBackend, ThreadBackend


def _violation(component=0, address=None, block="deadbeef"):
    return FootprintViolation(
        block=block,
        component=component,
        tx_indices=(0, 2),
        address=address or address_from_int(0xAB),
        declared=3,
    )


class TestCheckLogUnit:
    def test_starts_clean(self):
        log = CheckLog()
        assert log.clean
        assert log.by_block() == {}
        assert "clean" in log.summary()

    def test_record_and_reset(self):
        log = CheckLog()
        log.record_footprint(_violation())
        assert not log.clean
        assert len(log.footprint_violations) == 1
        log.reset()
        assert log.clean

    def test_by_block_counts(self):
        log = CheckLog()
        log.record_footprint(_violation(block="aaaa"))
        log.record_footprint(_violation(block="aaaa", component=1))
        log.record_footprint(_violation(block="bbbb"))
        assert log.by_block() == {"aaaa": 2, "bbbb": 1}

    def test_describe_names_the_account(self):
        text = _violation().describe()
        assert "component 0" in text
        assert address_from_int(0xAB).hex()[:8] in text


class TestFootprintDetection:
    @pytest.fixture()
    def lying_block(self, small_universe):
        return forge_lying_profile_block(small_universe)

    def _validate(self, block, universe, backend, check_log):
        validator = ParallelValidator(
            config=ValidatorConfig(lanes=4, verify_profile=False),
            backend=backend,
            check_log=check_log,
        )
        return validator.validate_block(block, universe.genesis)

    @pytest.mark.parametrize(
        "factory", [SerialBackend, lambda: ThreadBackend(2)]
    )
    def test_lying_profile_recorded_and_still_accepted(
        self, small_universe, lying_block, factory
    ):
        hidden = small_universe.eoas[-1]
        log = CheckLog()
        with factory() as backend:
            result = self._validate(lying_block, small_universe, backend, log)
        # the guard discards the parallel attempt; the inline serial
        # reference loop still produces the correct (accepting) verdict
        assert result.accepted, result.reason
        # ...but the lie is no longer silent
        assert not log.clean
        assert any(v.address == hidden for v in log.footprint_violations)
        assert set(log.by_block()) == {lying_block.hash.hex()[:8]}

    def test_record_mode_does_not_change_the_verdict(
        self, small_universe, lying_block
    ):
        with ThreadBackend(2) as backend:
            silent = self._validate(lying_block, small_universe, backend, None)
        log = CheckLog()
        with ThreadBackend(2) as backend:
            recorded = self._validate(lying_block, small_universe, backend, log)
        assert silent.accepted == recorded.accepted
        assert (
            silent.post_state.state_root() == recorded.post_state.state_root()
        )
        assert not log.clean

    def test_violation_names_the_hidden_conflict(
        self, small_universe, lying_block
    ):
        hidden = small_universe.eoas[-1]
        log = CheckLog()
        with ThreadBackend(2) as backend:
            self._validate(lying_block, small_universe, backend, log)
        violations = [v for v in log.footprint_violations if v.address == hidden]
        assert violations
        for violation in violations:
            assert violation.tx_indices, "finding must name its transactions"
            assert violation.declared > 0
            assert str(violation.component) in violation.describe()

    def test_honest_blocks_record_nothing(
        self, small_universe, small_generator, genesis_chain
    ):
        from repro.network.node import ProposerNode

        sealed = ProposerNode("honest").build_block(
            genesis_chain.genesis.header,
            small_universe.genesis,
            small_generator.generate_block_txs(),
        )
        log = CheckLog()
        with ThreadBackend(2) as backend:
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=4), backend=backend, check_log=log
            )
            result = validator.validate_block(sealed.block, small_universe.genesis)
        assert result.accepted
        assert not result.used_serial_fallback
        assert log.clean
