"""Schedule fuzzer: every reachable interleaving is conformant — and a
deliberately broken guard is caught and shrunk to a minimal repro.

The probe-driven drivers must be byte-identical to production under the
identity schedule, deterministic per seed, replayable from recorded
decisions, and clean across a seeded sweep.  Breaking the footprint guard
(the test-only mutation the issue calls for) must surface as a verdict
divergence against the serial reference within a handful of schedules.
"""

import json

import pytest

from repro.check.fuzzer import (
    ConformanceScenario,
    FuzzSchedule,
    fuzz_conformance,
    load_schedule_json,
    run_schedule,
    save_failures,
    shrink_schedule,
)
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.exec import ThreadBackend
from repro.exec.tasks import GuardedSnapshot
from repro.txpool.pool import TxPool


@pytest.fixture(scope="module")
def scenario():
    return ConformanceScenario.hotspot(n_txs=14, seed=7)


def _propose(scenario, probe=None):
    pool = TxPool()
    pool.add_many(scenario.txs)
    with ThreadBackend(scenario.workers) as backend:
        proposer = OCCWSIProposer(
            config=ProposerConfig(lanes=scenario.lanes),
            backend=backend,
            probe=probe,
        )
        return proposer.propose(scenario.universe.genesis, pool, scenario.ctx())


class TestSchedules:
    def test_identity_schedule_matches_production(self, scenario):
        # an explicit schedule with no decisions IS the production schedule
        reference = _propose(scenario, probe=None)
        probe = FuzzSchedule(seed=0, mode="explicit").probe()
        probe.scope = "propose"
        replayed = _propose(scenario, probe=probe)
        assert [c.tx.hash for c in replayed.committed] == [
            c.tx.hash for c in reference.committed
        ]
        ctx = scenario.ctx()
        assert (
            replayed.final_state(coinbase=ctx.coinbase).state_root()
            == reference.final_state(coinbase=ctx.coinbase).state_root()
        )

    def test_seeded_derivation_is_deterministic(self, scenario):
        a, b = FuzzSchedule(seed=99), FuzzSchedule(seed=99)
        assert run_schedule(scenario, a) is None
        assert run_schedule(scenario, b) is None
        assert a.decisions == b.decisions
        assert a.decisions, "a seeded run should record real decisions"

    def test_explicit_replay_reproduces_the_block(self, scenario):
        seeded = FuzzSchedule(seed=41)
        probe = seeded.probe()
        probe.scope = "propose"
        first = _propose(scenario, probe=probe)
        replay_probe = seeded.explicit().probe()
        replay_probe.scope = "propose"
        second = _propose(scenario, probe=replay_probe)
        assert [c.tx.hash for c in second.committed] == [
            c.tx.hash for c in first.committed
        ]

    def test_malformed_decisions_fall_back_to_identity(self, scenario):
        # out-of-range / non-permutation orders must not crash the drivers
        broken = FuzzSchedule(
            seed=0,
            mode="explicit",
            decisions={
                "propose/wave_commit:0": [9, 9, 9, 9],
                "propose/wave_width:0": 0,
                "validate/lane_order": [2, 0],
            },
        )
        assert run_schedule(scenario, broken) is None


class TestConformanceSweep:
    def test_seeded_sweep_is_conformant(self, scenario):
        result = fuzz_conformance(scenario, 30, seed=100)
        assert result.ok, result.summary()
        assert result.schedules_run == 30
        assert "all conformant" in result.summary()

    @pytest.mark.slow
    @pytest.mark.fuzz
    def test_two_hundred_interleavings_find_nothing(self, scenario):
        result = fuzz_conformance(scenario, 200, seed=1000)
        assert result.ok, result.summary()
        assert result.schedules_run == 200

    def test_budget_stops_early(self, scenario):
        result = fuzz_conformance(scenario, 10_000, seed=0, budget_s=0.3)
        assert result.ok
        assert result.schedules_run < 10_000


class TestBrokenGuard:
    @pytest.fixture()
    def broken_guard(self, monkeypatch):
        # test-only mutation: the footprint guard serves any account from
        # the base snapshot without recording or raising — exactly the bug
        # class the conformance property exists to catch
        monkeypatch.setattr(
            GuardedSnapshot,
            "account",
            lambda self, address: self._accounts.get(address),
        )

    def test_broken_guard_caught_and_shrunk(self, scenario, broken_guard):
        result = fuzz_conformance(scenario, 5, seed=7, max_failures=1)
        assert not result.ok
        failure = result.failures[0]
        assert failure.kind == "divergence"
        assert "serial reference" in failure.detail
        # shrinking ran while the guard was still broken...
        assert failure.shrunk is not None
        assert set(failure.shrunk.decisions) <= set(
            failure.schedule.explicit().decisions
        )
        # ...and the minimal schedule still reproduces the failure
        repro = run_schedule(scenario, failure.shrunk)
        assert repro is not None and repro.kind == "divergence"
        assert "FAILURE" in result.summary()

    def test_shrunk_schedule_passes_once_fixed(self, scenario):
        # shrink a seeded schedule against a broken guard, then verify the
        # repro is clean after the "fix" (monkeypatch scope ends per-step)
        schedule = FuzzSchedule(seed=7)
        original = GuardedSnapshot.account
        GuardedSnapshot.account = lambda self, address: self._accounts.get(address)
        try:
            failure = run_schedule(scenario, schedule)
            assert failure is not None

            def still_fails(trial):
                repro = run_schedule(scenario, trial)
                return repro is not None and repro.kind == failure.kind

            shrunk = shrink_schedule(schedule, still_fails)
        finally:
            GuardedSnapshot.account = original
        assert run_schedule(scenario, shrunk) is None


class TestReproArtifacts:
    def test_failures_round_trip_through_json(self, scenario, tmp_path):
        original = GuardedSnapshot.account
        GuardedSnapshot.account = lambda self, address: self._accounts.get(address)
        try:
            result = fuzz_conformance(
                scenario, 3, seed=11, max_failures=2, shrink=True
            )
        finally:
            GuardedSnapshot.account = original
        assert result.failures
        path = tmp_path / "failing.json"
        save_failures(result, str(path))

        payload = json.loads(path.read_text())
        assert payload["scenario"] == "hotspot"
        assert len(payload["failures"]) == len(result.failures)
        for entry in payload["failures"]:
            assert entry["kind"] == "divergence"

        schedules = load_schedule_json(str(path))
        assert len(schedules) == len(result.failures)
        for schedule in schedules:
            assert schedule.mode == "explicit"
            # guard is fixed again: the recorded schedules are clean now
            assert run_schedule(scenario, schedule) is None

    def test_bare_schedule_file_loads(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"seed": 5, "mode": "explicit", "decisions": {"k": 1}})
        )
        schedules = load_schedule_json(str(path))
        assert len(schedules) == 1
        assert schedules[0].seed == 5
        assert schedules[0].decisions == {"k": 1}
