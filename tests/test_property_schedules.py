"""Property-based bounds on schedules and pipeline timing.

These pin the simulation to scheduling theory: any list schedule's
makespan sits between the trivial lower bounds (critical path, total
work / lanes) and the serial upper bound; the validator's phases respect
the same envelope.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.core.depgraph import build_dependency_graph
from repro.core.scheduler import SCHEDULER_POLICIES, schedule_components
from repro.simcore.lanes import LaneGroup

A = [address_from_int(0x600 + i) for i in range(10)]


@st.composite
def component_workloads(draw):
    """Random (footprints, durations): components via shared accounts."""
    n = draw(st.integers(1, 40))
    footprints = []
    durations = []
    for _ in range(n):
        account = draw(st.integers(0, 9))
        footprints.append(frozenset({A[account]}))
        durations.append(draw(st.floats(0.5, 50.0)))
    lanes = draw(st.integers(1, 8))
    return footprints, durations, lanes


class TestScheduleBounds:
    @settings(max_examples=60, deadline=None)
    @given(component_workloads())
    def test_list_schedule_envelope(self, data):
        footprints, durations, lanes = data
        gas = [max(1, int(d * 10)) for d in durations]
        graph = build_dependency_graph(footprints, gas)

        total = sum(durations)
        critical = max(
            sum(durations[t] for t in comp) for comp in graph.components
        )

        for policy in SCHEDULER_POLICIES:
            plan = schedule_components(graph, lanes, policy, seed=3)
            lane_times = [
                sum(durations[t] for t in lane_txs) for lane_txs in plan.lane_txs
            ]
            makespan = max(lane_times) if lane_times else 0.0
            # lower bounds: critical path and perfect division
            assert makespan >= critical - 1e-9, policy
            assert makespan >= total / lanes - 1e-9, policy
            # upper bound: never worse than serial
            assert makespan <= total + 1e-9, policy
            # work conservation
            assert sum(lane_times) == pytest.approx(total)

    @settings(max_examples=40, deadline=None)
    @given(component_workloads())
    def test_greedy_lpt_two_approximation(self, data):
        """Graham's bound: LPT makespan <= (4/3 - 1/3m) * OPT, and OPT >=
        max(critical, total/m); check the weaker, always-valid form."""
        footprints, durations, lanes = data
        gas = [max(1, int(d * 10)) for d in durations]
        graph = build_dependency_graph(footprints, gas)
        plan = schedule_components(graph, lanes, "gas_lpt")
        lane_times = [
            sum(durations[t] for t in lane_txs) for lane_txs in plan.lane_txs
        ]
        makespan = max(lane_times)
        total = sum(durations)
        critical = max(
            sum(durations[t] for t in comp) for comp in graph.components
        )
        opt_lower = max(critical, total / lanes)
        # list scheduling is a 2-approximation even with duration-estimate
        # mismatch, because gas here is proportional to duration
        assert makespan <= 2 * opt_lower + 1e-9


class TestLaneGroupInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.1, 20.0), min_size=1, max_size=40),
        st.integers(1, 8),
    )
    def test_run_on_earliest_is_work_conserving(self, durations, lanes):
        group = LaneGroup(lanes)
        for d in durations:
            group.run_on_earliest(d)
        total = sum(durations)
        assert group.total_busy == pytest.approx(total)
        assert group.makespan >= total / lanes - 1e-9
        assert group.makespan <= total + 1e-9
        # greedy list scheduling: no lane idles while work was available,
        # so makespan <= total/lanes + max task (Graham)
        assert group.makespan <= total / lanes + max(durations) + 1e-9
