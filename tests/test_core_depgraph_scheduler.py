"""Dependency-graph and scheduler tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.core.depgraph import build_dependency_graph
from repro.core.scheduler import SCHEDULER_POLICIES, schedule_components

A = [address_from_int(i) for i in range(12)]


def fp(*indices):
    return frozenset(A[i] for i in indices)


class TestDependencyGraph:
    def test_disjoint_footprints_separate_components(self):
        g = build_dependency_graph([fp(0), fp(1), fp(2)])
        assert len(g.components) == 3
        assert g.largest_component_ratio() == pytest.approx(1 / 3)

    def test_shared_account_merges(self):
        g = build_dependency_graph([fp(0, 1), fp(1, 2), fp(3)])
        assert len(g.components) == 2
        assert g.components[0] == (0, 1)
        assert g.component_of[0] == g.component_of[1]
        assert g.component_of[2] != g.component_of[0]

    def test_transitive_closure(self):
        # 0-1 share a, 1-2 share b => all one component
        g = build_dependency_graph([fp(0), fp(0, 1), fp(1)])
        assert len(g.components) == 1
        assert g.components[0] == (0, 1, 2)

    def test_block_order_preserved_within_component(self):
        g = build_dependency_graph([fp(0), fp(1), fp(0), fp(1), fp(0)])
        assert g.components == ((0, 2, 4), (1, 3))

    def test_empty_block(self):
        g = build_dependency_graph([])
        assert g.components == ()
        assert g.largest_component_ratio() == 0.0

    def test_gas_accounting(self):
        g = build_dependency_graph([fp(0), fp(0), fp(1)], gas=[10, 20, 5])
        assert g.component_gas(0) == 30
        assert g.component_gas(1) == 5

    def test_gas_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_dependency_graph([fp(0)], gas=[1, 2])

    def test_single_component_ratio_is_one(self):
        g = build_dependency_graph([fp(0), fp(0), fp(0)])
        assert g.largest_component_ratio() == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=3),
            max_size=30,
        )
    )
    def test_partition_properties(self, raw):
        footprints = [frozenset(A[i] for i in s) for s in raw]
        g = build_dependency_graph(footprints)
        # components partition the indices
        all_indices = sorted(i for comp in g.components for i in comp)
        assert all_indices == list(range(len(footprints)))
        # txs in different components never share an account
        for ci, comp_i in enumerate(g.components):
            accounts_i = set().union(*(footprints[t] for t in comp_i))
            for cj in range(ci + 1, len(g.components)):
                accounts_j = set().union(*(footprints[t] for t in g.components[cj]))
                assert not (accounts_i & accounts_j)


class TestScheduler:
    def make_graph(self, sizes_gas):
        """sizes_gas: list of (tx_count, per_tx_gas) per component."""
        footprints = []
        gas = []
        for comp_index, (count, g) in enumerate(sizes_gas):
            for _ in range(count):
                footprints.append(fp(comp_index))
                gas.append(g)
        return build_dependency_graph(footprints, gas)

    def test_gas_lpt_balances_load(self):
        graph = self.make_graph([(1, 100), (1, 60), (1, 50), (1, 10)])
        plan = schedule_components(graph, 2, "gas_lpt")
        loads = [
            sum(graph.component_gas(c) for c in comps)
            for comps in plan.lane_components
        ]
        assert sorted(loads) == [110, 110]

    def test_all_txs_scheduled_exactly_once(self):
        graph = self.make_graph([(3, 5), (2, 7), (4, 1)])
        for policy in SCHEDULER_POLICIES:
            plan = schedule_components(graph, 3, policy, seed=1)
            seen = sorted(t for lane in plan.lane_txs for t in lane)
            assert seen == list(range(9)), policy

    def test_block_order_within_component_preserved(self):
        graph = self.make_graph([(4, 5), (3, 5)])
        for policy in SCHEDULER_POLICIES:
            plan = schedule_components(graph, 2, policy, seed=3)
            for lane in plan.lane_txs:
                for comp in graph.components:
                    positions = [lane.index(t) for t in comp if t in lane]
                    assert positions == sorted(positions), policy

    def test_round_robin_ignores_load(self):
        graph = self.make_graph([(1, 1000), (1, 1000), (1, 1), (1, 1)])
        plan = schedule_components(graph, 2, "round_robin")
        assert plan.lane_components[0] == (0, 2)
        assert plan.lane_components[1] == (1, 3)

    def test_random_is_seed_deterministic(self):
        graph = self.make_graph([(2, 5)] * 6)
        p1 = schedule_components(graph, 3, "random", seed=9)
        p2 = schedule_components(graph, 3, "random", seed=9)
        p3 = schedule_components(graph, 3, "random", seed=10)
        assert p1.lane_components == p2.lane_components
        assert p1.lane_components != p3.lane_components or True  # may collide

    def test_unknown_policy_rejected(self):
        graph = self.make_graph([(1, 1)])
        with pytest.raises(ValueError):
            schedule_components(graph, 2, "voodoo")

    def test_zero_lanes_rejected(self):
        graph = self.make_graph([(1, 1)])
        with pytest.raises(ValueError):
            schedule_components(graph, 0)

    def test_more_lanes_than_components(self):
        graph = self.make_graph([(1, 5), (1, 5)])
        plan = schedule_components(graph, 8)
        non_empty = [lane for lane in plan.lane_txs if lane]
        assert len(non_empty) == 2

    def test_lane_of_tx_mapping(self):
        graph = self.make_graph([(2, 5), (1, 9)])
        plan = schedule_components(graph, 2)
        # every transaction runs on exactly one lane
        assert sorted(tx for lane in plan.lane_txs for tx in lane) == [0, 1, 2]

    def test_gas_lpt_beats_round_robin_on_skew(self):
        """On heavily skewed components, gas-LPT's makespan estimate wins."""
        graph = self.make_graph([(1, 100), (1, 99), (1, 1), (1, 1), (1, 1), (1, 1)])
        lpt = schedule_components(graph, 2, "gas_lpt")
        rr = schedule_components(graph, 2, "round_robin")

        def makespan(plan):
            return max(
                sum(graph.component_gas(c) for c in comps)
                for comps in plan.lane_components
            )

        assert makespan(lpt) <= makespan(rr)
