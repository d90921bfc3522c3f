"""Tests for the cost model and speedup statistics."""

import pytest

from benchmarks.analysis import histogram, summarize_speedups
from repro.simcore.costmodel import CostModel, TraceCosts
from repro.simcore.stats import RunStats


class TestCostModel:
    def test_storage_dominates(self):
        model = CostModel()
        storage_heavy = TraceCosts({"storage_read": 10, "storage_write": 10})
        compute_heavy = TraceCosts({"base": 100, "arith": 50})
        assert model.execution_cost(storage_heavy) > model.execution_cost(
            compute_heavy
        )

    def test_tx_cost_includes_overhead(self):
        model = CostModel()
        trace = TraceCosts({"base": 1})
        assert model.tx_cost(trace) == pytest.approx(
            model.tx_overhead + model.execution_cost(trace)
        )

    def test_unknown_category_costs_nothing(self):
        model = CostModel()
        assert model.execution_cost(TraceCosts({"mystery": 1000})) == 0.0

    def test_trace_merge(self):
        a = TraceCosts({"base": 1, "sha3": 2}, gas_used=100)
        b = TraceCosts({"base": 3}, gas_used=50)
        merged = a.merged(b)
        assert merged.counts == {"base": 4, "sha3": 2}
        assert merged.gas_used == 150

    def test_empty_trace_zero_cost(self):
        assert CostModel().execution_cost(TraceCosts({})) == 0.0


class TestRunStats:
    def test_utilization(self):
        stats = RunStats(makespan=10.0, total_work=40.0, lanes=8)
        assert stats.utilization == 0.5


class TestSummaries:
    def test_summarize(self):
        s = summarize_speedups([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.accelerated_fraction == 0.75  # 1.0 is not > 1

    def test_single_sample(self):
        s = summarize_speedups([2.0])
        assert s.p10 == s.p90 == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_speedups([])

    def test_histogram_buckets(self):
        counts = histogram([0.5, 1.5, 2.5, 3.5, 10.0], [1, 2, 3, 4])
        # 0.5 clamps into the first bucket; 10.0 clamps into the last
        assert counts == [2, 1, 2]
        assert sum(counts) == 5

    def test_histogram_needs_two_edges(self):
        with pytest.raises(ValueError):
            histogram([1.0], [1])

    def test_histogram_value_on_interior_edge(self):
        # half-open buckets: an interior edge belongs to the bucket it opens
        assert histogram([2.0], [1, 2, 3]) == [0, 1]
        assert histogram([1.0, 2.0, 2.0, 3.0], [1, 2, 3, 4]) == [1, 2, 1]

    def test_histogram_all_below_first_edge(self):
        assert histogram([-5.0, 0.0, 0.999], [1, 2, 3]) == [3, 0]

    def test_histogram_all_at_or_above_last_edge(self):
        # the last edge itself is already out of the half-open range and
        # clamps into the final bucket, like anything above it
        assert histogram([3.0, 3.5, 100.0], [1, 2, 3]) == [0, 3]

    def test_histogram_empty_values(self):
        assert histogram([], [1, 2, 3]) == [0, 0]

    def test_histogram_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], [3, 2, 1])
        with pytest.raises(ValueError):
            histogram([1.0], [1, 1, 2])  # duplicate edge: empty bucket

    def test_histogram_matches_linear_reference(self):
        # the bisect implementation must agree with the spec'd semantics
        # on a dense sample sweep, including both clamps
        edges = [0.0, 1.0, 2.5, 4.0, 8.0]

        def reference(values):
            counts = [0] * (len(edges) - 1)
            for v in values:
                if v < edges[0]:
                    counts[0] += 1
                    continue
                for i in range(len(edges) - 1):
                    if edges[i] <= v < edges[i + 1]:
                        counts[i] += 1
                        break
                else:
                    counts[-1] += 1
            return counts

        values = [x / 4.0 for x in range(-8, 48)]
        assert histogram(values, edges) == reference(values)
