"""Tests for the experiment harness's analysis helpers and the table renderer."""

import os

import pytest

from benchmarks.analysis import (
    SweepPoint,
    bucket_by_ratio,
    correlation,
    format_histogram,
    scaling_sweep_table,
    write_report,
)
from repro.obs.export import format_table


class TestMetrics:
    def test_sweep_point_from_samples(self):
        p = SweepPoint.from_samples(4, [2.0, 3.0, 4.0])
        assert p.x == 4
        assert p.summary.mean == 3.0

    def test_scaling_table_rows(self):
        points = [
            SweepPoint.from_samples(2, [1.5, 2.5]),
            SweepPoint.from_samples(4, [3.0, 5.0]),
        ]
        rows = scaling_sweep_table(points)
        assert rows[0]["threads"] == 2
        assert rows[1]["mean"] == 4.0
        assert rows[0]["accelerated"] == "100.0%"

    def test_bucket_by_ratio(self):
        pairs = [(0.1, 4.0), (0.15, 3.5), (0.5, 1.5), (0.95, 1.0)]
        rows = bucket_by_ratio(pairs, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert rows[0]["blocks"] == 2
        assert rows[0]["mean_speedup"] == pytest.approx(3.75)
        # top-edge value clamps into the last bucket
        assert rows[-1]["blocks"] == 1

    def test_correlation_signs(self):
        down = [(i, 10 - i) for i in range(10)]
        up = [(i, i * 2) for i in range(10)]
        assert correlation(down) == pytest.approx(-1.0)
        assert correlation(up) == pytest.approx(1.0)

    def test_correlation_degenerate(self):
        assert correlation([(1, 5), (2, 5), (3, 5)]) == 0.0
        with pytest.raises(ValueError):
            correlation([(1, 1)])


class TestReport:
    def test_format_table_aligned(self):
        out = format_table([{"a": 1, "bb": 22}, {"a": 333, "bb": 4}], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="X")

    def test_format_histogram_bars_scale(self):
        out = format_histogram([1, 1, 1, 2], [1, 2, 3], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10  # fullest bucket at full width
        assert lines[1].count("#") < 10

    def test_write_report(self, tmp_path):
        path = write_report("unit", "hello\n", directory=str(tmp_path))
        assert os.path.exists(path)
        assert open(path).read() == "hello\n"

