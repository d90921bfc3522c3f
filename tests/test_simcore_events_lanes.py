"""Unit tests for the discrete-event queue and simulated lanes."""

import pytest

from repro.simcore.events import EventQueue
from repro.simcore.lanes import Lane, LaneGroup


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "c", "b"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        q.push(1.0, "third")
        assert [q.pop().payload for _ in range(3)] == ["first", "second", "third"]

    def test_incomparable_payloads_ok(self):
        q = EventQueue()
        q.push(1.0, {"x": 1})
        q.push(1.0, {"y": 2})
        assert q.pop().payload == {"x": 1}

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, None)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), None)

    def test_drain_merges_new_events(self):
        q = EventQueue()
        q.push(1.0, "a")
        seen = []
        for ev in q.drain():
            seen.append(ev.payload)
            if ev.payload == "a":
                q.push(0.5, "late-but-after-a")  # already past 1.0? no: merged
                q.push(2.0, "b")
        # the 0.5 event was pushed after time 1.0 was popped but still sorts
        # by its own time among *remaining* events
        assert seen == ["a", "late-but-after-a", "b"]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, None)
        assert q and len(q) == 1


class TestLane:
    def test_sequential_tasks_accumulate(self):
        lane = Lane(0)
        s1, e1 = lane.run(10.0)
        s2, e2 = lane.run(5.0)
        assert (s1, e1) == (0.0, 10.0)
        assert (s2, e2) == (10.0, 15.0)
        assert lane.busy_time == 15.0
        assert lane.tasks_run == 2

    def test_not_before_delays_start(self):
        lane = Lane(0)
        start, end = lane.run(3.0, not_before=7.0)
        assert (start, end) == (7.0, 10.0)

    def test_context_switch_penalty(self):
        lane = Lane(0)
        lane.run(1.0, context="blockA", switch_penalty=2.0)
        start, _ = lane.run(1.0, context="blockB", switch_penalty=2.0)
        assert start == 3.0  # 1.0 end + 2.0 penalty
        assert lane.context_switches == 1

    def test_same_context_no_penalty(self):
        lane = Lane(0)
        lane.run(1.0, context="blk", switch_penalty=2.0)
        start, _ = lane.run(1.0, context="blk", switch_penalty=2.0)
        assert start == 1.0
        assert lane.context_switches == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Lane(0).run(-1.0)


class TestLaneGroup:
    def test_earliest_picks_least_loaded(self):
        group = LaneGroup(2)
        group.lanes[0].run(10.0)
        assert group.earliest() is group.lanes[1]

    def test_earliest_tie_breaks_by_index(self):
        group = LaneGroup(3)
        assert group.earliest() is group.lanes[0]

    def test_run_on_earliest_balances(self):
        group = LaneGroup(2)
        group.run_on_earliest(4.0)
        group.run_on_earliest(4.0)
        group.run_on_earliest(4.0)
        assert group.makespan == 8.0
        assert group.total_busy == 12.0

    def test_utilization(self):
        group = LaneGroup(2)
        group.run_on_earliest(4.0)
        group.run_on_earliest(4.0)
        assert group.utilization() == 1.0

    def test_context_affinity_prefers_same_context(self):
        group = LaneGroup(2)
        group.run_on_earliest(1.0, context="A", switch_penalty=5.0)
        group.run_on_earliest(1.0, context="B", switch_penalty=5.0)
        # both lanes free at t=1; the next A-task should go to lane 0
        lane, start, end = group.run_on_earliest(1.0, context="A", switch_penalty=5.0)
        assert lane.index == 0
        assert group.total_context_switches == 0

    def test_affinity_never_delays_work(self):
        group = LaneGroup(2)
        group.lanes[0].run(10.0, context="A")
        group.lanes[1].run(1.0, context="B")
        # an A-task: affine lane is busy until 10, other lane free at 1 —
        # must take the switch instead of waiting
        lane, start, _ = group.run_on_earliest(1.0, context="A", switch_penalty=2.0)
        assert lane.index == 1
        assert start == 3.0  # 1.0 + switch penalty

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError):
            LaneGroup(0)

