"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import MS, NS, PS, SEC, US, SimulationError, Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_and_run_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(5 * NS, lambda: fired.append(sim.now))
        assert sim.run() == 1
        assert fired == [5 * NS]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_zero_delay_event_runs_at_now(self):
        sim = Simulator()
        sim.schedule_at(7, lambda: sim.schedule(0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [7]

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestOrdering:
    def test_events_run_in_timestamp_order(self):
        sim = Simulator()
        order = []
        for t in (30, 10, 20):
            sim.schedule_at(t, lambda t=t: order.append(t))
        sim.run()
        assert order == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_at(5, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                    min_size=1, max_size=50))
    def test_arbitrary_schedules_never_run_backwards(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.schedule_at(t, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)

    def test_callback_scheduling_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.schedule(1, lambda: chain(n + 1))

        sim.schedule_at(0, lambda: chain(0))
        sim.run()
        assert seen == list(range(6))


class TestRunLimits:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append("early"))
        sim.schedule_at(100, lambda: fired.append("late"))
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(50, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [1]

    def test_run_until_advances_time_with_empty_heap(self):
        sim = Simulator()
        sim.run(until=123)
        assert sim.now == 123

    def test_run_until_in_the_past_raises(self):
        """Regression: run(until=T) with T < now used to silently move
        simulated time backwards."""
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)
        assert sim.now == 100

    def test_run_until_in_the_past_with_pending_events_raises(self):
        sim = Simulator()
        sim.schedule_at(100, lambda: None)
        sim.run(until=100)
        sim.schedule_at(200, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=99)
        assert sim.now == 100
        assert sim.pending_events == 1  # future event untouched

    def test_run_until_now_is_a_noop(self):
        sim = Simulator()
        sim.run(until=100)
        assert sim.run(until=100) == 0
        assert sim.now == 100

    def test_max_events_limit(self):
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(t, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 7

    def test_zero_budget_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5, lambda: fired.append(5))
        sim.schedule_at(6, lambda: fired.append(6))
        assert sim.run(max_events=0) == 0
        assert sim.run(until=10, max_events=0) == 0
        assert fired == [] and sim.now == 0
        assert sim.pending_events == 2 and sim.events_run == 0
        assert sim.run(max_events=1) == 1
        assert fired == [5] and sim.now == 5

    def test_negative_budget_raises(self):
        sim = Simulator()
        sim.schedule_at(5, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        assert sim.now == 0 and sim.pending_events == 1
        assert sim.run() == 1  # not left marked as running

    def test_events_run_accumulates(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_run == 2


class TestUnits:
    def test_unit_ratios(self):
        assert NS == 1000 * PS
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert SEC == 1000 * MS
