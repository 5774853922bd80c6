"""Tests for the engine's event order.

The engine keeps one heap of ``(time, sequence, callback, arg)``
entries; these tests pin the contract that global execution order is
exactly ``(time, insertion sequence)``, whichever scheduling method
queued an event and however far ahead it lies.  A Hypothesis property
checks randomized programs against a plain sorted-list model.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import NS, US, SimulationError, Simulator


class TestScheduleCall:
    def test_schedule_call_passes_argument(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(5 * NS, seen.append, "payload")
        sim.run()
        assert seen == ["payload"]

    def test_schedule_call_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_call_at(42, lambda arg: seen.append((sim.now, arg)), 7)
        sim.run()
        assert seen == [(42, 7)]

    def test_schedule_call_at_past_raises(self):
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.schedule_call_at(50, print, None)

    def test_mixed_closure_and_call_events_interleave_by_seq(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5, lambda: order.append("a"))
        sim.schedule_call_at(5, order.append, "b")
        sim.schedule_at(5, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]


class TestLaneEquivalence:
    """Randomized schedules must execute exactly in (time, seq) order,
    whether events are queued at ``now``, nearby, far ahead or out of
    order."""

    def test_randomized_order_matches_reference(self):
        rng = random.Random(1234)
        sim = Simulator()
        executed = []
        expected = []
        seq = 0

        def submit(at, tag):
            sim.schedule_at(at, lambda: executed.append(tag))
            expected.append((at, tag[1]))

        # Phase 1: static schedule mixing far/near/now times.
        for i in range(200):
            at = rng.choice([0, 1, 5 * NS, rng.randrange(0, 2 * US)])
            submit(at, ("static", seq)); seq += 1

        # Phase 2: dynamic rescheduling from inside callbacks.
        def chain(n):
            executed.append(("chain", 10_000 + n))
            expected.append((sim.now + (0 if n >= 5 else NS),
                             10_000 + n + 1))
            if n < 5:
                sim.schedule(NS, lambda: chain(n + 1))

        sim.schedule_at(US, lambda: chain(0))
        expected.append((US, 10_000))

        sim.run()
        tags = [tag for tag in executed]
        # Reference: stable sort of (time, insertion order).
        assert len(tags) == 206
        static = [t for t in tags if t[0] == "static"]
        static_expected = sorted(
            [(at, s) for (at, s) in
             [(e[0], e[1]) for e in expected if e[1] < 10_000]],
            key=lambda pair: (pair[0], pair[1]))
        assert [s for _, s in static_expected] == [s for _, s in static]

    def test_pending_events_spans_all_lanes(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.schedule_at(5, lambda: None)      # before an earlier entry
        sim.schedule_at(0, lambda: None)      # at the current instant
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_far_future_events_execute_in_order(self):
        """Events more than 1 us ahead must still interleave correctly
        with near events."""
        sim = Simulator()
        order = []
        sim.schedule_at(10 * US, lambda: order.append("far"))
        sim.schedule_at(3, lambda: order.append("near"))
        sim.schedule_at(10 * US, lambda: order.append("far2"))
        sim.run()
        assert order == ["near", "far", "far2"]

    def test_run_until_then_resume_across_lanes(self):
        sim = Simulator()
        order = []
        for at in (5, 10 * US, 7):
            sim.schedule_at(at, lambda at=at: order.append(at))
        sim.run(until=8)
        assert order == [5, 7]
        sim.run()
        assert order == [5, 7, 10 * US]


class TestRunSafety:
    def test_nested_run_raises(self):
        """run() is explicitly non-reentrant: the outer call owns the
        ``until`` / ``max_events`` accounting, so a nested call must
        fail loudly."""
        sim = Simulator()
        errors = []

        def evil():
            try:
                sim.run(until=sim.now)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(5, evil)
        sim.schedule_at(5, lambda: None)
        assert sim.run() == 2
        assert len(errors) == 1
        # The engine stays usable afterwards.
        fired = []
        sim.schedule(1, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_pending_events_accurate_inside_callbacks(self):
        sim = Simulator()
        seen = []
        for t in range(5):
            sim.schedule_at(t, lambda: seen.append(sim.pending_events))
        sim.run()
        assert seen == [4, 3, 2, 1, 0]

    def test_pending_events_accurate_across_lanes_inside_callbacks(self):
        sim = Simulator()
        seen = []

        def observe():
            seen.append(sim.pending_events)

        sim.schedule_at(10, observe)
        sim.schedule_at(5, observe)         # before an earlier entry
        sim.schedule_at(0, observe)         # at the current instant
        sim.run()
        assert seen == [2, 1, 0]


# ----------------------------------------------------------------------
# Randomized programs against a reference order model
# ----------------------------------------------------------------------
#: Events one program may create; fired events stop spawning after it.
_EVENT_BUDGET = 60

_METHODS = ("schedule", "schedule_at", "schedule_call_at")

#: Delays relative to ``now``: same instant, nearby (with frequent
#: ties), more than 1 us ahead, and into the past.
_delays = st.one_of(st.just(0), st.integers(1, 8),
                    st.integers(US + 1, US + 8), st.integers(-8, -1))
_spawns = st.tuples(st.sampled_from(_METHODS), _delays)
_actions = st.one_of(
    st.tuples(st.just("until"), st.integers(-3, 2 * US + 16)),
    st.tuples(st.just("max"), st.integers(0, 12)),
    st.tuples(st.just("both"), st.integers(-3, 2 * US + 16),
              st.integers(0, 12)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("spawn"), _spawns),
)


class _Program:
    """Runs one program: event ``i`` records what it observes when it
    fires, then spawns the events of ``behaviours[i % len]``.  The
    subclass decides how events are queued and run."""

    def __init__(self, behaviours):
        self.behaviours = behaviours
        self.trace = []
        self.next_id = 0

    def spawn(self, method, delay):
        eid = self.next_id
        if eid >= _EVENT_BUDGET:
            return
        self.next_id += 1
        try:
            self.queue(method, self.now + delay, eid)
        except SimulationError:
            self.trace.append(("past", eid))

    def fire(self, eid):
        self.trace.append((self.now, eid, self.pending_events,
                           self.quiescent_now()))
        for method, delay in self.behaviours[eid % len(self.behaviours)]:
            self.spawn(method, delay)


class _EngineProgram(_Program):
    def __init__(self, behaviours):
        super().__init__(behaviours)
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    @property
    def pending_events(self):
        return self.sim.pending_events

    @property
    def events_run(self):
        return self.sim.events_run

    def quiescent_now(self):
        return self.sim.quiescent_now()

    def queue(self, method, time_ps, eid):
        sim = self.sim
        if method == "schedule":
            sim.schedule(time_ps - sim.now, lambda: self.fire(eid))
        elif method == "schedule_at":
            sim.schedule_at(time_ps, lambda: self.fire(eid))
        else:
            sim.schedule_call_at(time_ps, self.fire, eid)

    def run(self, until=None, max_events=None):
        return self.sim.run(until=until, max_events=max_events)


class _ReferenceProgram(_Program):
    """The order contract, spelled out: a list kept sorted by
    ``(time, insertion order)``; the earliest entry runs next."""

    def __init__(self, behaviours):
        super().__init__(behaviours)
        self.now = 0
        self.pending = []
        self.inserted = 0
        self.events_run = 0

    @property
    def pending_events(self):
        return len(self.pending)

    def quiescent_now(self):
        return all(time > self.now for time, _, _ in self.pending)

    def queue(self, method, time_ps, eid):
        if time_ps < self.now:
            raise SimulationError("past")
        self.pending.append((time_ps, self.inserted, eid))
        self.inserted += 1
        self.pending.sort()

    def run(self, until=None, max_events=None):
        if until is not None and until < self.now:
            raise SimulationError("past")
        if max_events == 0:
            return 0
        executed = 0
        while self.pending:
            time_ps, _, eid = self.pending[0]
            if until is not None and time_ps > until:
                break
            del self.pending[0]
            self.now = time_ps
            self.fire(eid)
            executed += 1
            self.events_run += 1
            if max_events is not None and executed >= max_events:
                return executed
        if until is not None:
            self.now = until
        return executed


def _apply(program, action):
    """One top-level action; returns what it returned or raised."""
    kind = action[0]
    try:
        if kind == "spawn":
            program.spawn(*action[1])
            return None
        if kind == "until":
            return program.run(until=program.now + action[1])
        if kind == "max":
            return program.run(max_events=action[1])
        if kind == "both":
            return program.run(until=program.now + action[1],
                               max_events=action[2])
        return program.run()
    except SimulationError:
        return "past"


class TestReferenceOrder:
    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(_spawns, min_size=1, max_size=12),
           behaviours=st.lists(st.lists(_spawns, max_size=3),
                               min_size=1, max_size=6),
           actions=st.lists(_actions, min_size=1, max_size=8))
    def test_engine_matches_sorted_list_model(self, initial, behaviours,
                                              actions):
        engine = _EngineProgram(behaviours)
        model = _ReferenceProgram(behaviours)
        for program in (engine, model):
            for method, delay in initial:
                program.spawn(method, delay)
        assert engine.trace == model.trace
        for action in actions + [("drain",)]:
            returned = _apply(engine, action)
            assert returned == _apply(model, action), action
            assert engine.trace == model.trace
            assert engine.now == model.now
            assert engine.pending_events == model.pending_events
            assert engine.events_run == model.events_run
        assert engine.pending_events == 0
