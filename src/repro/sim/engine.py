"""Discrete-event simulation engine.

Time is an integer number of picoseconds.  The engine keeps events in
one binary heap of ``(time, sequence, callback, arg)`` entries; ties
are broken by insertion order, so execution is fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable

#: Time unit constants, in picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

#: Sentinel marking an event scheduled without an argument.
_NO_ARG = object()

#: "No limit" sentinels keeping the run loop free of None checks.
_NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g., scheduling into the past)."""


#: Process-wide event totals across every Simulator instance, published
#: once per ``run()`` call (never from the hot loop).  The telemetry
#: registry samples these by delta (:mod:`repro.obs.metrics`), and dist
#: workers ship their deltas home for coordinator-side aggregation.
_GLOBAL_COUNTERS = {"events_run": 0, "events_elided": 0}


def global_counters() -> dict[str, int]:
    """Snapshot of process-wide event totals (copy)."""
    return dict(_GLOBAL_COUNTERS)


def absorb_counters(delta: dict) -> None:
    """Fold a worker's counter delta into this process's totals (the
    dist coordinator calls this with the ``"m"`` field of a result
    frame)."""
    for key in _GLOBAL_COUNTERS:
        value = delta.get(key)
        if isinstance(value, int) and value > 0:
            _GLOBAL_COUNTERS[key] += value


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5 * NS, lambda: fired.append(sim.now))
    >>> _ = sim.run()
    >>> fired == [5 * NS]
    True
    """

    __slots__ = ("now", "_heap", "_seq", "_events_run", "_events_elided",
                 "_elided_published", "_running")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._events_elided: int = 0
        #: Portion of ``_events_elided`` already folded into the
        #: process-wide totals (publication happens at run() exit so
        #: the controller's wake elision stays a bare increment).
        self._elided_published: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ps, seq, callback, _NO_ARG))

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now."""
        time_ps = self.now + delay_ps
        if delay_ps < 0:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ps, seq, callback, _NO_ARG))

    def schedule_call_at(self, time_ps: int, callback: Callable,
                         arg) -> None:
        """Schedule ``callback(arg)`` at absolute time ``time_ps``.

        Equivalent to ``schedule_at(time_ps, lambda: callback(arg))``
        but allocation-free on the hot path: no closure is created, the
        argument rides along in the event entry itself.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ps, seq, callback, arg))

    def schedule_call(self, delay_ps: int, callback: Callable, arg) -> None:
        """Schedule ``callback(arg)`` after ``delay_ps`` picoseconds."""
        self.schedule_call_at(self.now + delay_ps, callback, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events in ``(time, sequence)`` order until the heap
        drains, ``until`` is reached, or ``max_events`` callbacks have
        executed.

        Events with timestamp exactly equal to ``until`` *are* executed,
        and a run stopped by ``until`` (or drained before it) leaves
        ``now == until``.  Returns the number of callbacks executed by
        this call.

        ``until`` may not lie in the past: simulated time never moves
        backwards, so ``run(until=T)`` with ``T < now`` raises
        :class:`SimulationError` (mirroring :meth:`schedule_at`).  A
        ``max_events`` of 0 fires nothing and leaves ``now`` alone; a
        negative one raises :class:`SimulationError`.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until} ps; simulated time is already "
                f"{self.now} ps (time never moves backwards)"
            )
        if self._running:
            # Callbacks run at the outer loop's instant; a nested run
            # would move time under them and split the outer call's
            # ``until`` / ``max_events`` accounting.  Fail loudly.
            raise SimulationError(
                "Simulator.run is not reentrant; do not call run() from "
                "inside an event callback")
        if max_events is not None and max_events <= 0:
            if max_events < 0:
                raise SimulationError(
                    f"max_events must be >= 0, not {max_events}")
            return 0
        self._running = True
        stop_at = _NEVER if until is None else until
        remaining = _NEVER if max_events is None else max_events
        executed = 0
        # Hot loop: the heap and heappop live in locals; ``self.now`` is
        # still written before every callback so callbacks observe
        # correct simulated time.
        heap = self._heap
        heappop = heapq.heappop
        no_arg = _NO_ARG
        try:
            while heap:
                time_ps = heap[0][0]
                if time_ps > stop_at:
                    self.now = stop_at
                    return executed
                _, _, callback, arg = heappop(heap)
                self.now = time_ps
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
                executed += 1
                if executed >= remaining:
                    return executed
        finally:
            self._events_run += executed
            _GLOBAL_COUNTERS["events_run"] += executed
            elided_delta = self._events_elided - self._elided_published
            if elided_delta:
                _GLOBAL_COUNTERS["events_elided"] += elided_delta
                self._elided_published = self._events_elided
            self._running = False
        if until is not None and until > self.now:
            self.now = until
        return executed

    # ------------------------------------------------------------------
    # Quiescence introspection (wake-elision support)
    # ------------------------------------------------------------------
    def quiescent_now(self) -> bool:
        """True when no pending event is scheduled at the *current*
        timestamp.

        No pending event lies before ``now`` (scheduling into the past
        is rejected and the heap pops in time order), so the heap's
        minimum decides.  The controller's wake-event elision relies on
        this: when the instant is quiescent and the caller schedules
        nothing else at this instant, the deferred scheduler wake would
        run next with exactly one candidate request, so its selection
        can be resolved inline and the wake event elided without
        reordering anything.
        """
        heap = self._heap
        return not heap or heap[0][0] > self.now

    @property
    def events_elided(self) -> int:
        """Scheduler wakes the controller's tail-submit elision resolved
        inline instead of dispatching (see ``MemoryController.
        submit_tail``); a fast-forward engagement diagnostic."""
        return self._events_elided

    @property
    def pending_events(self) -> int:
        """Number of events currently waiting (valid between runs and
        from inside event callbacks)."""
        return len(self._heap)

    @property
    def events_run(self) -> int:
        """Total number of callbacks executed over the simulator lifetime."""
        return self._events_run
