"""Open-loop trace replay (the browser process of the side channel).

Replays a list of ``(time_offset_ps, addr)`` records against the memory
system with a bounded number of outstanding requests.  If the memory
system falls behind the schedule the replay slips (issues as fast as
completions permit), which is how a real core's MLP limit behaves.

The replay keeps at most one pending wake per due time.  Every pump
that leaves the next record not yet due wants a wake at that record's
due time, and completions pump far more often than records fall due;
arming a wake per pump would stack duplicates at one instant that each
re-arm another, so wakes would grow with the square of the trace
length.  A duplicate could never issue anything (the first wake at an
instant already issued every due record, and each completion pumps
inline), so dropping them leaves every issuing pump at the same
(time, order) position.
"""

from __future__ import annotations

from repro.cpu.agent import Agent
from repro.system import MemorySystem


class TraceReplayAgent(Agent):
    """Replays a timed access trace with bounded outstanding requests."""

    def __init__(self, system: MemorySystem,
                 trace: list[tuple[int, int]], name: str = "trace",
                 start_time: int = 0, max_outstanding: int = 4) -> None:
        super().__init__(system, name)
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.trace = trace
        self.start_time = start_time
        self.max_outstanding = max_outstanding
        self._next_idx = 0
        self._outstanding = 0
        #: Due time of the last armed wake.  Armed times only grow (a
        #: wake is armed for a record not yet due, and the next record
        #: changes only once that time has come), so a wake is still
        #: pending at a future T exactly when T equals this.
        self._wake_at = -1
        self.completed = 0

    def start(self) -> None:
        self._pump_cb = self._pump
        self._complete_cb = self._complete
        if not self.trace:
            self.sim.schedule_at(self.start_time, self._finish)
            return
        self.sim.schedule_at(self.start_time, self._pump_cb)

    def _pump(self) -> None:
        """Issue every due record, up to the outstanding limit."""
        if self.done:
            return
        now = self.sim.now
        while (self._next_idx < len(self.trace)
               and self._outstanding < self.max_outstanding):
            offset, addr = self.trace[self._next_idx]
            due = self.start_time + offset
            if due > now:
                break
            self._next_idx += 1
            self._outstanding += 1
            self.system.submit(addr, self._complete_cb)
        if (self._next_idx < len(self.trace)
                and self._outstanding < self.max_outstanding):
            due = self.start_time + self.trace[self._next_idx][0]
            if due != self._wake_at:
                self._wake_at = due
                self.sim.schedule_at(due, self._pump_cb)

    def _complete(self, req) -> None:
        self._outstanding -= 1
        self.completed += 1
        if self.completed >= len(self.trace):
            self._finish()
            return
        self._pump()
