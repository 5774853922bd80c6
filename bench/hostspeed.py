"""Host-speed reference sampled beside the workloads.

The speed of the small VMs this benchmark runs on is not steady: a
fixed piece of pure-Python work switches between a fast and a slow
state (about 1.6 times slower) every few seconds, and the share of
time spent slow changes from one minute to the next.  Measured host
times then move by more than any bound a regression check could use.

So while set-ups and operations run, a thread of the benchmark process
times a tiny fixed reference loop every :data:`INTERVAL_S`.  The loop
resembles the simulator's hot path (a heap of timed events, small
slotted objects, dict and attribute traffic), so the host slows it as
it slows the program.  A sample is shorter than a scheduler time
slice, so a workload process sharing the CPU rarely preempts it: with
2 ms samples the scaled times spread two to three times wider.
``bench.child`` pins itself and everything it starts to one CPU, so
the samples see the CPU the workload runs on.  Each set-up and
operation is then reported at the reference speed::

    time at reference speed = measured time * REF_NOMINAL_S * mean(1 / sample)

where the mean runs over the samples taken inside that set-up or
operation: the samples are evenly spaced in time, so the mean of the
inverse sample times is the host's average speed over the window.  The
loop lives in ``bench/`` and never changes with ``src/``, so a faster
program still reads faster.
"""

from __future__ import annotations

import heapq
import threading
import time

#: Reference-loop time on the 2-vCPU host the benchmark was sized on,
#: in its fast state; scaled times are seconds on a host of that speed.
REF_NOMINAL_S = 0.0005

#: Gap between two samples.  One sample takes 0.5-1 ms, so sampling
#: costs the workload about 3% of one CPU.
INTERVAL_S = 0.02

_ITERATIONS = 500


class _Slot:
    __slots__ = ("count", "last")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0

    def bump(self, when: int) -> int:
        self.count += 1
        self.last = when
        return self.count


def reference_work() -> int:
    heap: list[tuple[int, int]] = []
    table: dict[int, _Slot] = {}
    acc = 0
    for i in range(_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1021, i))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            slot = table.get(key & 255)
            if slot is None:
                slot = table[key & 255] = _Slot()
            acc += slot.bump(when) & 7
    return acc


class HostSpeed:
    """Background reference samples and the speed they give over a
    window of time.  Use as a context manager around the timed code."""

    def __init__(self) -> None:
        #: (start, end) perf_counter times of every sample.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            reference_work()
            self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "HostSpeed":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-hostspeed")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def factor(self, windows: list[tuple[float, float]]) -> float:
        """Factor from measured seconds to seconds at the reference
        speed over the ``(start, end)`` windows: from the samples taken
        inside them, or the one nearest to them when they are shorter
        than the sampling interval."""
        samples = list(self.samples)
        inside = [b - a for a, b in samples
                  if any(start <= a and b <= end for start, end in windows)]
        if not inside:
            middle = (windows[0][0] + windows[-1][1]) / 2
            a, b = min(samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle))
            inside = [b - a]
        return REF_NOMINAL_S * sum(1.0 / d for d in inside) / len(inside)

    def reference_s(self) -> float:
        """Mean sample time of the whole run (printed, not used)."""
        return sum(b - a for a, b in self.samples) / len(self.samples)
