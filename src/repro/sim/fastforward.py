"""The fast-forward switch: wake-event elision on or off.

The only fast path is *wake-event elision*
(:meth:`MemoryController.submit_tail
<repro.controller.controller.MemoryController.submit_tail>`): a
closed-loop agent that submits from a tail position, with the queue
empty and no other event pending at the current instant, has its
request serviced inline instead of through a deferred scheduler-wake
event.  Nothing can interleave between the submit and the wake it
replaces, so every seq number lands in the same relative order and the
result is **bit-identical** to the deferred path.  Each elided wake is
counted in the engine's ``events_elided``; ``python -m repro
diffcheck`` machine-checks the identity over every registered
experiment plus fuzzed scenarios.

The switch
----------
Fast-forward is on unless a :func:`forced` override turns it off; the
diffcheck harness forces ``"off"`` for its baseline runs and ``"on"``
for the comparison, and the sweep backends ship the forced mode with
every task so a worker pins its runs exactly like the coordinator.
"""

from __future__ import annotations

from contextlib import contextmanager

#: Process-wide forced override: "on", "off", or None (no override).
_forced: str | None = None


def resolve_enabled() -> bool:
    """Whether systems built now elide wakes: on unless forced off."""
    return _forced != "off"


@contextmanager
def forced(mode: str | None):
    """Force fast-forward ``"on"``/``"off"`` for every system built
    inside the context (how the diffcheck harness pins its baseline
    runs)."""
    if mode not in (None, "on", "off"):
        raise ValueError("forced mode must be 'on', 'off', or None")
    global _forced
    prev = _forced
    _forced = mode
    try:
        yield
    finally:
        _forced = prev


def forced_mode() -> str | None:
    """The active :func:`forced` override (``"on"``/``"off"``/None).

    Remote sweep backends ship this with every task so worker
    processes pin fast-forward exactly as the coordinator would."""
    return _forced


# The frozen benchmark harness still reads the names below:
# bench/workloads.py:219-255 and bench/child.py:104-131 read
# totals()["jumps"], ["joint_jumps"] and ["cycles"], and
# bench/child.py:70-76 wraps FastForward.consider in its traced run.
# Delete them together with those bench lines.
def totals() -> dict:
    """Always-zero jump totals (no analytic jumps exist)."""
    return {"jumps": 0, "cycles": 0, "joint_jumps": 0}


class FastForward:
    """Placeholder whose :meth:`consider` does nothing (see the
    comment above :func:`totals`)."""

    def consider(self, probe) -> None:
        """No-op."""
