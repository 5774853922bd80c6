"""Statistics shared by the benchmark runner, the A/B tool and the tests.

Pure functions over lists of floats; no repro imports, so the A/B tool
can use them without a source tree on its path.
"""

from __future__ import annotations

import math
import re
import statistics

#: Metric and workload names: what BENCHMARK.json consumers accept.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer, its value is one or two outliers.
MIN_BEYOND = 10

#: Fewest parent/change pairs on which a gain may be claimed.
MIN_PAIRS = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if not ordered or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[max(0, rank - 1)]


def drain_tail_s(completions, workers: int) -> float:
    """Seconds from the completion of trial ``n - workers`` to the last
    completion: the stretch in which the fleet runs out of queued work
    and its workers go idle one by one."""
    times = sorted(completions)
    if not times:
        return 0.0
    head = len(times) - workers - 1
    return times[-1] - times[max(0, head)]


def verdict(parent, change, better: str, bound: float) -> str:
    """Classify a change against its parent from paired runs.

    ``improved``: at least :data:`MIN_PAIRS` pairs, the change wins at
    least nine tenths of them (ties count for neither side), and the
    medians differ by more than the parent's own interquartile distance.  Otherwise the change is
    ``regressed`` when its median is worse than the parent's by more
    than ``bound`` (a share of the parent's median), ``unresolved``
    when the parent's spread exceeds ``bound`` and not every change run
    beats every parent run, and ``unchanged`` otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    gain = sign * (p_med - c_med)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > p_q3 - p_q1):
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"
