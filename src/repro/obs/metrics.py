"""Process-wide metrics registry: counters, gauges, histograms.

Design constraints, in order:

* **Nothing on the hot path.**  Telemetry is always on, and the
  simulator's inner event loop is never instrumented at all — engine
  and fast-forward totals are *sampled* from the deterministic
  counters those layers already keep (at ``run()`` exit and at collect
  time).  ``tests/test_obs.py`` pins this structurally: a long
  ``run()`` makes no metric call at all.
* **Stdlib only.**  Prometheus text exposition
  (``Registry.to_prometheus``) and a JSON snapshot
  (``Registry.snapshot``) are rendered by hand; no client library.
* **One registry per process.**  Instrumented layers call
  :data:`REGISTRY` directly; workers ship counter deltas home over the
  frame protocol and the coordinator absorbs them, so a sharded
  sweep's engine/fast-forward counters aggregate in the coordinator.

Label support is deliberately small: a metric may carry labels per
observation (``counter.inc(1, route="/healthz")``); each distinct
label set becomes its own sample.  Keep cardinality low (routes,
refusal reasons, worker ids of a small fleet).
"""

from __future__ import annotations

import threading
import time

#: Default latency-histogram buckets (seconds): spans sub-millisecond
#: cached HTTP hits through multi-second simulation trials.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared storage: one value (or bucket vector) per label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: dict[tuple, float] = {}

    def samples(self) -> list[tuple[dict, float]]:
        """``(labels, value)`` per label set (unlabeled = ``{}``)."""
        with self._lock:
            return [(dict(key), value)
                    for key, value in sorted(self._values.items())]

    def value(self, **labels) -> float:
        """Current value for one label set (0.0 when never touched)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _zero(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that goes up and down (depths, live connection counts)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: tuple = LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        #: label key -> [per-bucket counts..., +Inf count, sum]
        self._series: dict[tuple, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0.0] * (len(self.buckets)
                                                      + 2)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series[i] += 1
            series[-2] += 1  # +Inf / _count
            series[-1] += value  # _sum

    def samples(self) -> list[tuple[dict, float]]:
        """``(labels, count)`` per label set — the observation count
        (bucket detail is exposition-format specific; see
        :meth:`series`)."""
        with self._lock:
            return [(dict(key), row[-2])
                    for key, row in sorted(self._series.items())]

    def series(self) -> list[tuple[dict, list[float], float, float]]:
        """``(labels, bucket_counts, count, sum)`` per label set."""
        with self._lock:
            return [(dict(key), list(row[:-2]), row[-2], row[-1])
                    for key, row in sorted(self._series.items())]

    def value(self, **labels) -> float:
        with self._lock:
            row = self._series.get(_label_key(labels))
            return 0.0 if row is None else row[-2]

    def _zero(self) -> None:
        with self._lock:
            self._series.clear()


def _escape(text: str) -> str:
    return (str(text).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_text(labels: dict, extra: tuple = ()) -> str:
    items = list(labels.items()) + list(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + inner + "}"


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Registry:
    """All metrics of one process, plus collect-time sampling hooks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        #: Named sampling hooks run by :meth:`collect` — how layers
        #: with their own deterministic counters (the engine) feed the
        #: registry without hot-path writes.
        self._collectors: dict[str, object] = {}

    # -- declaration ----------------------------------------------------
    def _declare(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help_text,
                                                   **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already declared as "
                    f"{metric.kind}, not {cls.kind}")
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._declare(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._declare(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple = LATENCY_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help_text,
                             buckets=buckets)

    def add_collector(self, name: str, fn) -> None:
        """Register (or replace) a collect-time sampling hook.

        ``fn(registry)`` runs inside :meth:`collect`; replace-by-name
        keeps re-created holders (a test's second ``ReproApp``) from
        stacking stale hooks."""
        with self._lock:
            self._collectors[name] = fn

    def remove_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    # -- collection + exposition ----------------------------------------
    def collect(self) -> list[_Metric]:
        with self._lock:
            collectors = list(self._collectors.values())
        for fn in collectors:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - observability never kills
                pass
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for metric in self.collect():
            if metric.help:
                lines.append(f"# HELP {metric.name} "
                             f"{_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, counts, count, total in metric.series():
                    for bound, n in zip(metric.buckets, counts):
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_label_text(labels, (('le', repr(float(bound))),))}"
                            f" {_num(n)}")
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_label_text(labels, (('le', '+Inf'),))}"
                        f" {_num(count)}")
                    lines.append(f"{metric.name}_sum"
                                 f"{_label_text(labels)} {total!r}")
                    lines.append(f"{metric.name}_count"
                                 f"{_label_text(labels)} {_num(count)}")
            else:
                for labels, value in metric.samples():
                    lines.append(f"{metric.name}{_label_text(labels)} "
                                 f"{_num(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self, prefix: str | None = None) -> dict:
        """JSON-safe ``{name: {type, help, samples: [...]}}`` document
        (``repro stats --json``, fleet-status aggregation, tests)."""
        doc: dict = {}
        for metric in self.collect():
            if prefix is not None and not metric.name.startswith(prefix):
                continue
            samples = [{"labels": labels, "value": value}
                       for labels, value in metric.samples()]
            doc[metric.name] = {"type": metric.kind,
                                "help": metric.help,
                                "samples": samples}
        return doc

    def get_value(self, name: str, **labels) -> float:
        """Raw current value (no collector pass — cheap enough for a
        per-trial progress line)."""
        with self._lock:
            metric = self._metrics.get(name)
        return 0.0 if metric is None else metric.value(**labels)

    def reset(self) -> None:
        """Zero every metric and re-baseline delta collectors (tests)."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors.values())
        for metric in metrics:
            metric._zero()
        for fn in collectors:
            rebase = getattr(fn, "rebase", None)
            if rebase is not None:
                try:
                    rebase()
                except Exception:  # noqa: BLE001
                    pass


#: The process-wide registry every instrumented layer writes to.
REGISTRY = Registry()


# ----------------------------------------------------------------------
# Engine + fast-forward sampling (the hot layers are never instrumented
# per event; their own deterministic counters are sampled here)
# ----------------------------------------------------------------------
class _DeltaCollector:
    """Turn a monotonically growing source dict into registry counters
    by sampling deltas at collect time."""

    def __init__(self, source, mapping: dict[str, tuple[str, str]]) -> None:
        self._source = source  # () -> dict[str, number]
        self._mapping = mapping  # source key -> (metric name, help)
        self._last: dict[str, float] = {}

    def rebase(self) -> None:
        try:
            self._last = dict(self._source())
        except Exception:  # noqa: BLE001 - source not importable yet
            self._last = {}

    def __call__(self, registry: Registry) -> None:
        current = self._source()
        for key, (name, help_text) in self._mapping.items():
            value = current.get(key, 0)
            delta = value - self._last.get(key, 0)
            if delta > 0:
                registry.counter(name, help_text).inc(delta)
            self._last[key] = value


def _engine_source() -> dict:
    from repro.sim import engine

    return engine.global_counters()


REGISTRY.add_collector("engine", _DeltaCollector(_engine_source, {
    "events_run": ("repro_engine_events_run_total",
                   "Engine event callbacks executed (all simulators, "
                   "absorbed from workers on sharded sweeps)"),
    "events_elided": ("repro_engine_events_elided_total",
                      "Scheduler wakes resolved inline by fast-forward "
                      "wake elision instead of dispatched"),
}))


def sweep_live() -> tuple[int, int]:
    """(active workers, requeues) of the sweep currently running — the
    TTY progress line's data source.  Gauge reads only; no collector
    pass, no locks beyond the per-metric one."""
    workers = REGISTRY.get_value("repro_dist_workers_active")
    requeues = REGISTRY.get_value("repro_sweep_requeues")
    return int(workers), int(requeues)


def now() -> float:
    """Wall-clock seconds (one seam for tests to monkeypatch)."""
    return time.time()
