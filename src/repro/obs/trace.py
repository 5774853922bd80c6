"""Trial-lifecycle tracing: NDJSON events + Chrome trace export.

A traced sweep records one event per lifecycle transition::

    {"t": <wall s>, "ev": "queued",     "trial": "s1:4", "key": "ab12..."}
    {"t": ...,      "ev": "cached",     "trial": "s1:2"}
    {"t": ...,      "ev": "dispatched", "trial": "s1:4", "worker": "shard1:pid7",
     "attempt": 1}
    {"t": ...,      "ev": "running",    "trial": "s1:4", "worker": ...,
     "attempt": 1, "start": <wall s>, "end": <wall s>}
    {"t": ...,      "ev": "requeued",   "trial": "s1:4", "worker": ...,
     "attempt": 1, "why": "died (...)"}
    {"t": ...,      "ev": "completed",  "trial": "s1:4"}

``queued``/``cached``/``completed`` come from
:func:`repro.exp.runner.map_trials`; ``dispatched``/``requeued`` from
the shards coordinator; ``running`` is the worker-side execution span,
shipped home in the result frame (``"span": [start, end]`` — wall
clock, measured around the trial function inside the worker) and
stitched to the coordinator's trial id here.  A crash-requeued trial
therefore shows *two* dispatched/running attempts under one trial id.

Trial ids are ``<sweep>:<point-index>`` with a process-unique sweep
counter; the content-address ``trial_key`` (when the function is
addressable) rides along on the ``queued`` event so traces can be
joined against the result cache.

Tracing records wall-clock timestamps only and never touches simulated
state, RNG, or scheduling — a traced sweep is bit-identical to an
untraced one (``repro diffcheck`` holds with ``REPRO_TRACE`` set).

Enable with :func:`start` or by pointing the ``REPRO_TRACE``
environment variable at an output path before process start::

    REPRO_TRACE=t.ndjson python -m repro run fig4 --backend shards
    python -m repro trace summary t.ndjson

Only the coordinator traces: spawned shards workers start without
``REPRO_TRACE``, since their run spans ride home in the result
frames.  Events stream to the NDJSON sink as they happen (a
crashed sweep keeps its partial trace) and are kept in memory for
:func:`chrome_trace` / :func:`summarize`.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

#: Point this at a file path to trace every sweep in the process.
TRACE_ENV = "REPRO_TRACE"

_lock = threading.Lock()
_active = False
_events: list[dict] = []
_sink = None  # open text file, line-per-event
_sweep_counter = 0
_tl = threading.local()


def active() -> bool:
    """Whether trace events are being recorded."""
    return _active


def start(path: str | os.PathLike | None = None) -> None:
    """Begin recording (optionally streaming NDJSON to ``path``).

    Restarting replaces the in-memory buffer and sink."""
    global _active, _sink
    with _lock:
        if _sink is not None:
            try:
                _sink.close()
            except OSError:  # pragma: no cover
                pass
        _events.clear()
        _sink = open(path, "w", encoding="utf-8") if path else None
        _active = True


def stop() -> list[dict]:
    """Stop recording; returns (and keeps) the buffered events."""
    global _active, _sink
    with _lock:
        _active = False
        if _sink is not None:
            try:
                _sink.close()
            except OSError:  # pragma: no cover
                pass
            _sink = None
        return list(_events)


def events() -> list[dict]:
    """The buffered events so far (copy)."""
    with _lock:
        return list(_events)


def emit(ev: str, trial: str | None, **fields) -> None:
    """Record one lifecycle event (no-op unless tracing is active)."""
    if not _active:
        return
    doc = {"t": time.time(), "ev": ev}
    if trial is not None:
        doc["trial"] = trial
    doc.update({k: v for k, v in fields.items() if v is not None})
    with _lock:
        if not _active:  # raced a stop()
            return
        _events.append(doc)
        if _sink is not None:
            try:
                _sink.write(json.dumps(doc, sort_keys=True) + "\n")
                _sink.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# Sweep labeling: the coordinator sees backend-local indices; the sweep
# owner (map_trials) installs the mapping to global trial ids.
# ----------------------------------------------------------------------
def new_sweep_id() -> str:
    """A process-unique sweep id (``s1``, ``s2``, ...)."""
    global _sweep_counter
    with _lock:
        _sweep_counter += 1
        return f"s{_sweep_counter}"


@contextlib.contextmanager
def sweep_scope(label_fn):
    """Install ``label_fn(backend_index) -> trial id`` for the current
    thread while a backend runs one sweep (the shards coordinator runs
    synchronously in the caller's thread)."""
    previous = getattr(_tl, "label_fn", None)
    _tl.label_fn = label_fn
    try:
        yield
    finally:
        _tl.label_fn = previous


def trial_label(index: int) -> str:
    """Trial id of one backend-local index under the installed scope
    (falls back to a bare ``?:<index>`` for direct backend use)."""
    fn = getattr(_tl, "label_fn", None)
    if fn is None:
        return f"?:{index}"
    try:
        return fn(index)
    except Exception:  # noqa: BLE001 - labeling must never kill a sweep
        return f"?:{index}"


# ----------------------------------------------------------------------
# Analysis: per-trial lifecycle reconstruction
# ----------------------------------------------------------------------
def lifecycles(trace_events: list[dict]) -> dict[str, dict]:
    """Group events by trial id, in time order.

    Returns ``{trial: {"events": [...], "attempts": n, "requeues": n,
    "outcome": "completed"|"cached"|None, "queued_t": t|None,
    "done_t": t|None, "run_s": total worker-span seconds}}``.
    """
    out: dict[str, dict] = {}
    for doc in sorted(trace_events, key=lambda d: d.get("t", 0.0)):
        trial = doc.get("trial")
        if trial is None:
            continue
        entry = out.setdefault(trial, {
            "events": [], "attempts": 0, "requeues": 0,
            "outcome": None, "queued_t": None, "done_t": None,
            "run_s": 0.0})
        entry["events"].append(doc)
        ev = doc.get("ev")
        if ev == "queued":
            entry["queued_t"] = doc.get("t")
        elif ev == "dispatched":
            entry["attempts"] += 1
        elif ev == "requeued":
            entry["requeues"] += 1
        elif ev == "running":
            start_t, end_t = doc.get("start"), doc.get("end")
            if isinstance(start_t, (int, float)) and isinstance(
                    end_t, (int, float)):
                entry["run_s"] += max(0.0, end_t - start_t)
        elif ev in ("completed", "cached"):
            entry["outcome"] = ev
            entry["done_t"] = doc.get("t")
    return out


def summarize(trace_events: list[dict]) -> dict:
    """Aggregate sweep summary of one trace (``repro trace summary``)."""
    trials = lifecycles(trace_events)
    completed = sum(1 for v in trials.values()
                    if v["outcome"] == "completed")
    cached = sum(1 for v in trials.values() if v["outcome"] == "cached")
    requeued = {k: v for k, v in trials.items() if v["requeues"]}
    waits = [v["done_t"] - v["queued_t"] for v in trials.values()
             if v["queued_t"] is not None and v["done_t"] is not None]
    workers = sorted({doc.get("worker") for v in trials.values()
                      for doc in v["events"]
                      if doc.get("worker") is not None})
    span = [doc.get("t") for doc in trace_events
            if isinstance(doc.get("t"), (int, float))]
    return {
        "events": len(trace_events),
        "trials": len(trials),
        "completed": completed,
        "cached": cached,
        "requeues": sum(v["requeues"] for v in trials.values()),
        "requeued_trials": {k: v["requeues"] for k, v in
                            sorted(requeued.items())},
        "max_attempts": max((v["attempts"] for v in trials.values()),
                            default=0),
        "workers": workers,
        "wall_s": (max(span) - min(span)) if span else 0.0,
        "queued_to_done_s": {
            "min": round(min(waits), 6) if waits else None,
            "max": round(max(waits), 6) if waits else None,
            "mean": round(sum(waits) / len(waits), 6) if waits else None,
        },
        "worker_run_s": round(sum(v["run_s"] for v in trials.values()),
                              6),
    }


# ----------------------------------------------------------------------
# Chrome trace-event export (about://tracing / Perfetto)
# ----------------------------------------------------------------------
def chrome_trace(trace_events: list[dict]) -> dict:
    """Convert a trace to the Chrome trace-event JSON format.

    Layout: pid 1 ("workers") holds one thread per worker with the
    shipped execution spans (a crash-requeued trial shows one span per
    attempt, on whichever workers ran it); pid 2 ("trials") holds one
    thread per trial spanning queued -> completed/cached, with
    dispatch/requeue instants overlaid.  Timestamps are microseconds
    relative to the first event, so the sweep opens zoomed to its own
    extent.
    """
    trials = lifecycles(trace_events)
    times = [doc.get("t") for doc in trace_events
             if isinstance(doc.get("t"), (int, float))]
    t0 = min(times) if times else 0.0

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    out: list[dict] = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "workers"}},
        {"ph": "M", "pid": 2, "name": "process_name",
         "args": {"name": "trials"}},
    ]
    worker_tids: dict[str, int] = {}
    for trial, entry in sorted(trials.items()):
        for doc in entry["events"]:
            worker = doc.get("worker")
            if worker is not None and worker not in worker_tids:
                tid = len(worker_tids) + 1
                worker_tids[worker] = tid
                out.append({"ph": "M", "pid": 1, "tid": tid,
                            "name": "thread_name",
                            "args": {"name": worker}})

    for tid, (trial, entry) in enumerate(sorted(trials.items()),
                                         start=1):
        out.append({"ph": "M", "pid": 2, "tid": tid,
                    "name": "thread_name", "args": {"name": trial}})
        start_t = entry["queued_t"]
        end_t = entry["done_t"]
        if start_t is not None and end_t is not None:
            out.append({
                "name": f"{trial} [{entry['outcome']}]",
                "cat": "lifecycle", "ph": "X", "pid": 2, "tid": tid,
                "ts": us(start_t), "dur": max(
                    0.001, us(end_t) - us(start_t)),
                "args": {"attempts": entry["attempts"],
                         "requeues": entry["requeues"],
                         "outcome": entry["outcome"]}})
        attempt_no = 0
        for doc in entry["events"]:
            ev = doc.get("ev")
            if ev == "running":
                attempt_no += 1
                worker = doc.get("worker")
                out.append({
                    "name": f"run {trial} (attempt "
                            f"{doc.get('attempt', attempt_no)})",
                    "cat": "run", "ph": "X", "pid": 1,
                    "tid": worker_tids.get(worker, 0),
                    "ts": us(doc.get("start", doc["t"])),
                    "dur": max(0.001,
                               us(doc.get("end", doc["t"]))
                               - us(doc.get("start", doc["t"]))),
                    "args": {"trial": trial, "worker": worker}})
            elif ev in ("dispatched", "requeued", "cached"):
                out.append({
                    "name": f"{ev} {trial}", "cat": ev, "ph": "i",
                    "s": "t", "pid": 2, "tid": tid,
                    "ts": us(doc["t"]),
                    "args": {k: v for k, v in doc.items()
                             if k not in ("t", "ev", "trial")}})
    return {"traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro trace export",
                          "trials": len(trials)}}


def load_ndjson(path: str | os.PathLike) -> list[dict]:
    """Read a recorded NDJSON trace file back into event dicts."""
    out: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated tail of a crashed sweep
            if isinstance(doc, dict):
                out.append(doc)
    return out


# Honor the environment switch at import: any entry point (including
# diffcheck and plain `repro run`) traces when REPRO_TRACE names a file.
_env_path = os.environ.get(TRACE_ENV, "").strip()
if _env_path:
    try:
        start(_env_path)
    except OSError:  # unwritable path: tracing silently stays off
        pass
