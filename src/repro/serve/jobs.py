"""Job queue of the serve subsystem: cache misses become jobs.

A *job* is one cache-missing experiment or scenario submission.  Jobs
run **one at a time** on a dedicated runner thread -- each job then
fans its trials out over the configured :mod:`repro.dist` backend
(``--workers`` wide), so the server's concurrency story is the
backend's, and the shards coordinator (which is not reentrant) is
never entered from two jobs at once.

Identical in-flight submissions deduplicate on the result-cache key:
POSTing the same spec twice while the first run is queued or running
returns the *same* job id instead of computing the result twice.  Once
a job lands, its result is in the result cache, so later submissions
take the instant cache-hit path and never reach this module.

Per-trial progress reuses the coordinator's existing callback channel
(:func:`repro.exp.runner.map_trials` invokes ``progress(done, total,
cache_hits)`` as trials land): the runner thread installs a callback
via the thread-local :func:`repro.dist.execution` context, records
each tick as an event, and fans events out to any number of
subscribed async streams (``GET /v1/jobs/{id}/events``).
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
import uuid

from repro.dist import execution, gc_paused
from repro.obs.metrics import REGISTRY as _METRICS

_SSE_SUBSCRIBERS = _METRICS.gauge(
    "repro_serve_sse_subscribers",
    "Live job event streams (SSE/NDJSON) currently subscribed")
_JOBS_SUBMITTED = _METRICS.counter(
    "repro_serve_jobs_submitted_total",
    "Jobs accepted by the queue (deduplicated submissions not counted)")
_JOBS_FINISHED = _METRICS.counter(
    "repro_serve_jobs_finished_total", "Jobs that reached done/failed")

#: Completed jobs kept around for /v1/jobs introspection.
HISTORY_LIMIT = 256

_SHUTDOWN = object()


class Job:
    """One queued/running/finished unit of server-side work."""

    def __init__(self, kind: str, name: str, key: str, work) -> None:
        self.id = uuid.uuid4().hex[:12]
        self.kind = kind
        self.name = name
        self.key = key
        self.work = work  # work(progress) -> ExperimentRun
        self.state = "queued"
        # Wall timestamps are for display only; elapsed time is
        # measured on the monotonic clock so an NTP step or DST jump
        # mid-job cannot corrupt (or negate) reported durations.
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.duration_s: float | None = None
        self._mono_created = time.monotonic()
        self._mono_started: float | None = None
        self.progress: dict = {}
        self.error: str | None = None
        self.checksum: str | None = None
        self.trials = 0
        self.elapsed_s: float | None = None
        self._lock = threading.Lock()
        self._events: list[dict] = []
        #: (asyncio loop, asyncio.Queue) per subscribed event stream.
        self._subscribers: list[tuple] = []
        self._emit("queued", {})

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_doc(self) -> dict:
        with self._lock:
            return {
                "job": self.id,
                "kind": self.kind,
                "name": self.name,
                "key": self.key,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "duration_s": self.duration_s,
                "progress": dict(self.progress),
                "trials": self.trials,
                "elapsed_s": self.elapsed_s,
                "error": self.error,
                "checksum": self.checksum,
            }

    # ------------------------------------------------------------------
    # Event fan-out
    # ------------------------------------------------------------------
    def _emit(self, event: str, payload: dict) -> None:
        doc = {"event": event, "job": getattr(self, "id", None),
               "t": time.time(), **payload}
        with self._lock:
            self._events.append(doc)
            subscribers = list(self._subscribers)
        for loop, q in subscribers:
            try:
                loop.call_soon_threadsafe(q.put_nowait, doc)
            except RuntimeError:  # pragma: no cover - loop closed
                pass

    def subscribe(self) -> "asyncio.Queue":
        """Register an event stream: the returned queue replays the
        full history, then receives live events (call from the loop)."""
        loop = asyncio.get_running_loop()
        q: asyncio.Queue = asyncio.Queue()
        with self._lock:
            for doc in self._events:
                q.put_nowait(doc)
            if not self.terminal:
                self._subscribers.append((loop, q))
                _SSE_SUBSCRIBERS.inc()
        return q

    def unsubscribe(self, q) -> None:
        with self._lock:
            before = len(self._subscribers)
            self._subscribers = [(lp, sq) for lp, sq in self._subscribers
                                 if sq is not q]
            removed = before - len(self._subscribers)
        if removed:
            _SSE_SUBSCRIBERS.dec(removed)

    # ------------------------------------------------------------------
    # State transitions (runner thread)
    # ------------------------------------------------------------------
    def _set_running(self) -> None:
        with self._lock:
            self.state = "running"
            self.started = time.time()
            self._mono_started = time.monotonic()
        self._emit("running", {})

    def _elapsed(self) -> float:
        """Monotonic seconds since the job started running (queue wait
        included when it never started); caller holds the lock."""
        base = (self._mono_started if self._mono_started is not None
                else self._mono_created)
        return max(0.0, time.monotonic() - base)

    def _tick(self, done: int, total: int, cache_hits: int) -> None:
        payload = {"done": done, "total": total, "cache_hits": cache_hits}
        with self._lock:
            self.progress = payload
        self._emit("progress", payload)

    def _finish(self, run, checksum: str) -> None:
        with self._lock:
            self.state = "done"
            self.finished = time.time()
            self.duration_s = self._elapsed()
            self.checksum = checksum
            self.trials = run.trials
            self.elapsed_s = run.elapsed_s
        _JOBS_FINISHED.inc(state="done")
        self._emit("done", {"key": self.key, "checksum": checksum,
                            "trials": run.trials,
                            "elapsed_s": run.elapsed_s,
                            "duration_s": self.duration_s})

    def _fail(self, message: str) -> None:
        with self._lock:
            self.state = "failed"
            self.finished = time.time()
            self.duration_s = self._elapsed()
            self.error = message
        _JOBS_FINISHED.inc(state="failed")
        self._emit("failed", {"error": message,
                              "duration_s": self.duration_s})


class JobManager:
    """Submit/dedup/execute jobs on one background runner thread."""

    def __init__(self, *, cache, backend: str | None = None) -> None:
        self.cache = cache
        self.backend = backend
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # key -> queued/running job
        self._queue: "queue.Queue" = queue.Queue()
        self._stopping = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def submit(self, kind: str, name: str, key: str,
               work) -> tuple[Job, bool]:
        """Queue ``work`` under ``key``; dedups in-flight submissions.

        Returns ``(job, created)`` -- ``created`` is False when an
        identical submission was already queued or running, in which
        case the existing job is returned.
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError("server is shutting down")
            existing = self._inflight.get(key)
            if existing is not None and not existing.terminal:
                return existing, False
            job = Job(kind, name, key, work)
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._prune_history()
            self._ensure_thread()
        _JOBS_SUBMITTED.inc()
        self._queue.put(job)
        return job, True

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created)

    def counts(self) -> dict:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def _prune_history(self) -> None:
        """Drop the oldest *terminal* jobs beyond the history limit
        (in-flight jobs are never dropped); caller holds the lock."""
        if len(self._jobs) <= HISTORY_LIMIT:
            return
        terminal = sorted((j for j in self._jobs.values() if j.terminal),
                          key=lambda j: j.created)
        for job in terminal[:len(self._jobs) - HISTORY_LIMIT]:
            self._jobs.pop(job.id, None)

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run_loop, daemon=True, name="repro-serve-jobs")
            self._thread.start()

    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SHUTDOWN:
                break
            if self._stopping:
                job._fail("server shut down before the job ran")
                self._clear_inflight(job)
                continue
            self._run_one(job)

    def _clear_inflight(self, job: Job) -> None:
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def _run_one(self, job: Job) -> None:
        from repro.exp.cache import canonical_checksum

        job._set_running()
        try:
            # The execution context is thread-local, so the ambient
            # backend/cache/progress here never leak into (or inherit
            # from) whatever the main thread is doing.
            with execution(backend=self.backend, trial_cache=self.cache,
                           progress=job._tick), gc_paused():
                run = job.work(job._tick)
            job._finish(run, canonical_checksum(run.value))
        except BaseException as exc:  # noqa: BLE001 - job must not kill us
            job._fail(f"{type(exc).__name__}: {exc}")
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
        finally:
            self._clear_inflight(job)

    # ------------------------------------------------------------------
    def shutdown(self, drain_s: float = 10.0) -> bool:
        """Stop accepting work and wait up to ``drain_s`` for the
        running job to land.  Returns True when fully drained; a job
        still in flight after the grace keeps streaming into the
        result cache until the process exits (the runner thread is a
        daemon), so a resubmission resumes instead of restarting."""
        with self._lock:
            self._stopping = True
            thread = self._thread
        self._queue.put(_SHUTDOWN)
        if thread is not None and thread.is_alive():
            thread.join(timeout=drain_s)
            return not thread.is_alive()
        return True
