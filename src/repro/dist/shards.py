"""Shards backend: a coordinator over long-lived worker daemons.

``get_backend("shards")`` owns a fleet of ``python -m repro worker``
subprocesses (spawned lazily, reused across every sweep in the
process, shut down atexit) and schedules each sweep over them:

* **dispatch** — a job queue of point indices; idle workers pull the
  first compatible job.  Seeds were derived per point index *before*
  dispatch (:func:`repro.exp.runner.derive_seed`), so nothing about
  which worker runs a point — or in what order results land — can
  change the simulation.
* **pipelining** — each worker holds up to :data:`PREFETCH` task
  frames (one running, the rest queued in its stdin pipe, written as
  one batched frame block).  The worker starts its next trial straight
  off the pipe instead of idling through the coordinator's result
  turnaround, which is most of the warm per-trial dispatch cost.
  Crash/timeout blame lands on the *running* (head) task only: queued
  mates are requeued silently at the front of the job queue, with no
  retry charged.
* **crash detection** — a worker whose pipe hits EOF (or whose process
  exits) while a trial is in flight gets that point requeued, with the
  dead worker's id excluded so a respawned sibling takes it.  Retries
  are bounded (:data:`MAX_RETRIES`): a point that keeps killing
  workers raises :class:`ShardError` instead of looping forever.
* **per-trial timeout** — ``REPRO_SHARD_TIMEOUT`` seconds (float,
  unset/0 disables); an overdue worker is killed and handled exactly
  like a crash.
* **result streaming** — completions invoke ``on_result`` as they
  land, which is how :func:`~repro.exp.runner.map_trials` feeds the
  content-addressed result cache trial by trial (a killed sweep
  resumes from cache instead of restarting).
* **trial errors** — a Python exception inside a trial is not a crash:
  the worker ships it back and survives; the coordinator re-raises it
  (original type when picklable) and never retries, matching the pool
  and serial backends.

Workers inherit this process's ``sys.path`` via ``PYTHONPATH`` so the
fleet can execute any trial function the coordinator can import — the
local-machine analogue of shipping the code tree to a remote fleet.

**Transports.**  Every worker is one :class:`Shard`: a reader and a
writer text file, a kill hook, and how a death reads.
:func:`spawn_shard` builds one over the stdio pipes of a locally
spawned ``repro worker`` (the default, and the reference semantics);
:class:`~repro.dist.net.FleetServer` builds one over the socket of a
worker that dialed in with ``repro worker --connect``.  Both ride the
same job queue, pipelining, crash-requeue, timeout, and retry
machinery; the listener is enabled by the ``REPRO_FLEET_LISTEN`` (+
mandatory ``REPRO_FLEET_SECRET``) environment variables, and
``REPRO_FLEET_SPAWN_LOCAL=0`` runs a remote-only fleet (the
coordinator then waits up to ``REPRO_FLEET_WAIT`` seconds for the
first worker to dial in).

**The handshake.**  No shard receives a single task frame until its
``hello`` has been validated (:func:`repro.dist.protocol.
validate_hello`): matching protocol version and matching source-tree
fingerprint, plus an HMAC shared-secret proof on TCP.  A mismatched
*remote* worker is refused at the listener with a diagnostic naming
the mismatch; a mismatched *locally spawned* worker is a broken
deployment (the coordinator's own spawn disagrees with its own source
tree), so the sweep fails loudly with :class:`~repro.dist.protocol.
HandshakeError` instead of silently simulating divergent physics.
"""

from __future__ import annotations

import itertools
import os
import queue
import subprocess
import sys
import threading
import time
import warnings
from collections import deque
from typing import Sequence

from repro.dist.base import (
    Backend,
    BackendError,
    BackendUnavailable,
    IN_WORKER_ENV,
)
from repro.dist.protocol import (
    HandshakeError,
    close_quietly,
    dump_frame,
    decode_value,
    fn_ref,
    parse_frame,
    raise_remote,
    task_frame,
    validate_hello,
)
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS

# Coordinator telemetry (process totals; repro_sweep_* gauges reset at
# the start of each run() so they describe the current sweep only).
_DISPATCHED = _METRICS.counter(
    "repro_dist_tasks_dispatched_total",
    "Task frames handed to workers (requeued attempts re-count)")
_REQUEUES = _METRICS.counter(
    "repro_dist_requeues_total",
    "Head tasks requeued after a worker crash or timeout kill")
_CRASHES = _METRICS.counter(
    "repro_dist_crashes_total",
    "Workers that died with tasks in flight")
_TIMEOUTS = _METRICS.counter(
    "repro_dist_timeouts_total",
    "Workers killed for exceeding the per-trial timeout")
_WORKER_TRIALS = _METRICS.counter(
    "repro_dist_worker_trials_total", "Trials completed, per worker")
_ROUNDTRIP = _METRICS.histogram(
    "repro_dist_task_roundtrip_seconds",
    "Dispatch-to-result wall latency per task (includes pipeline "
    "queueing inside the worker)")
_QUEUE_DEPTH = _METRICS.gauge(
    "repro_dist_queue_depth",
    "Trials of the current sweep not yet handed to a worker")
_WORKERS_ACTIVE = _METRICS.gauge(
    "repro_dist_workers_active", "Workers with tasks in flight")
_SWEEP_GAUGES = {
    key: _METRICS.gauge(f"repro_sweep_{key}",
                        f"Current sweep: {help_text}")
    for key, help_text in (
        ("requeues", "crash/timeout requeues"),
        ("crashes", "worker crashes"),
        ("timeouts", "per-trial timeout kills"),
        ("workers_used", "distinct workers that ran a trial"),
    )}
# Wire telemetry of both transports, labelled transport="stdio"|"tcp".
_DISCONNECTS = _METRICS.counter(
    "repro_fleet_disconnects_total",
    "Worker links that ended (EOF, kill, or drop)")
_FRAMES_RX = _METRICS.counter(
    "repro_fleet_frames_received_total", "Frames read from workers")
_FRAMES_TX = _METRICS.counter(
    "repro_fleet_frames_sent_total", "Frames written to workers")
_BYTES_RX = _METRICS.counter(
    "repro_fleet_bytes_received_total",
    "Protocol bytes read from workers")
_BYTES_TX = _METRICS.counter(
    "repro_fleet_bytes_sent_total",
    "Protocol bytes written to workers")

#: Per-trial wall-clock budget in seconds (float; unset/0 disables).
TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"

#: ``HOST:PORT`` (or bare port) to accept remote workers on; unset
#: keeps the fleet local-only.  Requires :data:`SECRET_ENV`.
LISTEN_ENV = "REPRO_FLEET_LISTEN"

#: Shared secret remote workers must prove knowledge of (HMAC over the
#: challenge nonce; the secret itself never crosses the wire).
SECRET_ENV = "REPRO_FLEET_SECRET"

#: ``0``/``false`` forbids spawning local workers — a remote-only
#: fleet; the coordinator waits for workers to dial in instead.
SPAWN_LOCAL_ENV = "REPRO_FLEET_SPAWN_LOCAL"

#: Seconds a remote-only sweep waits starved (jobs pending, no usable
#: worker) for a remote worker to join before giving up.
WAIT_ENV = "REPRO_FLEET_WAIT"

#: How many times one point may crash a worker before the sweep fails.
MAX_RETRIES = 2

#: Consecutive worker deaths *before* a validated hello that abort the
#: sweep (a worker dying pre-handshake completed no work, so the
#: crash-retry budget never engages — without this bound a broken
#: spawn environment would respawn forever).
MAX_HANDSHAKE_DEATHS = 3

#: Task frames a worker may hold at once (one running plus frames
#: queued in its pipe).  Depth 2 fully hides the coordinator's
#: turnaround latency behind trial execution; deeper queues only delay
#: crash requeues and skew the tail of the sweep.
PREFETCH = 2

#: Seconds a shutting-down worker gets to close its end before it is
#: killed.
SHUTDOWN_GRACE = 2.0

_UNSET = object()


class ShardError(RuntimeError):
    """A point exhausted its crash-retry budget."""


class Shard:
    """One worker's handle, whatever carries its frames.

    A transport passes in only what differs: the reader and writer text
    files, ``kill`` (SIGKILL and ``wait`` for a spawned worker,
    ``shutdown`` plus ``close`` for a socket) and ``death``, how a dead
    worker reads in diagnostics.  The shard owns the rest: a reader
    thread that posts ``("frame", shard, frame)`` and ``("eof", shard,
    None)`` events, writes under one lock, and closing what it holds on
    every way out.  At EOF the reader closes its file and calls
    :meth:`kill`; :meth:`kill` closes the writer.
    """

    def __init__(self, outq: queue.Queue, rfile, wfile, kill, death, *,
                 transport: str, shard_id: str, pid: object,
                 addr: str | None = None) -> None:
        self.id = shard_id
        #: ``"stdio"`` or ``"tcp"``: the wire counters' label.
        self.transport = transport
        self.remote = transport != "stdio"
        self.pid = pid
        self.addr = addr
        #: No EOF and no kill yet.
        self.alive = True
        #: Task frames in this worker's hands (spans run() calls: a
        #: sweep aborted by a trial error can leave a worker finishing
        #: stale tasks; the count drains as their frames arrive).
        self.depth = 0
        #: Trials completed over this worker's lifetime (telemetry).
        self.trials_done = 0
        #: No dispatch until the hello handshake validates (version +
        #: source fingerprint must match the coordinator's).
        self.ready = False
        self.version: object = None
        self.fingerprint: object = None
        self._rfile = rfile
        self._wfile = wfile
        self._kill = kill
        self._death = death
        self._lock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read_loop, args=(outq,), daemon=True,
            name=f"repro-{self.id}-reader")
        self._reader.start()

    def _read_loop(self, outq: queue.Queue) -> None:
        try:
            for line in self._rfile:
                _BYTES_RX.inc(len(line), transport=self.transport)
                frame = parse_frame(line)
                if frame is not None:
                    _FRAMES_RX.inc(transport=self.transport)
                    outq.put(("frame", self, frame))
        except (OSError, ValueError):  # pragma: no cover - teardown race
            pass
        close_quietly(self._rfile)
        self.kill()
        _DISCONNECTS.inc(transport=self.transport)
        outq.put(("eof", self, None))

    def accept(self, hello: dict) -> None:
        """Record a validated hello: the worker may take tasks."""
        self.version = hello.get("version")
        self.fingerprint = hello.get("fingerprint")
        self.ready = True

    def send_many(self, frames: list[dict]) -> bool:
        """Write a batch of frames as one block with a single flush."""
        try:
            block = "".join(map(dump_frame, frames))
            with self._lock:
                self._wfile.write(block)
                self._wfile.flush()
        except (OSError, ValueError):
            return False
        _FRAMES_TX.inc(len(frames), transport=self.transport)
        _BYTES_TX.inc(len(block), transport=self.transport)
        return True

    def kill(self) -> None:
        """End the worker now (idempotent): the transport's kill first,
        which unblocks any write in progress, then close the writer."""
        self.alive = False
        try:
            self._kill()
        except OSError:  # pragma: no cover - already gone
            pass
        with self._lock:
            close_quietly(self._wfile)

    def death_detail(self) -> str:
        return self._death()

    def shutdown(self) -> None:
        """Ask the worker to exit, give it :data:`SHUTDOWN_GRACE`
        seconds to close its end, then kill it."""
        if self.alive:
            self.send_many([{"op": "shutdown"}])
            self._reader.join(SHUTDOWN_GRACE)
        self.kill()
        self._reader.join(SHUTDOWN_GRACE)


_SPAWNED = itertools.count(1)


def spawn_shard(outq: queue.Queue) -> Shard:
    """Start one local ``repro worker`` over stdio pipes."""
    env = dict(os.environ)
    env[IN_WORKER_ENV] = "1"
    # A worker ships its run span home in the result frame; a trace of
    # its own would reopen, and truncate, the coordinator's trace file.
    env.pop(_trace.TRACE_ENV, None)
    # Ship the coordinator's import universe: PYTHONPATH covers the
    # repro checkout and anything else (e.g. a test directory) the
    # parent could import trial functions from.
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=None,
        env=env, text=True, encoding="utf-8", bufsize=1)

    def reap() -> None:
        proc.kill()
        proc.wait()

    return Shard(outq, proc.stdout, proc.stdin, reap,
                 lambda: f"exit {proc.returncode!r}", transport="stdio",
                 shard_id=f"shard{next(_SPAWNED)}:pid{proc.pid}",
                 pid=proc.pid)


def _truthy(text: str | None, default: bool) -> bool:
    if text is None or not text.strip():
        return default
    return text.strip().lower() not in ("0", "false", "no", "off")


class ShardsBackend(Backend):
    name = "shards"

    def __init__(self, *, listen: str | None = None,
                 secret: str | None = None,
                 spawn_local: bool | None = None,
                 join_wait: float | None = None) -> None:
        self._outq: queue.Queue = queue.Queue()
        self._fleet: list = []
        self._epoch = 0
        #: Coordinator statistics of the most recent run() (tests and
        #: curious operators; not part of the result contract).
        self.last_stats: dict = {}
        # Fleet (TCP) configuration; constructor arguments win over the
        # environment so tests can build private listening backends.
        listen = listen if listen is not None else os.environ.get(
            LISTEN_ENV, "").strip()
        self._secret = (secret if secret is not None
                        else os.environ.get(SECRET_ENV) or None)
        self._spawn_local = (spawn_local if spawn_local is not None
                             else _truthy(os.environ.get(SPAWN_LOCAL_ENV),
                                          True))
        self._join_wait = (join_wait if join_wait is not None else float(
            os.environ.get(WAIT_ENV, "") or 60.0))
        self.server = None
        if listen:
            from repro.dist.net import FleetServer, parse_hostport

            if not self._secret:
                raise BackendError(
                    f"{LISTEN_ENV} is set but no shared secret is: "
                    f"remote workers authenticate with an HMAC proof, "
                    f"so a listening fleet requires {SECRET_ENV}")
            host, port = parse_hostport(listen)
            try:
                self.server = FleetServer(
                    host, port, secret=self._secret,
                    fingerprint=self._expected_fingerprint(),
                    fleet=self._fleet, outq=self._outq,
                    metrics_source=_METRICS.snapshot)
            except OSError as exc:
                raise BackendError(
                    f"cannot listen on {listen!r}: {exc}") from exc
        elif not self._spawn_local:
            raise BackendError(
                f"{SPAWN_LOCAL_ENV}=0 without {LISTEN_ENV}: a fleet "
                "that neither spawns local workers nor accepts remote "
                "ones could never run a trial")

    @staticmethod
    def _expected_fingerprint() -> str:
        from repro.exp.cache import code_fingerprint

        return code_fingerprint()

    # -- fleet management ------------------------------------------------
    def _spawn_one(self) -> None:
        self._fleet.append(spawn_shard(self._outq))

    def _ensure_fleet(self, n: int) -> None:
        self._fleet[:] = [s for s in self._fleet if s.alive]
        if not self._spawn_local:
            return  # remote-only: workers dial in, we never spawn
        while sum(1 for s in self._fleet if s.alive) < n:
            self._spawn_one()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        fleet, self._fleet[:] = list(self._fleet), []
        for shard in fleet:
            shard.shutdown()

    # -- the sweep coordinator -------------------------------------------
    def run(self, fn, points: Sequence, seeds: Sequence, *,
            workers: int | None = None, on_result=None) -> list:
        n = len(points)
        if n == 0:
            return []
        ref = fn_ref(fn)
        if ref is None:
            raise BackendUnavailable(
                f"trial function {fn!r} is not addressable as "
                "module:qualname (lambdas and nested functions cannot "
                "be shipped to workers)")
        fleet_size = min(max(1, workers or min(os.cpu_count() or 1, 8)), n)
        try:
            self._ensure_fleet(fleet_size)
        except OSError as exc:
            raise BackendUnavailable(exc) from exc

        timeout = float(os.environ.get(TIMEOUT_ENV, "0") or 0) or None
        from repro.sim import fastforward

        ff = fastforward.forced_mode()
        self._epoch += 1
        epoch = self._epoch

        results: list = [_UNSET] * n
        pending: deque[int] = deque(range(n))
        attempts = [0] * n
        excluded: list[set[str]] = [set() for _ in range(n)]
        #: This sweep's task indices in each worker's hands, dispatch
        #: order (the worker runs them in order, so [0] is the running
        #: head).  Workers with no entries are absent.
        inflight: dict[Shard, deque[int]] = {}
        #: Armed head-of-line deadline per worker: the running head
        #: task's wall-clock budget.  Queued mates are not on the
        #: clock until they reach the head.
        deadlines: dict[Shard, float] = {}
        used: set[Shard] = set()
        stats = {"crashes": 0, "retries": 0, "timeouts": 0,
                 "workers_used": 0, "remote_workers_used": 0,
                 "worker_trials": {}}
        self.last_stats = stats
        completed = 0
        # Per-sweep telemetry baseline: the repro_sweep_* gauges
        # describe *this* run() only, so they reset here rather than
        # accumulate across sweeps (the repro_dist_* counters are the
        # process-lifetime totals).
        for gauge in _SWEEP_GAUGES.values():
            gauge.set(0)
        _QUEUE_DEPTH.set(n)
        _WORKERS_ACTIVE.set(0)
        #: Dispatch timestamps of in-flight tasks (monotonic), for the
        #: roundtrip histogram; dropped on requeue so a retried task
        #: times its final attempt only.
        send_ts: dict[int, float] = {}
        #: Consecutive deaths of never-validated workers (see
        #: MAX_HANDSHAKE_DEATHS); reset by any successful hello.
        handshake_deaths = 0
        #: When a remote-only fleet first found itself starved (jobs
        #: pending, nothing running, nobody to dispatch to).
        starved_at: float | None = None

        def requeue_from(shard: Shard, why: str) -> None:
            entries = inflight.pop(shard)
            deadlines.pop(shard, None)
            _WORKERS_ACTIVE.set(len(inflight))
            head = entries.popleft()
            # Queued mates never started: back to the front of the
            # queue, no blame, no retry charged.
            for mate in reversed(entries):
                pending.appendleft(mate)
                send_ts.pop(mate, None)
                if _trace.active():
                    _trace.emit("requeued", _trace.trial_label(mate),
                                worker=shard.id, attempt=attempts[mate],
                                why="mate")
            send_ts.pop(head, None)
            attempts[head] += 1
            excluded[head].add(shard.id)
            if attempts[head] > MAX_RETRIES:
                raise ShardError(
                    f"shards: point {head} {why} {attempts[head]} "
                    f"time(s) (last worker {shard.id}); giving up after "
                    f"{MAX_RETRIES} retries")
            stats["retries"] += 1
            _REQUEUES.inc()
            _SWEEP_GAUGES["requeues"].inc()
            if _trace.active():
                _trace.emit("requeued", _trace.trial_label(head),
                            worker=shard.id, attempt=attempts[head],
                            why=why)
            warnings.warn(
                f"shards: worker {shard.id} {why} on point {head}; "
                f"requeueing on another worker "
                f"(attempt {attempts[head] + 1}/{MAX_RETRIES + 1})",
                RuntimeWarning, stacklevel=4)
            pending.appendleft(head)
            _QUEUE_DEPTH.set(len(pending))

        while completed < n:
            # Fill every worker's pipeline with the first jobs it is
            # allowed to run, batching the frames into one write.  A
            # fleet kept alive by a wider earlier sweep may hold more
            # daemons than this sweep asked for; the cap keeps
            # --workers an honest concurrency bound.  Only validated
            # workers are dispatchable: a shard whose hello has not
            # cleared the version/fingerprint handshake gets nothing.
            # Workers this sweep already used come first, so a hello
            # validated mid-sweep cannot displace them.
            active = sorted((s for s in self._fleet if s.alive and s.ready),
                            key=lambda s: s not in used)[:fleet_size]
            for shard in active:
                if shard.depth >= PREFETCH or not pending:
                    continue
                was_idle = shard.depth == 0
                picked: list[int] = []
                frames: list[dict] = []
                while shard.depth + len(picked) < PREFETCH:
                    pick = next((i for i in pending
                                 if shard.id not in excluded[i]), None)
                    if pick is None:
                        break
                    pending.remove(pick)
                    picked.append(pick)
                    frames.append(
                        task_frame(f"{epoch}:{pick}", ref, points[pick],
                                   seeds[pick], ff))
                if not picked:
                    continue
                if not shard.send_many(frames):
                    # Write failure = the worker is gone; its EOF event
                    # will prune it.  The jobs never left the queue side.
                    for pick in reversed(picked):
                        pending.appendleft(pick)
                    shard.kill()
                    continue
                entries = inflight.get(shard)
                if entries is None:
                    entries = inflight[shard] = deque()
                entries.extend(picked)
                shard.depth += len(picked)
                sent_at = time.monotonic()
                for pick in picked:
                    send_ts[pick] = sent_at
                _DISPATCHED.inc(len(picked))
                _QUEUE_DEPTH.set(len(pending))
                _WORKERS_ACTIVE.set(len(inflight))
                if _trace.active():
                    for pick in picked:
                        _trace.emit("dispatched",
                                    _trace.trial_label(pick),
                                    worker=shard.id,
                                    attempt=attempts[pick] + 1)
                if shard not in used:
                    used.add(shard)
                    stats["workers_used"] = len(used)
                    stats["remote_workers_used"] += shard.remote
                    _SWEEP_GAUGES["workers_used"].set(len(used))
                if timeout and was_idle:
                    # The head starts immediately; mates queue behind
                    # it and get their deadline when they reach the
                    # head (a stale-busy worker arms on the stale
                    # task's completion frame instead).
                    deadlines[shard] = time.monotonic() + timeout

            # Liveness: jobs remain but nothing is running and no idle
            # worker may take them (all excluded, or the fleet died).
            # A fresh worker has a fresh id, so it can take anything.
            # A shard still awaiting its hello will become usable
            # without any action, so starvation only counts when no
            # handshake is in flight either.
            starving = False
            if pending and not inflight:
                stale_busy = any(s.depth and s.alive for s in self._fleet)
                awaiting_hello = any(s.alive and not s.ready
                                     for s in self._fleet)
                if not stale_busy and not awaiting_hello:
                    if self._spawn_local:
                        try:
                            self._spawn_one()
                        except OSError as exc:
                            raise BackendUnavailable(exc) from exc
                        continue
                    # Remote-only: wait (bounded) for a worker to dial
                    # into the listener.
                    starving = True
                    now = time.monotonic()
                    if starved_at is None:
                        starved_at = now
                    elif now - starved_at >= self._join_wait:
                        where = (self.server.address if self.server
                                 else "<no listener>")
                        raise BackendUnavailable(
                            f"no authenticated remote worker joined "
                            f"within {self._join_wait:g}s (listening "
                            f"on {where}; {len(pending)} trial(s) "
                            f"still pending)")
            if not starving:
                starved_at = None

            wait = None
            if timeout and deadlines:
                wait = max(0.01,
                           min(deadlines.values()) - time.monotonic())
            if starved_at is not None:
                remaining = max(
                    0.01, starved_at + self._join_wait - time.monotonic())
                wait = remaining if wait is None else min(wait, remaining)
            try:
                kind, shard, frame = self._outq.get(timeout=wait)
            except queue.Empty:
                # Per-trial budget exceeded: kill the straggler; the
                # EOF event takes the shared crash/requeue path.
                now = time.monotonic()
                for straggler, deadline in list(deadlines.items()):
                    if now >= deadline:
                        stats["timeouts"] += 1
                        _TIMEOUTS.inc()
                        _SWEEP_GAUGES["timeouts"].inc()
                        warnings.warn(
                            f"shards: worker {straggler.id} exceeded "
                            f"the {timeout:g}s per-trial timeout on "
                            f"point {inflight[straggler][0]}; killing "
                            f"it", RuntimeWarning, stacklevel=2)
                        straggler.kill()
                        # Disarm the deadline: the kill fires exactly
                        # once even if the EOF takes a few poll cycles
                        # to arrive; the requeue happens on the EOF.
                        del deadlines[straggler]
                continue

            if kind == "join":
                # A remote worker passed the listener's handshake and
                # joined the fleet; loop back to dispatch to it.
                continue

            if kind == "eof":
                # A shard we already evicted (refused hello, killed in
                # a previous sweep) reports a stale EOF: pure noise,
                # never evidence about this sweep's spawn environment.
                was_ours = shard in self._fleet
                if was_ours:
                    self._fleet.remove(shard)
                if was_ours and not shard.ready:
                    # Died before its hello ever validated: it never
                    # held a task, so the retry budget cannot bound a
                    # spawn environment that kills every worker.
                    handshake_deaths += 1
                    if (self._spawn_local
                            and handshake_deaths >= MAX_HANDSHAKE_DEATHS):
                        raise BackendUnavailable(
                            f"{handshake_deaths} consecutive workers "
                            f"died before completing the hello "
                            f"handshake (last: {shard.id}, "
                            f"{shard.death_detail()})")
                if shard in inflight:
                    stats["crashes"] += 1
                    _CRASHES.inc()
                    _SWEEP_GAUGES["crashes"].inc()
                    requeue_from(
                        shard,
                        f"died ({shard.death_detail()}) running")
                    try:
                        self._ensure_fleet(fleet_size)
                    except OSError as exc:
                        if not any(s.alive for s in self._fleet):
                            raise BackendUnavailable(exc) from exc
                continue

            op = frame.get("op")
            if op == "pong":
                continue
            if op == "hello":
                # Local stdio transport only: remote hellos are
                # consumed (and validated) by the FleetServer before
                # their shard exists.  A mismatch here means our own
                # spawn runs different code than this process — refuse
                # the worker and fail the sweep loudly rather than let
                # it poison a bit-identity-pinned sweep.
                if shard not in self._fleet:
                    continue  # stale hello from an already-evicted worker
                reason = validate_hello(
                    frame, fingerprint=self._expected_fingerprint())
                if reason is not None:
                    # The whole unvalidated spawn batch came from the
                    # same broken environment: kill it all, or a
                    # sibling's pending hello would poison the next
                    # sweep after the environment is fixed.
                    doomed = [s for s in self._fleet
                              if s is shard or (not s.remote
                                                and not s.ready)]
                    for sibling in doomed:
                        sibling.kill()
                        self._fleet.remove(sibling)
                    raise HandshakeError(
                        f"refusing locally spawned worker {shard.id}: "
                        f"{reason}")
                shard.accept(frame)
                handshake_deaths = 0
                continue
            shard.depth = max(0, shard.depth - 1)
            task_id = str(frame.get("id", ""))
            prefix, _, index_text = task_id.partition(":")
            entries = inflight.get(shard)
            if prefix != str(epoch) or not index_text.isdigit():
                # Stale frame from an aborted previous sweep: the
                # worker now starts this sweep's head, if it has one.
                if timeout and entries:
                    deadlines[shard] = time.monotonic() + timeout
                continue
            index = int(index_text)
            if entries and entries[0] == index:
                entries.popleft()
                if entries:
                    if timeout:
                        # The queued mate is now the running head.
                        deadlines[shard] = time.monotonic() + timeout
                else:
                    del inflight[shard]
                    deadlines.pop(shard, None)
                    _WORKERS_ACTIVE.set(len(inflight))
            if results[index] is not _UNSET:
                continue  # duplicate (e.g. raced with a timeout kill)
            if not frame.get("ok"):
                raise_remote(frame)
            sent_at = send_ts.pop(index, None)
            if sent_at is not None:
                _ROUNDTRIP.observe(time.monotonic() - sent_at)
            shard.trials_done += 1
            _WORKER_TRIALS.inc(worker=shard.id)
            stats["worker_trials"][shard.id] = (
                stats["worker_trials"].get(shard.id, 0) + 1)
            if _trace.active():
                span = frame.get("span")
                label = _trace.trial_label(index)
                if (isinstance(span, (list, tuple)) and len(span) == 2):
                    _trace.emit("running", label, worker=shard.id,
                                attempt=attempts[index] + 1,
                                start=span[0], end=span[1])
            counters = frame.get("m")
            if counters:
                # Fold the worker's engine-event delta into this
                # process's totals so the registry's engine collector
                # sees sharded work too.
                from repro.sim import engine

                engine.absorb_counters(counters)
            value = decode_value(frame["result"])
            results[index] = value
            completed += 1
            if on_result is not None:
                on_result(index, value)

        _QUEUE_DEPTH.set(0)
        _WORKERS_ACTIVE.set(0)
        return results
