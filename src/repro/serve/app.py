"""Route table of ``repro serve``: results as a service.

Every endpoint resolves through the *same* code paths as the CLI --
:func:`repro.exp.runner.resolve_run` for keys and validation,
:class:`repro.exp.cache.ResultCache` for results,
:mod:`repro.serve.artifacts` for rendering -- so a server response is
byte-identical to the equivalent ``repro run`` / ``repro artifacts``
invocation.

=======  ==================================  ==============================
method   path                                behaviour
=======  ==================================  ==============================
GET      /healthz                            liveness + job counts
GET      /metrics                            Prometheus text (?format=json)
GET      /v1/cache/stats                     result-cache statistics
GET      /v1/experiments                     registry catalog
POST     /v1/experiments/{name}              run by name (hit=200, miss=202)
POST     /v1/scenarios                       run a ScenarioSpec JSON body
GET      /v1/jobs                            all known jobs
GET      /v1/jobs/{id}                       one job document
GET      /v1/jobs/{id}/events                NDJSON/SSE progress stream
GET      /v1/results/{key}                   cached result by cache key
GET      /v1/artifacts/{name}.{json|md|png}  render a cached result
=======  ==================================  ==============================

Cache hits are answered inline on the event loop and never touch an
execution backend; misses become :class:`~repro.serve.jobs.JobManager`
jobs (202 + a job id), deduplicated on the result-cache key.  A hit
splices the entry's canonical JSON and checksum, memoised by the
entry's bytes (:func:`_canonical_entry`), into its response.
"""

from __future__ import annotations

import asyncio
import functools
import json
import pickle
import time

from repro.exp.cache import canonical_encoding, canonicalize
from repro.exp.registry import RegistryError, all_experiments
from repro.exp.runner import (
    ExperimentParamError,
    resolve_run,
    run_experiment,
    run_scenario,
    scenario_key,
)
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.serve.artifacts import ArtifactError, render_artifact
from repro.serve.http import (
    HttpError,
    Request,
    Response,
    StreamResponse,
    json_data_response,
    json_response,
)
from repro.obs.metrics import REGISTRY as _METRICS
from repro.serve.jobs import Job, JobManager

#: Poll period of the event stream's liveness check (seconds).  Streams
#: re-check the job between queue waits so a subscriber that raced a
#: terminal transition still unblocks.
_EVENT_POLL_S = 15.0

_REQUESTS = _METRICS.counter(
    "repro_serve_requests_total", "HTTP requests handled, by route")
_REQUEST_SECONDS = _METRICS.histogram(
    "repro_serve_request_seconds",
    "Request handling latency by route (streams measure setup only)")
_JOB_QUEUE_DEPTH = _METRICS.gauge(
    "repro_serve_job_queue_depth", "Jobs waiting for the runner thread")
_JOBS_BY_STATE = _METRICS.gauge(
    "repro_serve_jobs", "Known jobs by state (bounded history)")

#: Route prefixes -> the low-cardinality label recorded per request
#: (ids, names, and keys must not explode the label space).
_ROUTE_LABELS = (
    ("/healthz", "/healthz"),
    ("/metrics", "/metrics"),
    ("/v1/cache/stats", "/v1/cache/stats"),
    ("/v1/experiments", "/v1/experiments"),
    ("/v1/scenarios", "/v1/scenarios"),
    ("/v1/jobs", "/v1/jobs"),
    ("/v1/results", "/v1/results"),
    ("/v1/artifacts", "/v1/artifacts"),
)


#: Cache entries whose canonical JSON :func:`_canonical_entry` keeps.
_CANONICAL_SLOTS = 64


@functools.lru_cache(maxsize=_CANONICAL_SLOTS)
def _canonical_entry(entry: bytes) -> tuple[bytes, str]:
    """``(blob, digest)`` of a result-cache entry's bytes: the
    :func:`~repro.exp.cache.canonical_encoding` of the value's
    canonical form, whose ``blob`` is the ``data`` and ``digest`` the
    ``checksum`` of every response that carries the value.

    Memoised by the entry's bytes, so a repeated hit on an unchanged
    entry costs a file read and a lookup.  The memo can only return
    what the bytes on disk decode to: a rewritten entry is a new key, a
    deleted one never gets here, and a corrupt one raises, which
    ``lru_cache`` does not store and :meth:`ResultCache.get` takes for
    a miss.  It keeps at most ``_CANONICAL_SLOTS`` entries, each with
    its JSON: under 1 MB while results stay at a few KB (the largest
    quick-scale one, fig2, is 4,157 pickled and 6,080 JSON bytes).
    """
    return canonical_encoding(canonicalize(pickle.loads(entry)))


def _route_label(path: str) -> str:
    for prefix, label in _ROUTE_LABELS:
        if path == prefix or path.startswith(prefix + "/"):
            if label == "/v1/jobs" and path.endswith("/events"):
                return "/v1/jobs/events"
            return label
    return "<unrouted>"


class ReproApp:
    """The request handler: routes + the cache-or-job decision."""

    def __init__(self, *, cache, backend: str | None = None,
                 workers: int | None = None) -> None:
        self.cache = cache
        self.workers = workers
        self.jobs = JobManager(cache=cache, backend=backend)
        # Replace-by-name: a re-created app (tests) samples *its* job
        # manager, not a stale predecessor's.
        _METRICS.add_collector("serve-jobs", self._collect_jobs)

    def _collect_jobs(self, registry) -> None:
        _JOB_QUEUE_DEPTH.set(self.jobs._queue.qsize())
        for state, count in self.jobs.counts().items():
            _JOBS_BY_STATE.set(count, state=state)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response | StreamResponse:
        """Timing wrapper around the route table: every request lands
        in the per-route latency histogram, including error responses
        (an HttpError still counts — slow failures matter)."""
        label = _route_label(request.path.rstrip("/") or "/")
        start = time.perf_counter()
        try:
            return await self._route(request)
        finally:
            _REQUESTS.inc(route=label)
            _REQUEST_SECONDS.observe(time.perf_counter() - start,
                                     route=label)

    async def _route(self, request: Request) -> Response | StreamResponse:
        method, path = request.method, request.path.rstrip("/") or "/"
        if method == "HEAD":
            method = "GET"  # the connection loop suppresses the body

        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return self._metrics(request)
        if path == "/v1/cache/stats" and method == "GET":
            return json_response(self.cache.stats())
        if path == "/v1/experiments" and method == "GET":
            return self._catalog()
        if path.startswith("/v1/experiments/") and method == "POST":
            return self._submit_experiment(
                path[len("/v1/experiments/"):], request)
        if path == "/v1/scenarios" and method == "POST":
            return self._submit_scenario(request)
        if path == "/v1/jobs" and method == "GET":
            return json_response(
                {"jobs": [job.to_doc() for job in self.jobs.jobs()]})
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                return self._job_events(rest[:-len("/events")], request)
            return json_response(self._job(rest).to_doc())
        if path.startswith("/v1/results/") and method == "GET":
            return self._result(path[len("/v1/results/"):])
        if path.startswith("/v1/artifacts/") and method == "GET":
            return self._artifact(path[len("/v1/artifacts/"):], request)

        known = any(path == p or path.startswith(p + "/") for p in (
            "/healthz", "/metrics", "/v1/cache/stats", "/v1/experiments",
            "/v1/scenarios", "/v1/jobs", "/v1/results", "/v1/artifacts"))
        if known:
            raise HttpError(405, f"{request.method} is not supported "
                                 f"on {path}")
        raise HttpError(404, f"no route for {path}; see /v1/experiments")

    # ------------------------------------------------------------------
    # Simple documents
    # ------------------------------------------------------------------
    def _healthz(self) -> Response:
        return json_response({"status": "ok",
                              "jobs": self.jobs.counts(),
                              "cache_entries": self.cache.stats()["entries"]})

    def _metrics(self, request: Request) -> Response:
        """The whole registry — Prometheus text by default,
        ``?format=json`` for the ``repro stats`` snapshot document."""
        if request.query.get("format") == "json":
            return json_response({"metrics": _METRICS.snapshot()})
        return Response(
            body=_METRICS.to_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            headers=(("Cache-Control", "no-store"),))

    def _catalog(self) -> Response:
        return json_response({"experiments": [
            {"name": spec.name, "figure": spec.figure, "claim": spec.claim,
             "default_scale": canonicalize(spec.default_scale),
             "quick": canonicalize(spec.quick),
             "aliases": list(spec.aliases), "tags": list(spec.tags)}
            for spec in all_experiments()]})

    # ------------------------------------------------------------------
    # Submission: the cache-or-job decision
    # ------------------------------------------------------------------
    def _hit_doc(self, kind: str, name: str, key: str, params: dict,
                 entry: tuple[bytes, str]) -> Response:
        blob, digest = entry
        return json_data_response({
            "kind": kind, "name": name, "key": key,
            "params": canonicalize(params), "cached": True,
            "checksum": digest,
        }, blob)

    def _queued_doc(self, job: Job, created: bool) -> Response:
        doc = job.to_doc()
        doc.update(cached=False, deduplicated=not created,
                   events=f"/v1/jobs/{job.id}/events")
        return json_response(doc, status=202)

    def _submit(self, kind: str, name: str, key: str, params: dict,
                work) -> Response:
        hit, entry = self.cache.get(key, decode=_canonical_entry)
        if hit:
            return self._hit_doc(kind, name, key, params, entry)
        try:
            job, created = self.jobs.submit(kind, name, key, work)
        except RuntimeError as exc:
            raise HttpError(503, str(exc)) from None
        return self._queued_doc(job, created)

    def _submit_experiment(self, name: str, request: Request) -> Response:
        if not name or "/" in name:
            raise HttpError(404, f"bad experiment path segment {name!r}")
        body = request.json() if request.body else {}
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object "
                                 'like {"params": {...}}')
        unknown = set(body) - {"params", "workers", "seed"}
        if unknown:
            raise HttpError(400, f"unknown request field(s) "
                                 f"{sorted(unknown)}; accepted: "
                                 f"params, workers, seed")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise HttpError(400, '"params" must be a JSON object')
        workers = body.get("workers", self.workers)
        seed = body.get("seed")
        try:
            spec, key_params, _call, key = resolve_run(
                name, params, workers=workers, seed=seed)
        except RegistryError as exc:
            raise HttpError(404, str(exc)) from None
        except ExperimentParamError as exc:
            raise HttpError(400, str(exc)) from None

        def work(progress):
            return run_experiment(spec.name, params, workers=workers,
                                  seed=seed, cache=self.cache)

        return self._submit("experiment", spec.name, key, key_params, work)

    def _submit_scenario(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a ScenarioSpec "
                                 "JSON object")
        try:
            spec = ScenarioSpec.from_dict(doc)
        except ScenarioError as exc:
            raise HttpError(400, f"invalid scenario spec: {exc}") from None
        key = scenario_key(spec)

        def work(progress):
            return run_scenario(spec, cache=self.cache)

        return self._submit("scenario", spec.name, key,
                            {"scenario": spec.name}, work)

    # ------------------------------------------------------------------
    # Jobs + event streams
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def _job_events(self, job_id: str,
                    request: Request) -> StreamResponse:
        job = self._job(job_id)
        sse = (request.query.get("format") == "sse"
               or "text/event-stream" in request.headers.get("accept", ""))

        def encode(doc: dict) -> bytes:
            line = json.dumps(doc, sort_keys=True)
            if sse:
                return f"data: {line}\n\n".encode()
            return line.encode() + b"\n"

        async def stream():
            q = job.subscribe()
            try:
                while True:
                    try:
                        doc = await asyncio.wait_for(
                            q.get(), timeout=_EVENT_POLL_S)
                    except asyncio.TimeoutError:
                        if job.terminal and q.empty():
                            break
                        yield encode({"event": "heartbeat",
                                      "job": job.id})
                        continue
                    yield encode(doc)
                    if doc.get("event") in ("done", "failed"):
                        break
            finally:
                job.unsubscribe(q)

        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        return StreamResponse(stream(), content_type=content_type,
                              headers=(("Cache-Control", "no-store"),))

    # ------------------------------------------------------------------
    # Cached results + artifacts
    # ------------------------------------------------------------------
    def _result(self, key: str) -> Response:
        hit, entry = self.cache.get(key, decode=_canonical_entry)
        if not hit:
            raise HttpError(404, f"no cached result under key {key!r}")
        blob, digest = entry
        return json_data_response({"key": key, "checksum": digest},
                                  blob)

    def _artifact(self, tail: str, request: Request) -> Response:
        name, dot, fmt = tail.rpartition(".")
        if not dot or not name:
            raise HttpError(400, "artifact path must be "
                                 "/v1/artifacts/{experiment}.{json|md|png}")
        params: dict = {}
        quick = request.query.get("quick") in ("1", "true", "yes")
        for qk, qv in request.query.items():
            if qk in ("quick", "format"):
                continue
            try:
                params[qk] = json.loads(qv)
            except json.JSONDecodeError:
                params[qk] = qv  # bare strings are convenient in curl
        try:
            spec, key_params, _call, key = resolve_run(name, params)
        except RegistryError as exc:
            raise HttpError(404, str(exc)) from None
        except ExperimentParamError as exc:
            raise HttpError(400, str(exc)) from None
        if quick:
            if spec.quick is None:
                raise HttpError(400, f"experiment {name!r} has no quick "
                                     "parameterization")
            merged = dict(spec.quick)
            merged.update(params)
            _spec, key_params, _call, key = resolve_run(name, merged)

        hit, value = self.cache.get(key)
        if not hit:
            raise HttpError(
                404, f"result of {name!r} with these params is not cached "
                     f"yet (key {key}); POST /v1/experiments/{name} first")
        try:
            content_type, payload = render_artifact(
                name, key_params, key, value, fmt)
        except ArtifactError as exc:
            raise HttpError(400, str(exc)) from None
        return Response(body=payload, content_type=content_type)
