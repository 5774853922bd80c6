"""Trial/sweep executor: pluggable backends plus cached runs.

Two layers:

``map_trials``
    Runs one trial function over a list of parameter points through an
    execution backend (:mod:`repro.dist`): in-process ``serial``, the
    process-pool ``pool``, or the ``shards`` worker fleet.  Results
    come back in point order, so every backend is bit-identical to the
    serial path — each trial builds its own simulator from its own
    deterministic seed (derived from the point *index*, never from
    worker placement), and results stream into the per-trial result
    cache as they land, so an interrupted sweep resumes instead of
    restarting.

``run_experiment``
    Resolves a registered experiment, consults the on-disk result cache
    (key = experiment name + params + source-tree fingerprint), and
    executes the driver on a miss.  Returns an :class:`ExperimentRun`
    carrying the value plus provenance (cache hit?, trials executed,
    wall time).
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.dist import (
    BackendUnavailable,
    current_execution,
    get_backend,
    resolve_backend_name,
)
from repro.exp.cache import ResultCache, code_fingerprint, stable_key
from repro.exp.registry import ExperimentSpec, get_experiment
from repro.obs import trace as _trace

#: Process-local count of trial executions (parallel trials are counted
#: in the parent as their results arrive).  Tests use the delta around a
#: run to verify cache hits skip work entirely.
_trials_executed = 0


def trials_executed() -> int:
    """Total trials executed by this process since import."""
    return _trials_executed


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed per-trial seed.

    Stable across processes and Python versions (pure SHA-256, no
    ``hash()``), so a sweep distributed over N workers draws exactly
    the seeds the serial sweep would.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _warn_serial_fallback(backend: str, exc: object,
                          n_points: int) -> None:
    """Shared fallback warning: names the backend and the exact failure
    so 'my sweep silently ran serially' is diagnosable from the log."""
    warnings.warn(
        f"backend {backend!r} unavailable ({exc!r}); running {n_points} "
        "trial(s) serially", RuntimeWarning, stacklevel=3)


def _ambient_fast_forward() -> str:
    """The process-ambient fast-forward switch ("on"/"off").  Part of
    every trial key — a cache entry computed fast-forwarded must never
    satisfy an event-accurate run (or vice versa), exactly the mix-up
    a diffcheck investigation would be hunting."""
    from repro.sim import fastforward

    return "on" if fastforward.resolve_enabled() else "off"


def trial_key(fn: Callable, point, seed) -> str | None:
    """Content-address of one trial: the function's cross-process
    reference, the point, the derived seed, the ambient fast-forward
    mode, and the source fingerprint.

    ``None`` when ``fn`` is not addressable across processes (then the
    per-trial cache cannot guarantee identity and stays out of the way).
    """
    from repro.dist.protocol import fn_ref

    ref = fn_ref(fn)
    if ref is None:
        return None
    return stable_key({"trial": {"fn": ref, "point": point, "seed": seed,
                                 "ff": _ambient_fast_forward()},
                       "code": code_fingerprint()})


_UNSET = object()


def map_trials(fn: Callable, points: Iterable, *,
               workers: int | None = None,
               seed: int | None = None,
               backend: str | None = None,
               trial_cache: ResultCache | None = None,
               progress: Callable[[int, int, int], None] | None = None
               ) -> list:
    """Run ``fn`` over every point; returns results in point order.

    ``fn`` must be a module-level callable taking one point (plus a
    derived per-trial seed as a second argument when ``seed`` is set).
    Execution goes through a :mod:`repro.dist` backend — ``backend``
    (or the ambient :func:`repro.dist.execution` context, or the
    ``REPRO_BACKEND`` environment variable) selects it; the default
    ``auto`` fans out over the process pool when ``workers`` > 1 and
    runs in-process otherwise.  Every backend is bit-identical to
    serial because each trial is an isolated, deterministic simulation
    seeded by point index.  A backend that cannot run here falls back
    to serial execution with a warning naming it.

    With a ``trial_cache`` (explicit or from the execution context),
    already-computed points are served from the cache and fresh results
    stream into it as they land, so a partial sweep resumes instead of
    restarting.  ``progress(done, total, cache_hits)`` is invoked per
    landed trial.
    """
    global _trials_executed
    points = list(points)
    n = len(points)
    seeds: Sequence = (
        [None] * n if seed is None
        else [derive_seed(seed, i) for i in range(n)])

    ctx = current_execution()
    if backend is None:
        backend = ctx.backend
    if trial_cache is None:
        trial_cache = ctx.trial_cache
    if progress is None:
        progress = ctx.progress

    results: list = [_UNSET] * n
    keys: list[str | None] = [None] * n
    hits = 0
    if trial_cache is not None and n:
        for i in range(n):
            keys[i] = trial_key(fn, points[i], seeds[i])
            if keys[i] is None:
                break  # unaddressable fn: no trial caching at all
            hit, value = trial_cache.get(keys[i])
            if hit:
                results[i] = value
                hits += 1

    todo = [i for i in range(n) if results[i] is _UNSET]
    if progress is not None and n:
        progress(n - len(todo), n, hits)

    # Lifecycle tracing: one sweep id per map_trials call; trial ids
    # are "<sweep>:<point index>" so backend-local indices stitch back
    # (dispatched/requeued/running events come from the coordinator,
    # which runs synchronously inside dispatch() below).
    sweep = _trace.new_sweep_id() if _trace.active() else None
    if sweep is not None:
        for i in range(n):
            if results[i] is _UNSET:
                _trace.emit("queued", f"{sweep}:{i}",
                            key=keys[i][:12] if keys[i] else None)
            else:
                _trace.emit("cached", f"{sweep}:{i}")
    if not todo:
        return results

    done = n - len(todo)

    def land(i: int, value) -> None:
        """Stream one landed trial (``i`` is the global point index)."""
        global _trials_executed
        nonlocal done
        if results[i] is not _UNSET:
            return
        results[i] = value
        _trials_executed += 1
        done += 1
        if trial_cache is not None and keys[i] is not None:
            trial_cache.put(keys[i], value)
        if sweep is not None:
            _trace.emit("completed", f"{sweep}:{i}")
        if progress is not None:
            progress(done, n, hits)

    def dispatch(backend_name: str, indices: list[int]) -> None:
        with _trace.sweep_scope(lambda j: f"{sweep}:{indices[j]}"):
            out = get_backend(backend_name).run(
                fn, [points[i] for i in indices],
                [seeds[i] for i in indices],
                workers=workers,
                on_result=lambda j, value: land(indices[j], value))
        # land() is idempotent; re-landing from the returned list covers
        # any backend that does not stream.
        for j, i in enumerate(indices):
            land(i, out[j])

    name = resolve_backend_name(backend, workers=workers,
                                n_points=len(todo))
    try:
        dispatch(name, todo)
    except BackendUnavailable as exc:
        # Results that already landed (and streamed into the cache)
        # before the backend broke are kept; only the rest rerun.
        remaining = [i for i in todo if results[i] is _UNSET]
        _warn_serial_fallback(name, getattr(exc, "reason", exc),
                              len(remaining))
        dispatch("serial", remaining)
    return results


# ----------------------------------------------------------------------
# Scenario fan-out: a trial is a spec, not a closure
# ----------------------------------------------------------------------
def _scenario_trial(point: dict) -> dict:
    """Module-level trampoline: rebuild the spec inside the worker, run
    it, and ship the serializable result core back."""
    from repro.scenario.spec import ScenarioSpec

    return ScenarioSpec.from_dict(point).run().to_dict()


def map_scenarios(specs, *, workers: int | None = None) -> list[dict]:
    """Run scenario specs over the trial backend; results in spec order.

    Accepts :class:`~repro.scenario.spec.ScenarioSpec` instances or
    their dict form; each worker receives pure data and returns the
    JSON-safe ``ScenarioResult.to_dict()`` core.  The ambient
    :func:`repro.dist.execution` context selects the backend; any
    backend's fan-out is bit-identical to serial because a spec fully
    determines its simulation.
    """
    points = [spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
              for spec in specs]
    return map_trials(_scenario_trial, points, workers=workers)


def scenario_key(spec) -> str:
    """Result-cache key of one scenario run: the spec's own stable hash
    plus the source-tree fingerprint (edits invalidate cached runs)."""
    return stable_key({"scenario": spec.to_dict(),
                       "code": code_fingerprint()})


def run_scenario(spec, *, use_cache: bool = True,
                 cache: ResultCache | None = None,
                 cache_dir: str | None = None) -> "ExperimentRun":
    """Execute one scenario spec through the result cache.

    The returned :class:`ExperimentRun` carries the serializable result
    core (``ScenarioResult.to_dict()``) as its value, so cache hits and
    fresh runs are interchangeable.  Execution goes through
    :func:`map_scenarios`, so the ambient execution context's backend
    can ship the spec to a worker fleet.
    """

    def compute():
        return map_scenarios([spec])[0]

    return _through_cache(spec.name, scenario_key(spec),
                          {"scenario": spec.name}, compute,
                          use_cache=use_cache, cache=cache,
                          cache_dir=cache_dir)


# ----------------------------------------------------------------------
# Cached experiment execution
# ----------------------------------------------------------------------
@dataclass
class ExperimentRun:
    """Outcome + provenance of one ``run_experiment`` call."""

    name: str
    value: object
    cached: bool
    trials: int
    elapsed_s: float
    key: str
    params: dict = field(default_factory=dict)


class ExperimentParamError(TypeError):
    """Parameters do not match the experiment driver's signature."""


def _through_cache(name: str, key: str, params: dict, compute,
                   *, use_cache: bool, cache: ResultCache | None,
                   cache_dir: str | None) -> ExperimentRun:
    """Shared get-or-compute-and-put core of every cached run.

    ``compute`` produces the value; trials are counted via the
    process-local :func:`trials_executed` delta around it.
    """
    if use_cache and cache is None:
        cache = ResultCache(cache_dir)
    if use_cache:
        hit, value = cache.get(key)
        if hit:
            return ExperimentRun(name, value, cached=True, trials=0,
                                 elapsed_s=0.0, key=key, params=params)
    before = trials_executed()
    start = time.perf_counter()
    value = compute()
    elapsed = time.perf_counter() - start
    trials = trials_executed() - before
    if use_cache:
        cache.put(key, value)
    return ExperimentRun(name, value, cached=False, trials=trials,
                         elapsed_s=elapsed, key=key, params=params)


def experiment_key(spec: ExperimentSpec, params: dict) -> str:
    """Content-address of one experiment run.

    Covers the experiment name, its *resolved* parameters (explicit
    overrides merged with the driver's defaults, so spelling out a
    default yields the same key as omitting it), and the source-tree
    fingerprint.  Execution knobs that cannot change the result
    (``workers``) are deliberately excluded.
    """
    try:
        bound = spec.signature.bind_partial(**params)
    except TypeError as exc:
        raise ExperimentParamError(
            f"experiment {spec.name!r}: {exc}") from None
    bound.apply_defaults()
    resolved = dict(bound.arguments)
    resolved.pop("workers", None)
    return stable_key({
        "experiment": spec.name,
        "params": resolved,
        "code": code_fingerprint(),
    })


def resolve_run(name: str, params: dict | None = None, *,
                workers: int | None = None, seed: int | None = None
                ) -> tuple[ExperimentSpec, dict, dict, str]:
    """Validate one experiment request and compute its cache key
    without executing anything.

    Returns ``(spec, key_params, call_params, key)``: the registry
    spec, the parameters that define the cache key (``seed`` merged in
    when the driver accepts it), the parameters to actually call the
    driver with (``workers`` added when accepted), and the result-cache
    key.  This is the shared front half of :func:`run_experiment`, so
    anything that must agree with it on keys -- the serve subsystem's
    cache-hit fast path, the artifact layer -- resolves through here.

    Raises :class:`~repro.exp.registry.RegistryError` for unknown
    names and :class:`ExperimentParamError` for parameters the driver
    does not accept.
    """
    spec = get_experiment(name)
    params = dict(params or {})
    signature = spec.signature
    unknown = [k for k in params if k not in signature.parameters]
    if unknown:
        raise ExperimentParamError(
            f"experiment {spec.name!r} does not accept parameter(s) "
            f"{unknown}; accepts {sorted(signature.parameters)}")
    if seed is not None:
        if "seed" in signature.parameters:
            params["seed"] = seed
        else:
            warnings.warn(
                f"experiment {spec.name!r} takes no seed; --seed ignored",
                RuntimeWarning, stacklevel=3)

    call_params = dict(params)
    if workers is not None and "workers" in signature.parameters:
        call_params["workers"] = workers
    return spec, params, call_params, experiment_key(spec, params)


def run_experiment(name: str, params: dict | None = None, *,
                   workers: int | None = None,
                   seed: int | None = None,
                   use_cache: bool = True,
                   cache: ResultCache | None = None,
                   cache_dir: str | None = None) -> ExperimentRun:
    """Execute a registered experiment, going through the result cache.

    ``params`` are keyword overrides for the driver.  ``workers`` and
    ``seed`` are forwarded only when the driver accepts them (``seed``
    becomes part of the cache key; ``workers`` never does).
    """
    spec, params, call_params, key = resolve_run(
        name, params, workers=workers, seed=seed)
    return _through_cache(spec.name, key, params,
                          lambda: spec.fn(**call_params),
                          use_cache=use_cache, cache=cache,
                          cache_dir=cache_dir)
