"""Pluggable sweep-execution backends (the distributed subsystem).

``repro.exp.runner.map_trials`` is the single choke point every sweep
in the repo flows through; this package supplies the interchangeable
engines behind it:

========  ============================================================
backend   execution model
========  ============================================================
serial    in-process, one trial at a time (the reference semantics)
pool      ``ProcessPoolExecutor`` fan-out (the classic ``--workers N``)
shards    long-lived ``python -m repro worker`` daemons fed
          newline-delimited JSON by a coordinator with crash
          detection, bounded retry, and per-trial timeouts
========  ============================================================

All backends return bit-identical results (machine-checked by the
sweep-equivalence tests and the CI ``dist-smoke`` job): trials are
pure data, seeds derive from point indices, and worker placement can
never leak into the physics.  Select one with ``--backend NAME``, the
``REPRO_BACKEND`` environment variable, or an :func:`execution`
context; the default ``auto`` keeps the historical behavior (pool for
multi-worker sweeps, serial otherwise).
"""

from repro.dist.base import (
    AUTO,
    BACKEND_ENV,
    Backend,
    BackendError,
    BackendUnavailable,
    IN_WORKER_ENV,
    backend_names,
    check_backend_name,
    get_backend,
    install_signal_shutdown,
    register_backend,
    resolve_backend_name,
    shutdown_backends,
    unregister_backend,
)
from repro.dist.context import (
    ExecutionContext,
    current_execution,
    execution,
    gc_paused,
)
from repro.dist.protocol import HandshakeError

__all__ = [
    "AUTO",
    "BACKEND_ENV",
    "Backend",
    "BackendError",
    "BackendUnavailable",
    "ExecutionContext",
    "HandshakeError",
    "IN_WORKER_ENV",
    "backend_names",
    "check_backend_name",
    "current_execution",
    "execution",
    "gc_paused",
    "get_backend",
    "install_signal_shutdown",
    "register_backend",
    "resolve_backend_name",
    "shutdown_backends",
    "unregister_backend",
]
