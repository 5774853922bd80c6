"""``python -m repro worker`` — a long-lived sweep-worker daemon.

Two transports feed it task frames (protocol in
:mod:`repro.dist.protocol`):

* **stdio** (default): the shards backend spawns one of these per
  worker slot; frames arrive on stdin and results leave on stdout.
* **TCP** (``--connect HOST:PORT``): the worker *dials into* a
  coordinator's fleet listener — possibly on another machine — and
  authenticates with the shared secret in ``REPRO_FLEET_SECRET``
  (an HMAC proof over the coordinator's challenge nonce; the secret
  never crosses the wire).  The coordinator must prove knowledge of
  the same secret back, and no task frame (which may carry pickles)
  is decoded until that mutual handshake completes.  A refusal —
  wrong secret, protocol-version skew, source-fingerprint skew — is
  printed with the coordinator's diagnostic and exits with code 77;
  it is permanent, so it is never retried.  Plain connection failures
  retry (``--retry`` seconds; ``--reconnect`` additionally re-dials
  after a served session ends, turning the worker into a standing
  fleet member that survives coordinator restarts).

A worker imports the simulator once and then executes trials until
told to shut down (or its transport closes), so a thousand-trial sweep
pays interpreter startup, imports, and warmup once per worker instead
of once per task.

Hygiene the daemon guarantees:

* on stdio, the protocol stream is a private dup of stdout taken at
  startup; file descriptor 1 is then redirected to stderr, so a trial
  that prints cannot corrupt the wire (on TCP the wire is the socket,
  which no ``print`` can reach — stdout is left alone);
* ``REPRO_IN_WORKER`` is set, so a trial that itself calls
  ``map_trials`` resolves to the serial backend instead of recursively
  spawning fleets;
* trials run with the cyclic GC paused (the tuned-CLI condition); a
  cheap young-generation collection after each trial picks up the
  per-trial cycles, with a full collection every
  :data:`GC_FULL_EVERY` tasks to bound old-generation drift (a full
  pass in a warm worker costs more than a no-op trial's entire
  dispatch, so paying it per task dominated warm dispatch overhead);
* each task's ``ff`` field re-applies the coordinator's fast-forward
  forced mode, so differential checks stay meaningful through remote
  execution;
* a trial exception is shipped back as an error frame (with the
  original exception object when picklable) — the worker survives and
  takes the next task.  Only a corrupt protocol line kills the worker.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
import traceback

from repro.dist.base import IN_WORKER_ENV
from repro.dist.protocol import (
    HandshakeError,
    decode_value,
    dump_frame,
    error_frame,
    hello_frame,
    parse_frame,
    resolve_fn,
)

#: Tasks between full garbage collections (young-generation passes run
#: after every task and are near-free; a full pass is ~ms in a warm
#: worker, so amortizing it keeps per-trial dispatch overhead low).
GC_FULL_EVERY = 32

#: Exit codes: refusal by the coordinator (permanent handshake
#: failure) and transport unavailability (connect retries exhausted).
EX_REFUSED = 77
EX_UNAVAILABLE = 69


def _warm() -> None:
    """Best-effort preload of the heavy sweep modules, so the first
    trial doesn't pay the import bill inside its measured wall time."""
    for name in ("repro.system", "repro.scenario.spec",
                 "repro.core.prac_channel", "repro.core.rfm_channel",
                 "repro.exp.drivers.common"):
        try:
            __import__(name)
        except Exception:  # pragma: no cover - warmup must never kill us
            pass


def _claim_protocol_stream():
    """Dup the real stdout for frames, then point fd 1 at stderr so any
    stray ``print`` inside a trial lands in the log, not the protocol."""
    sys.stdout.flush()
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1,
                      encoding="utf-8", newline="\n")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    return proto


def _run_task(frame: dict) -> dict:
    from repro.sim import engine, fastforward

    from repro.dist.protocol import encode_value

    task_id = frame.get("id", "?")
    before_ev = engine.global_counters()
    started = time.time()
    try:
        fn = resolve_fn(frame["fn"])
        point = decode_value(frame["point"])
        seed = frame.get("seed")
        with fastforward.forced(frame.get("ff")):
            value = fn(point) if seed is None else fn(point, seed)
        ended = time.time()
        # Encoding inside the try: a result that is neither JSON-exact
        # nor picklable is a *trial* failure frame, not a daemon death.
        encoded = encode_value(value)
    except Exception as exc:
        return error_frame(task_id, exc, traceback.format_exc())
    # The execution span (wall clock) and this trial's engine-counter
    # delta ride home with the result; the coordinator stitches the
    # span into the lifecycle trace and absorbs the counters into its
    # own telemetry registry.  Old coordinators ignore the extra keys.
    reply = {"id": task_id, "ok": True, "result": encoded,
             "span": [started, ended]}
    after_ev = engine.global_counters()
    ev_delta = {k: after_ev[k] - before_ev[k] for k in after_ev
                if after_ev[k] != before_ev[k]}
    if ev_delta:
        reply["m"] = ev_delta
    return reply


def _serve(instream, proto) -> int:
    """The task loop, transport-agnostic: read frames from
    ``instream``, write replies to ``proto``, until shutdown or EOF.
    Returns the process exit code (0 = clean end of session)."""
    gc.disable()
    tasks_since_full_gc = 0
    try:
        for line in instream:
            frame = parse_frame(line)
            if frame is None:
                if line.strip():
                    print(f"worker: unparseable frame {line!r}",
                          file=sys.stderr)
                    return 70  # EX_SOFTWARE: protocol corruption
                continue
            op = frame.get("op", "run")
            if op == "shutdown":
                break
            if op == "ping":
                proto.write(dump_frame({"op": "pong",
                                        "id": frame.get("id")}))
                continue
            if op != "run":
                print(f"worker: unknown op {op!r}", file=sys.stderr)
                continue
            reply = _run_task(frame)
            tasks_since_full_gc += 1
            if tasks_since_full_gc >= GC_FULL_EVERY:
                tasks_since_full_gc = 0
                gc.collect()
            else:
                gc.collect(1)
            try:
                proto.write(dump_frame(reply))
            except (TypeError, ValueError):
                # encode_value produced something json.dumps rejects
                # (should be impossible; pickled fallback is a string).
                exc = RuntimeError(f"unencodable result for {frame['id']}")
                proto.write(dump_frame(error_frame(
                    frame.get("id", "?"), exc, "")))
    except (BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        return 0
    finally:
        gc.enable()
    return 0


def _fingerprint() -> str:
    from repro.exp.cache import code_fingerprint

    return code_fingerprint()


def _connect_main(target: str, *, reconnect: bool, retry_for: float,
                  warm: bool) -> int:
    """Dial a coordinator and serve tasks over the socket."""
    from repro.dist.net import connect_worker, parse_hostport

    secret = os.environ.get("REPRO_FLEET_SECRET")
    if not secret:
        print("worker: --connect requires the shared secret in "
              "REPRO_FLEET_SECRET (never passed on the command line)",
              file=sys.stderr)
        return 2
    try:
        host, port = parse_hostport(target)
    except ValueError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    if warm:
        _warm()
    fingerprint = _fingerprint()
    while True:
        try:
            sock, rfile, wfile = connect_worker(
                host, port, secret=secret, fingerprint=fingerprint,
                retry_for=None if reconnect else retry_for)
        except HandshakeError as exc:
            # Permanent: wrong secret or a skewed tree will not heal
            # by retrying.  The message names the mismatch.
            print(f"worker: {exc}", file=sys.stderr)
            return EX_REFUSED
        except OSError as exc:
            print(f"worker: cannot reach coordinator {host}:{port} "
                  f"after {retry_for:g}s: {exc}", file=sys.stderr)
            return EX_UNAVAILABLE
        print(f"worker: joined fleet at {host}:{port} "
              f"(pid {os.getpid()})", file=sys.stderr)
        try:
            code = _serve(rfile, wfile)
        except OSError:
            code = 0  # connection dropped mid-session: a clean EOF
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if code != 0 or not reconnect:
            return code
        print(f"worker: session ended; redialing {host}:{port} ...",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="sweep-worker daemon: executes NDJSON task frames "
                    "from a shards coordinator, over stdin/stdout "
                    "(spawned by the backend) or a TCP connection "
                    "(--connect; authenticates with "
                    "$REPRO_FLEET_SECRET)")
    parser.add_argument("--no-warm", action="store_true",
                        help="skip preloading the simulator modules")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="dial into a fleet coordinator instead of "
                             "serving stdin (shared secret read from "
                             "REPRO_FLEET_SECRET)")
    parser.add_argument("--reconnect", action="store_true",
                        help="with --connect: redial forever after a "
                             "session ends (a standing fleet member); "
                             "a handshake refusal still exits")
    parser.add_argument("--retry", type=float, default=60.0,
                        metavar="SECONDS",
                        help="with --connect: keep retrying the initial "
                             "connection this long (default: 60)")
    args = parser.parse_args(argv)

    os.environ[IN_WORKER_ENV] = "1"
    if args.connect:
        return _connect_main(args.connect, reconnect=args.reconnect,
                             retry_for=args.retry, warm=not args.no_warm)

    proto = _claim_protocol_stream()
    if not args.no_warm:
        _warm()
    proto.write(dump_frame(hello_frame(_fingerprint())))
    return _serve(sys.stdin, proto)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
