"""Wire protocol shared by the sweep coordinator and its workers.

Frames are newline-delimited JSON objects — one frame per line, UTF-8,
no embedded newlines.  Coordinator -> worker::

    {"op": "challenge", "nonce": "<hex>", "version": 2}   (TCP only)
    {"op": "welcome", "auth": "<hmac-hex>"}               (TCP only)
    {"op": "refused", "error": "..."}                     (TCP only)
    {"op": "run", "id": "3:17", "fn": "pkg.mod:trial",
     "point": {...}, "seed": 123 | null, "ff": "off" | "on" | null}
    {"op": "ping", "id": "..."}
    {"op": "shutdown"}

Worker -> coordinator::

    {"op": "hello", "pid": 4242, "version": 2,
     "fingerprint": "<sha256>", "nonce": "<hex>", "auth": "<hmac-hex>"}
    {"op": "pong", "id": "..."}
    {"id": "3:17", "ok": true,  "result": <value>}
    {"id": "3:17", "ok": false, "error": <value>, "exc": "ValueError(...)",
     "traceback": "..."}

**The handshake.**  Every worker opens with a ``hello`` carrying its
:data:`PROTOCOL_VERSION` and the :func:`repro.exp.cache.
code_fingerprint` of its source tree; the coordinator refuses the
worker — naming exactly what mismatched — unless both equal its own
(:func:`validate_hello`).  A version skew means the frame semantics
differ; a fingerprint skew means the worker would simulate *different
physics* and silently poison a bit-identity-pinned sweep.  Over TCP
the coordinator additionally challenges the worker with a fresh
nonce: the hello must carry ``auth = HMAC-SHA256(secret,
"worker" | server_nonce | worker_nonce)`` — the shared secret itself
never crosses the wire — and the coordinator proves *its* knowledge of
the secret back in the ``welcome`` frame (role-separated digest over
the same nonces), so neither side decodes a single pickle byte from an
unauthenticated peer.  Local stdio workers skip the auth leg (both
ends of the pipe are the same trust domain) but not the
version/fingerprint check.

Values (points, results, shipped exceptions) are encoded JSON-natively
when — and only when — the JSON round trip reproduces the Python value
*exactly* (``json.loads(json.dumps(v)) == v``); anything else (tuples,
int-keyed dicts, NaNs, exception objects) rides as a base64 pickle
under the ``"p"`` tag.  That keeps the common sweep payloads (the
pure-dict points and dict results the drivers ship since PR 3) human-
readable on the wire while guaranteeing the distributed sweep is
bit-identical to the serial one at the Python-object level, not merely
JSON-equal.  Pickle is acceptable here because both ends of the pipe
are processes we spawned from the same source tree; a future
cross-trust-boundary transport would restrict itself to the JSON-native
subset.

``ff`` carries the coordinator's process-local fast-forward forced
mode (see :func:`repro.sim.fastforward.forced`) so a differential
equivalence check driven through a remote backend still pins its
baseline and fast-forward runs correctly inside the workers.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import importlib
import json
import os
import pickle
import secrets
import sys

#: Protocol version announced in the worker's hello frame (bumped to 2
#: when the hello grew the fingerprint/auth handshake fields).
PROTOCOL_VERSION = 2

#: Test hooks: override what a worker *claims* in its hello frame so
#: the refusal paths can be exercised from a healthy source tree (the
#: coordinator always validates against its real values).
FINGERPRINT_ENV = "REPRO_WORKER_FINGERPRINT"
VERSION_ENV = "REPRO_WORKER_PROTOCOL_VERSION"


class ProtocolError(RuntimeError):
    """Malformed frame or unresolvable trial-function reference."""


class HandshakeError(RuntimeError):
    """A worker failed the hello handshake (auth, version, or source
    fingerprint); the message names exactly what mismatched."""


class RemoteTrialError(RuntimeError):
    """A worker-side trial failure that could not be reconstructed as
    its original exception type (carries the remote traceback text)."""


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
def encode_value(value) -> dict:
    """Encode ``value`` as ``{"j": ...}`` (exact-JSON) or ``{"p": b64}``."""
    try:
        if json.loads(json.dumps(value)) == value:
            return {"j": value}
    except (TypeError, ValueError, RecursionError):
        pass
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {"p": base64.b64encode(payload).decode("ascii")}


def decode_value(obj: dict):
    """Inverse of :func:`encode_value`."""
    if "j" in obj:
        return obj["j"]
    if "p" in obj:
        return pickle.loads(base64.b64decode(obj["p"]))
    raise ProtocolError(f"undecodable value frame: {obj!r}")


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def new_nonce() -> str:
    """A fresh random challenge nonce (hex)."""
    return secrets.token_hex(16)


def auth_digest(secret: str, role: str, server_nonce: str,
                peer_nonce: str) -> str:
    """HMAC-SHA256 proof of the shared secret, bound to both nonces.

    ``role`` separates the worker's proof from the coordinator's, so a
    reflected digest can never authenticate the other direction.
    """
    message = "\x1f".join((role, server_nonce, peer_nonce))
    return hmac.new(secret.encode("utf-8"), message.encode("utf-8"),
                    hashlib.sha256).hexdigest()


def challenge_frame(nonce: str) -> dict:
    """Coordinator's opening frame on a TCP connection."""
    return {"op": "challenge", "nonce": nonce,
            "version": PROTOCOL_VERSION}


def hello_frame(fingerprint: str, *, nonce: str | None = None,
                auth: str | None = None) -> dict:
    """A worker's hello.  The claimed version/fingerprint honor the
    test-hook environment overrides; ``nonce``/``auth`` ride along on
    authenticated (TCP) connections only."""
    version: object = os.environ.get(VERSION_ENV) or PROTOCOL_VERSION
    if isinstance(version, str):
        version = int(version) if version.isdigit() else version
    frame = {"op": "hello", "pid": os.getpid(), "version": version,
             "fingerprint": os.environ.get(FINGERPRINT_ENV) or fingerprint}
    if nonce is not None:
        frame["nonce"] = nonce
    if auth is not None:
        frame["auth"] = auth
    return frame


def _short(fingerprint: object) -> str:
    text = str(fingerprint)
    return text[:12] if len(text) > 12 else text


def validate_hello(frame: dict, *, fingerprint: str,
                   secret: str | None = None,
                   nonce: str | None = None) -> str | None:
    """Why ``frame`` must be refused, or ``None`` when it is acceptable.

    Checks, in order: shared-secret proof (when ``secret`` is set, i.e.
    on authenticated transports), protocol version, and source-tree
    fingerprint.  The returned reason names the mismatch and both
    sides' values — it is the operator's only clue that a host in the
    fleet runs stale code.  Nothing in the hello is ever
    pickle-decoded: an unauthenticated peer only reaches plain-JSON
    string comparisons.
    """
    if secret is not None:
        expected = auth_digest(secret, "worker", nonce or "",
                               str(frame.get("nonce", "")))
        presented = frame.get("auth")
        if (not isinstance(presented, str)
                or not hmac.compare_digest(presented, expected)):
            return ("authentication failed: hello carries a bad or "
                    "missing shared-secret digest (wrong "
                    "REPRO_FLEET_SECRET?)")
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        return (f"protocol version mismatch: worker speaks {version!r}, "
                f"coordinator requires {PROTOCOL_VERSION}")
    presented_fp = frame.get("fingerprint")
    if presented_fp != fingerprint:
        return (f"code fingerprint mismatch: worker runs "
                f"{_short(presented_fp)}, coordinator runs "
                f"{_short(fingerprint)} (stale or divergent source tree)")
    return None


# ----------------------------------------------------------------------
# Trial-function addressing
# ----------------------------------------------------------------------
def fn_ref(fn) -> str | None:
    """``"module:qualname"`` reference of a module-level callable.

    Returns ``None`` when ``fn`` is not addressable across processes —
    a lambda, a nested function, a bound method, or anything whose
    reference does not resolve back to the very same object.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "." in qualname or "<" in qualname:
        return None
    if module in ("__main__", "__mp_main__"):
        # Resolvable here, but another process's __main__ is a
        # different module entirely — not addressable, not cacheable.
        return None
    ref = f"{module}:{qualname}"
    try:
        if resolve_fn(ref) is not fn:
            return None
    except Exception:
        return None
    return ref


def resolve_fn(ref: str):
    """Import and return the callable a :func:`fn_ref` string names."""
    module_name, sep, qualname = ref.partition(":")
    if not sep or not module_name or not qualname:
        raise ProtocolError(f"bad trial-function reference {ref!r}")
    module = sys.modules.get(module_name)
    if module is None:
        module = importlib.import_module(module_name)
    try:
        return getattr(module, qualname)
    except AttributeError:
        raise ProtocolError(
            f"module {module_name!r} has no attribute {qualname!r}") from None


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def dump_frame(frame: dict) -> str:
    """One wire line (terminated) for ``frame``."""
    return json.dumps(frame, separators=(",", ":")) + "\n"


def parse_frame(line: str) -> dict | None:
    """Parse one wire line; ``None`` for blank/non-frame lines (stray
    output that escaped to the protocol stream is noise, not a crash)."""
    line = line.strip()
    if not line or not line.startswith("{"):
        return None
    try:
        frame = json.loads(line)
    except json.JSONDecodeError:
        return None
    return frame if isinstance(frame, dict) else None


def close_quietly(*streams) -> None:
    """Close a transport's files and sockets in order; a flush into a
    peer that is already gone is not an error."""
    for stream in streams:
        try:
            stream.close()
        except OSError:
            pass


def task_frame(task_id: str, ref: str, point, seed, ff: str | None) -> dict:
    return {"op": "run", "id": task_id, "fn": ref,
            "point": encode_value(point), "seed": seed, "ff": ff}


def error_frame(task_id: str, exc: BaseException, traceback_text: str) -> dict:
    """Ship a trial failure; the exception object rides along when it
    pickles, so the coordinator re-raises the original type."""
    frame = {"id": task_id, "ok": False, "exc": repr(exc),
             "traceback": traceback_text}
    try:
        frame["error"] = encode_value(exc)
    except Exception:  # unpicklable exception: textual fallback only
        pass
    return frame


def raise_remote(frame: dict) -> None:
    """Re-raise the failure an error frame describes.

    The original exception is raised when it was shippable; otherwise a
    :class:`RemoteTrialError` carrying the remote repr + traceback.
    The remote traceback is chained as the cause either way, so the
    worker-side context is never lost.
    """
    remote = RemoteTrialError(
        f"trial failed in worker: {frame.get('exc', '?')}\n"
        f"{frame.get('traceback', '')}".rstrip())
    encoded = frame.get("error")
    if encoded is not None:
        try:
            exc = decode_value(encoded)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            raise exc from remote
    raise remote
