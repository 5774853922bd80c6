"""TCP transport for the shards fleet (cross-machine workers).

The stdio shards backend spawns its workers; this module lets workers
*dial in* instead: the coordinator opens a :class:`FleetServer` on a
TCP port, and every ``python -m repro worker --connect HOST:PORT``
that passes the handshake becomes a :class:`~repro.dist.shards.Shard`
over the socket's two text files — the same class, NDJSON frame
protocol, coordinator loop and crash-requeue/timeout/retry semantics
as a locally spawned worker.  Only the kill hook differs (it drops the
connection instead of signaling a child process), and so does how a
death reads ("connection lost" rather than an exit code).

Connection lifecycle (server side)::

    accept -> challenge {nonce} -> read hello -> validate
       ok     -> welcome {auth}; the shard joins the fleet
       refuse -> refused {error naming the mismatch}; close

The handshake (see :mod:`repro.dist.protocol`) authenticates **both**
directions with HMAC proofs of a shared secret over fresh nonces —
the secret never crosses the wire — and pins the worker's protocol
version and source-tree fingerprint to the coordinator's.  Until a
peer is authenticated, nothing it sends is pickle-decoded: the
handshake frames are plain JSON, each read at most
:data:`HANDSHAKE_MAX_LINE` characters long, and a connection is
dropped at the first invalid frame.

A ``status`` client (``repro fleet status``) speaks the same
challenge/auth opening with a ``status`` role digest and receives one
JSON document describing the fleet (workers, versions, fingerprints,
in-flight depth) before the connection closes.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from repro.dist.protocol import (
    HandshakeError,
    PROTOCOL_VERSION,
    auth_digest,
    challenge_frame,
    close_quietly,
    dump_frame,
    hello_frame,
    new_nonce,
    parse_frame,
    validate_hello,
)
from repro.dist.shards import Shard
from repro.obs.metrics import REGISTRY as _METRICS

_CONNECTS = _METRICS.counter(
    "repro_fleet_connects_total",
    "Remote workers that completed the handshake and joined")
_REFUSALS = _METRICS.counter(
    "repro_fleet_refusals_total",
    "Handshakes refused, by mismatch class")


def _refusal_class(reason: str) -> str:
    """Bucket a refusal diagnostic into a low-cardinality label."""
    text = reason.lower()
    if "auth" in text or "secret" in text:
        return "auth"
    if "version" in text:
        return "version"
    if "fingerprint" in text:
        return "fingerprint"
    return "protocol"

#: Seconds an accepted connection gets to complete the handshake.
HANDSHAKE_TIMEOUT = 10.0

#: Longest line read from a peer before it has proved the secret.  A
#: hello is under 300 characters; the cap stops a peer from making the
#: reader buffer an unbounded line.
HANDSHAKE_MAX_LINE = 64 * 1024

#: Delay between connection attempts while a worker waits for its
#: coordinator to come up (or back up, in ``--reconnect`` mode).
RETRY_DELAY = 0.5


def parse_hostport(text: str, *, default_host: str = "127.0.0.1"
                   ) -> tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``"port"`` -> ``(host, port)``."""
    text = text.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {text!r}: expected HOST:PORT or PORT") from None
    if not 0 <= port < 65536:
        raise ValueError(f"bad port {port} in {text!r}")
    return host, port


def _frame_files(sock: socket.socket):
    """(reader, writer) text files over ``sock`` for NDJSON frames.

    The writer is line-buffered to match the stdio transport's
    protocol stream: every frame ends in a newline, so each write
    flushes — the worker's task loop counts on that."""
    rfile = sock.makefile("r", encoding="utf-8", newline="\n")
    wfile = sock.makefile("w", encoding="utf-8", newline="\n")
    # makefile() silently ignores buffering=1 for sockets, so ask the
    # text layer directly: flush whenever a write contains a newline.
    wfile.reconfigure(line_buffering=True)
    return rfile, wfile


def _read_handshake_frame(rfile) -> dict | None:
    """One handshake frame (``None`` for EOF or a non-frame line);
    :class:`HandshakeError` for a line over :data:`HANDSHAKE_MAX_LINE`
    or one that is not UTF-8."""
    try:
        line = rfile.readline(HANDSHAKE_MAX_LINE + 1)
    except UnicodeDecodeError:
        raise HandshakeError("handshake line is not UTF-8") from None
    if len(line) > HANDSHAKE_MAX_LINE:
        raise HandshakeError(
            f"handshake line longer than {HANDSHAKE_MAX_LINE} characters")
    return parse_frame(line)


def _drop(sock: socket.socket) -> None:
    """The TCP kill hook: the worker sees EOF, and so does our reader."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    finally:
        sock.close()


class FleetServer:
    """The coordinator's TCP listener: accepts, authenticates, and
    registers remote workers into a shared fleet list.

    ``fleet`` is the coordinator's live shard list (appended from the
    handshake threads; CPython list ops keep this safe) and ``outq``
    its event queue — a ``("join", shard, None)`` event wakes a
    coordinator blocked waiting for capacity.  ``on_event(kind,
    detail)`` (kinds: ``listening``/``joined``/``refused``) feeds the
    ``repro fleet listen`` console.
    """

    def __init__(self, host: str, port: int, *, secret: str,
                 fingerprint: str, fleet: list, outq: queue.Queue,
                 on_event=None, metrics_source=None) -> None:
        if not secret:
            raise ValueError(
                "a fleet listener requires a shared secret "
                "(set REPRO_FLEET_SECRET)")
        self._secret = secret
        self._fingerprint = fingerprint
        self._fleet = fleet
        self._outq = outq
        self._on_event = on_event or (lambda kind, detail: None)
        #: Optional ``() -> dict`` snapshot of the coordinator's
        #: metrics registry, embedded in :meth:`status_doc` so
        #: ``repro fleet status --json`` aggregates telemetry too.
        self._metrics_source = metrics_source
        self._closed = False
        self.refused_count = 0
        self.last_refusal: str | None = None
        self._sock = socket.create_server((host, port), backlog=16,
                                          reuse_port=False)
        self.host, self.port = self._sock.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"repro-fleet-accept:{self.port}")
        self._acceptor.start()
        self._on_event("listening", f"{self.host}:{self.port}")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- accept + handshake ---------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return  # listener closed
            # One thread per handshake: a slow or stalled dialer must
            # not block other workers from joining.
            threading.Thread(target=self._handshake, args=(conn, addr),
                             daemon=True,
                             name=f"repro-fleet-handshake:{addr}").start()

    def _handshake(self, conn: socket.socket, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        rfile, wfile = _frame_files(conn)
        try:
            shard = self._admit(conn, rfile, wfile, peer)
        except OSError:  # pragma: no cover - dialer vanished mid-shake
            shard = None
        if shard is None:
            close_quietly(wfile, rfile, conn)
            return
        _CONNECTS.inc()
        self._fleet.append(shard)
        self._outq.put(("join", shard, None))
        self._on_event("joined",
                       f"{shard.id} (version {shard.version}, "
                       f"fingerprint {str(shard.fingerprint)[:12]})")

    def _admit(self, conn, rfile, wfile, peer: str):
        """Challenge the peer and validate its hello: the worker's shard,
        or ``None`` once a status query is answered or a peer refused."""
        conn.settimeout(HANDSHAKE_TIMEOUT)
        nonce = new_nonce()
        wfile.write(dump_frame(challenge_frame(nonce)))
        wfile.flush()
        try:
            frame = _read_handshake_frame(rfile)
        except HandshakeError as exc:
            return self._refuse(wfile, peer, str(exc))
        if frame is None:
            return self._refuse(wfile, peer, "no hello frame received")
        op = frame.get("op")
        if op == "status":
            return self._serve_status(wfile, peer, frame, nonce)
        if op != "hello":
            return self._refuse(wfile, peer,
                                f"expected a hello frame, got {op!r}")
        reason = validate_hello(frame, fingerprint=self._fingerprint,
                                secret=self._secret, nonce=nonce)
        if reason is not None:
            return self._refuse(wfile, peer, reason)
        wfile.write(dump_frame({
            "op": "welcome",
            "auth": auth_digest(self._secret, "coordinator", nonce,
                                str(frame.get("nonce", "")))}))
        wfile.flush()
        conn.settimeout(None)
        pid = frame.get("pid")
        shard = Shard(self._outq, rfile, wfile, lambda: _drop(conn),
                      lambda: "connection lost", transport="tcp",
                      shard_id=f"tcp:{peer}:pid{pid}", pid=pid, addr=peer)
        shard.accept(frame)
        return shard

    def _refuse(self, wfile, peer: str, reason: str) -> None:
        self.refused_count += 1
        self.last_refusal = reason
        _REFUSALS.inc(reason=_refusal_class(reason))
        self._on_event("refused", f"{peer}: {reason}")
        try:
            wfile.write(dump_frame({"op": "refused", "error": reason}))
            wfile.flush()
        except OSError:  # pragma: no cover
            pass

    def _serve_status(self, wfile, peer: str, frame: dict,
                      nonce: str) -> None:
        expected = auth_digest(self._secret, "status", nonce,
                               str(frame.get("nonce", "")))
        import hmac as _hmac

        presented = frame.get("auth")
        if (not isinstance(presented, str)
                or not _hmac.compare_digest(presented, expected)):
            return self._refuse(wfile, peer,
                                "status query authentication failed")
        wfile.write(dump_frame({"op": "status", **self.status_doc()}))
        wfile.flush()

    # -- introspection ---------------------------------------------------
    def status_doc(self) -> dict:
        """The fleet as one JSON document (served to ``fleet status``)."""
        workers = [{
            "id": shard.id,
            "transport": shard.transport,
            "addr": shard.addr,
            "version": shard.version,
            "fingerprint": shard.fingerprint,
            "ready": shard.ready,
            "alive": shard.alive,
            "in_flight": shard.depth,
            "trials_done": shard.trials_done,
        } for shard in list(self._fleet)]
        doc = {
            "listen": self.address,
            "protocol_version": PROTOCOL_VERSION,
            "fingerprint": self._fingerprint,
            "workers": workers,
            "refused_count": self.refused_count,
            "last_refusal": self.last_refusal,
        }
        if self._metrics_source is not None:
            try:
                doc["metrics"] = self._metrics_source()
            except Exception:  # noqa: BLE001 - status must still serve
                pass
        return doc

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Client side (worker + status CLI)
# ----------------------------------------------------------------------
def _open_and_challenge(host: str, port: int, timeout: float):
    """Dial and read the server's challenge; returns
    ``(sock, rfile, wfile, nonce)``."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(HANDSHAKE_TIMEOUT)
    rfile, wfile = _frame_files(sock)
    try:
        frame = _read_handshake_frame(rfile)
        if frame is None or frame.get("op") != "challenge":
            raise HandshakeError(
                f"{host}:{port} did not open with a challenge frame "
                "(is that really a repro fleet coordinator?)")
    except BaseException:
        close_quietly(wfile, rfile, sock)
        raise
    return sock, rfile, wfile, str(frame.get("nonce", ""))


def connect_worker(host: str, port: int, *, secret: str,
                   fingerprint: str, retry_for: float | None = 60.0):
    """Dial a coordinator and complete the worker handshake.

    Connection-level failures (nothing listening yet, network blips)
    retry every :data:`RETRY_DELAY` seconds for ``retry_for`` seconds
    (``None`` = forever) — workers are typically launched before or
    independently of the sweep that will feed them.  A *refusal* is
    permanent (wrong secret, skewed source tree) and raises
    :class:`~repro.dist.protocol.HandshakeError` immediately with the
    coordinator's diagnostic.

    Returns ``(sock, rfile, wfile)`` with the handshake complete and
    the coordinator's own HMAC proof verified — only then may task
    frames (which carry pickles) be decoded.
    """
    deadline = (None if retry_for is None
                else time.monotonic() + retry_for)
    while True:
        try:
            sock, rfile, wfile, nonce = _open_and_challenge(
                host, port, timeout=HANDSHAKE_TIMEOUT)
            break
        except (OSError, HandshakeError):
            if deadline is not None and time.monotonic() >= deadline:
                raise
            time.sleep(RETRY_DELAY)
    worker_nonce = new_nonce()
    auth = auth_digest(secret, "worker", nonce, worker_nonce)
    try:
        wfile.write(dump_frame(hello_frame(fingerprint, nonce=worker_nonce,
                                           auth=auth)))
        wfile.flush()
        reply = _read_handshake_frame(rfile)
        if reply is None:
            raise HandshakeError(
                f"coordinator {host}:{port} closed the connection during "
                "the handshake")
        if reply.get("op") == "refused":
            raise HandshakeError(
                f"refused by coordinator {host}:{port}: "
                f"{reply.get('error', 'no reason given')}")
        import hmac as _hmac

        expected = auth_digest(secret, "coordinator", nonce, worker_nonce)
        presented = reply.get("auth")
        if (reply.get("op") != "welcome" or not isinstance(presented, str)
                or not _hmac.compare_digest(presented, expected)):
            raise HandshakeError(
                f"coordinator {host}:{port} failed mutual authentication "
                "(bad welcome proof) — refusing to accept tasks from it")
    except BaseException:
        close_quietly(wfile, rfile, sock)
        raise
    sock.settimeout(None)
    return sock, rfile, wfile


def query_status(host: str, port: int, *, secret: str,
                 timeout: float = HANDSHAKE_TIMEOUT) -> dict:
    """Authenticate as a status client and fetch the fleet document."""
    sock, rfile, wfile, nonce = _open_and_challenge(host, port,
                                                    timeout=timeout)
    try:
        client_nonce = new_nonce()
        wfile.write(dump_frame({
            "op": "status", "nonce": client_nonce,
            "auth": auth_digest(secret, "status", nonce, client_nonce)}))
        wfile.flush()
        reply = parse_frame(rfile.readline())
    finally:
        close_quietly(wfile, rfile, sock)
    if reply is None:
        raise HandshakeError(
            f"coordinator {host}:{port} closed the connection without "
            "answering the status query")
    if reply.get("op") == "refused":
        raise HandshakeError(
            f"refused by coordinator {host}:{port}: "
            f"{reply.get('error', 'no reason given')}")
    if reply.get("op") != "status":
        raise HandshakeError(
            f"unexpected {reply.get('op')!r} frame in place of the "
            "status document")
    return {k: v for k, v in reply.items() if k != "op"}
