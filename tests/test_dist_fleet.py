"""Tests for the TCP fleet transport: dial-in workers, the
challenge/hello handshake (auth, version, fingerprint refusals with
diagnostics), SIGKILL crash recovery across the socket, the status
protocol, and the sweep-equivalence contract over TCP."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import dist_trials
from repro.dist import execution
from repro.dist.base import BackendUnavailable, register_backend
from repro.dist.net import (
    HANDSHAKE_MAX_LINE,
    connect_worker,
    parse_hostport,
    query_status,
)
from repro.dist.protocol import (
    HandshakeError,
    PROTOCOL_VERSION,
    close_quietly,
    parse_frame,
)
from repro.dist.shards import ShardsBackend, TIMEOUT_ENV
from repro.exp.cache import canonicalize, stable_key
from repro.exp.registry import get_experiment
from repro.exp.runner import map_trials
from repro.obs.metrics import REGISTRY

SECRET = "fleet-test-secret"


def _worker_cmd(address, *extra):
    return [sys.executable, "-m", "repro", "worker", "--no-warm",
            "--connect", address, *extra]


def _worker_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env["REPRO_FLEET_SECRET"] = SECRET
    env.update(extra or {})
    return env


def _wait_for_join(backend, count=1, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if sum(1 for s in backend._fleet
               if s.remote and s.alive and s.ready) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"no {count} remote worker(s) joined within {timeout:g}s")


@pytest.fixture()
def fleet():
    """A private remote-only listening backend plus a worker spawner;
    every spawned worker is torn down hard after the test."""
    backend = ShardsBackend(listen="127.0.0.1:0", secret=SECRET,
                            spawn_local=False, join_wait=60.0)
    procs = []

    def spawn(env_extra=None, *extra_args):
        proc = subprocess.Popen(
            _worker_cmd(backend.server.address, *extra_args),
            stderr=subprocess.DEVNULL, env=_worker_env(env_extra))
        procs.append(proc)
        return proc

    yield backend, spawn
    backend.close()
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


class TestFleetRoundTrip:
    def test_remote_workers_run_the_sweep(self, fleet):
        backend, spawn = fleet
        spawn()
        points = list(range(8))
        out = backend.run(dist_trials.square, points, [None] * 8,
                          workers=2)
        assert out == [p * p for p in points]
        assert backend.last_stats["remote_workers_used"] == 1

    def test_status_doc_shows_joined_workers(self, fleet):
        backend, spawn = fleet
        spawn()
        _wait_for_join(backend)
        doc = backend.server.status_doc()
        assert doc["protocol_version"] == PROTOCOL_VERSION
        assert len(doc["workers"]) == 1
        worker = doc["workers"][0]
        assert worker["transport"] == "tcp"
        assert worker["ready"] and worker["alive"]
        assert worker["version"] == PROTOCOL_VERSION

    def test_fleet_is_reused_across_sweeps(self, fleet):
        backend, spawn = fleet
        spawn()
        backend.run(dist_trials.square, [1, 2], [None] * 2, workers=2)
        remote = [s for s in backend._fleet if s.remote]
        backend.run(dist_trials.square, [3, 4], [None] * 2, workers=2)
        assert [s for s in backend._fleet if s.remote] == remote


class TestFleetCrashRecovery:
    def test_sigkill_mid_trial_recovers_with_serial_checksum(
            self, fleet, tmp_path):
        """kill -9 a remote worker while it runs a trial: the
        coordinator must see the socket EOF, requeue the point on a
        surviving worker, and finish with results bit-identical to the
        serial backend."""
        backend, spawn = fleet
        spawn()
        spawn()
        _wait_for_join(backend, count=2)
        marker = tmp_path / "victim-pid"
        points = [{"v": v, "marker": str(marker) if v == 2 else None}
                  for v in range(6)]

        import threading

        def assassin():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if marker.exists() and marker.read_text().strip():
                    os.kill(int(marker.read_text()), signal.SIGKILL)
                    return
                time.sleep(0.05)

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        with pytest.warns(RuntimeWarning, match="died.*requeueing"):
            out = backend.run(dist_trials.report_pid_and_hang_once,
                              points, [None] * 6, workers=2)
        killer.join(timeout=5)
        assert backend.last_stats["crashes"] == 1
        # Bit-identity with the reference semantics: the marker exists
        # now, so the serial run takes the instant path on every point.
        serial = map_trials(dist_trials.report_pid_and_hang_once,
                            points, backend="serial")
        assert (stable_key(canonicalize(out))
                == stable_key(canonicalize(serial)))
        assert out == [v + 1 for v in range(6)]


class TestFleetStalls:
    def test_worker_stalled_mid_frame_is_dropped_and_requeued(
            self, fleet, monkeypatch):
        """A peer that takes a task, writes half a result frame and
        stalls: the per-trial timeout must drop it and requeue the
        point on the real worker, with the serial result."""
        backend, spawn = fleet
        monkeypatch.setenv(TIMEOUT_ENV, "3")
        spawn()
        host, port = parse_hostport(backend.server.address)
        sock, rfile, wfile = connect_worker(
            host, port, secret=SECRET,
            fingerprint=backend._expected_fingerprint(), retry_for=30)

        def stall():
            task = parse_frame(rfile.readline())
            wfile.write(f'{{"id":"{task["id"]}","ok":true,"res')
            wfile.flush()
            rfile.read()  # until the coordinator drops the connection

        staller = threading.Thread(target=stall, daemon=True)
        staller.start()
        try:
            _wait_for_join(backend, count=2)
            points = list(range(4))
            with pytest.warns(RuntimeWarning) as records:
                out = backend.run(dist_trials.square, points, [None] * 4,
                                  workers=2)
            staller.join(timeout=30)
        finally:
            close_quietly(wfile, rfile, sock)
        messages = [str(r.message) for r in records]
        assert any("timeout" in m for m in messages)
        assert any("requeueing" in m for m in messages)
        assert out == map_trials(dist_trials.square, points,
                                 backend="serial")
        assert backend.last_stats["timeouts"] == 1
        assert not staller.is_alive()


class TestHandshakeLineCap:
    def test_oversized_hello_is_refused_naming_the_cap(self, fleet):
        backend, spawn = fleet
        refusals = REGISTRY.get_value("repro_fleet_refusals_total",
                                      reason="protocol")
        host, port = parse_hostport(backend.server.address)
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = sock.makefile("r", encoding="utf-8")
            assert parse_frame(reader.readline())["op"] == "challenge"
            try:
                sock.sendall(b"x" * (4 << 20) + b"\n")
            except OSError:
                pass  # refused and dropped before the line was all sent
            reply = parse_frame(reader.readline())
            reader.close()
        assert reply["op"] == "refused"
        assert str(HANDSHAKE_MAX_LINE) in reply["error"]
        assert str(HANDSHAKE_MAX_LINE) in backend.server.last_refusal
        assert backend.server.refused_count == 1
        assert REGISTRY.get_value("repro_fleet_refusals_total",
                                  reason="protocol") == refusals + 1
        # The listener is unharmed: a real worker joins and serves.
        spawn()
        out = backend.run(dist_trials.square, [1, 2, 3], [None] * 3,
                          workers=1)
        assert out == [1, 4, 9]
        assert backend.last_stats["remote_workers_used"] == 1

    def test_worker_refuses_an_oversized_challenge(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]

            def flood():
                conn, _ = listener.accept()
                with conn:
                    try:
                        conn.sendall(b"y" * (4 << 20))
                    except OSError:
                        pass  # the worker hung up at the cap

            server = threading.Thread(target=flood, daemon=True)
            server.start()
            with pytest.raises(HandshakeError,
                               match=str(HANDSHAKE_MAX_LINE)):
                connect_worker(host, port, secret=SECRET,
                               fingerprint="f" * 64, retry_for=0)
            server.join(timeout=30)
            assert not server.is_alive()

    def test_undecodable_hello_is_refused(self, fleet):
        backend, _ = fleet
        host, port = parse_hostport(backend.server.address)
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = sock.makefile("r", encoding="utf-8")
            assert parse_frame(reader.readline())["op"] == "challenge"
            sock.sendall(b'{"op":"hello","pid":\xff}\n')
            reply = parse_frame(reader.readline())
            reader.close()
        assert reply == {"op": "refused",
                         "error": "handshake line is not UTF-8"}
        assert backend.server.refused_count == 1


class TestWireCounters:
    def test_frames_are_counted_under_each_transport(self, fleet):
        backend, spawn = fleet
        spawn()
        local = ShardsBackend()
        names = ("repro_fleet_frames_received_total",
                 "repro_fleet_frames_sent_total",
                 "repro_fleet_bytes_received_total",
                 "repro_fleet_bytes_sent_total")
        points = list(range(6))
        try:
            for transport, runner in (("stdio", local), ("tcp", backend)):
                before = [REGISTRY.get_value(name, transport=transport)
                          for name in names]
                runner.run(dist_trials.square, points, [None] * 6,
                           workers=1)
                rises = [REGISTRY.get_value(name, transport=transport)
                         - was for name, was in zip(names, before)]
                assert min(rises[:2]) >= len(points), (transport, rises)
                assert min(rises[2:]) > 0, (transport, rises)
        finally:
            local.close()


class TestFleetRefusals:
    def _refused_worker(self, address, env_extra):
        proc = subprocess.run(
            _worker_cmd(address, "--retry", "5"),
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=_worker_env(env_extra))
        return proc.returncode, proc.stderr

    def test_wrong_secret_refused_with_diagnostic(self, fleet):
        backend, _ = fleet
        code, err = self._refused_worker(
            backend.server.address, {"REPRO_FLEET_SECRET": "wrong"})
        assert code == 77  # permanent refusal, not a retryable error
        assert "authentication failed" in err
        assert backend.server.refused_count == 1
        assert "authentication failed" in backend.server.last_refusal

    def test_wrong_fingerprint_refused_naming_both_trees(self, fleet):
        backend, _ = fleet
        code, err = self._refused_worker(
            backend.server.address,
            {"REPRO_WORKER_FINGERPRINT": "deadbeef"})
        assert code == 77
        assert "fingerprint mismatch" in err
        assert "deadbeef" in err  # the worker's claimed tree...
        expected = backend._expected_fingerprint()[:12]
        assert expected in err  # ...and the coordinator's own

    def test_wrong_version_refused_naming_both_versions(self, fleet):
        backend, _ = fleet
        code, err = self._refused_worker(
            backend.server.address,
            {"REPRO_WORKER_PROTOCOL_VERSION": "1"})
        assert code == 77
        assert "version mismatch" in err
        assert "speaks 1" in err
        assert f"requires {PROTOCOL_VERSION}" in err

    def test_missing_secret_is_a_config_error(self, fleet):
        backend, _ = fleet
        env = _worker_env()
        del env["REPRO_FLEET_SECRET"]
        proc = subprocess.run(
            _worker_cmd(backend.server.address),
            stderr=subprocess.PIPE, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert "REPRO_FLEET_SECRET" in proc.stderr

    def test_refused_worker_never_joins_the_fleet(self, fleet):
        backend, _ = fleet
        self._refused_worker(backend.server.address,
                             {"REPRO_WORKER_FINGERPRINT": "deadbeef"})
        assert not [s for s in backend._fleet if s.remote]


class TestFleetStatusProtocol:
    def test_query_status_round_trips(self, fleet):
        backend, spawn = fleet
        spawn()
        _wait_for_join(backend)
        host, port = parse_hostport(backend.server.address)
        doc = query_status(host, port, secret=SECRET)
        assert doc["listen"] == backend.server.address
        assert len(doc["workers"]) == 1
        assert doc["refused_count"] == 0

    def test_query_status_requires_the_secret(self, fleet):
        backend, _ = fleet
        host, port = parse_hostport(backend.server.address)
        with pytest.raises(HandshakeError, match="authentication"):
            query_status(host, port, secret="wrong")

    def test_fleet_status_cli_json(self, fleet):
        backend, spawn = fleet
        spawn()
        _wait_for_join(backend)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "status",
             "--connect", backend.server.address, "--json"],
            stdout=subprocess.PIPE, text=True, timeout=60,
            env=_worker_env())
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["protocol_version"] == PROTOCOL_VERSION
        assert len(doc["workers"]) == 1


class TestRemoteOnlyLiveness:
    def test_starved_remote_only_sweep_gives_up_loudly(self):
        backend = ShardsBackend(listen="127.0.0.1:0", secret=SECRET,
                                spawn_local=False, join_wait=1.0)
        try:
            with pytest.raises(BackendUnavailable,
                               match="no authenticated remote worker"):
                backend.run(dist_trials.square, [1, 2], [None] * 2,
                            workers=2)
        finally:
            backend.close()

    def test_remote_only_without_listener_is_rejected(self):
        from repro.dist.base import BackendError

        with pytest.raises(BackendError, match="never run a trial"):
            ShardsBackend(listen=None, secret=None, spawn_local=False)


class TestFleetSweepEquivalence:
    """The subsystem contract, now over TCP: a registry experiment
    swept through a remote-only localhost fleet is bit-identical
    (canonical-JSON checksum) to the serial sweep."""

    def test_fig4_checksum_identical_serial_vs_fleet(self, fleet):
        backend, spawn = fleet
        spawn()
        spawn()
        register_backend("fleet-under-test", lambda: backend)
        try:
            fig4 = get_experiment("fig4").fn
            serial = fig4(intensities=(1, 50), n_bits=4)
            with execution(backend="fleet-under-test"):
                fleeted = fig4(intensities=(1, 50), n_bits=4, workers=2)
            assert (stable_key(canonicalize(serial.rows))
                    == stable_key(canonicalize(fleeted.rows)))
            assert backend.last_stats["remote_workers_used"] >= 1
        finally:
            # Unregister without closing: the fixture owns the backend.
            from repro.dist import base as dist_base

            dist_base._instances.pop("fleet-under-test", None)
            dist_base._FACTORIES.pop("fleet-under-test", None)
