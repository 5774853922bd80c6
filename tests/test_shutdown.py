"""Graceful-shutdown tests: SIGTERM/SIGINT must drain and tear down.

Three contracts, each checked against a real subprocess:

* ``repro serve`` exits ``128 + signum`` on SIGTERM/SIGINT after
  draining (the CI smoke job asserts the same).
* A shards coordinator killed with SIGTERM unwinds through
  ``shutdown_backends()`` and leaves **no orphaned** ``repro worker``
  daemons.
* Ctrl-C on any CLI command exits 130 after fleet teardown.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, TESTS, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(extra)
    return env


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid reuse
        return True
    return True


def _wait_dead(pids, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return True
        time.sleep(0.05)
    return False


def _read_until(stream, pattern: str, timeout=30.0) -> str:
    deadline = time.monotonic() + timeout
    seen = []
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            time.sleep(0.01)
            continue
        seen.append(line)
        if re.search(pattern, line):
            return line
    raise AssertionError(
        f"pattern {pattern!r} never appeared; saw: {''.join(seen)!r}")


class TestServeSignals:
    @pytest.mark.parametrize("signum,code", [
        (signal.SIGTERM, 143), (signal.SIGINT, 130)])
    def test_serve_exits_128_plus_signum(self, tmp_path, signum, code):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            env=_env(), stderr=subprocess.PIPE, text=True)
        try:
            line = _read_until(proc.stderr, r"listening on http://")
            assert re.search(r":\d+$", line.strip())
            proc.send_signal(signum)
            rc = proc.wait(timeout=30)
            assert rc == code
            rest = proc.stderr.read()
            assert "shut down on" in rest
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()


class TestCoordinatorSignals:
    def test_sigterm_leaves_no_orphaned_workers(self, tmp_path):
        """Kill a coordinator mid-sweep; its worker fleet must die."""
        script = """
import sys
from repro.dist import get_backend, install_signal_shutdown

install_signal_shutdown()
backend = get_backend("shards")
backend._ensure_fleet(2)
print("pids " + " ".join(str(s.pid) for s in backend._fleet),
      flush=True)
import dist_trials
backend.run(dist_trials.sleepy,
            [{"s": 0.5, "v": i} for i in range(200)],
            [None] * 200, workers=2)
print("finished", flush=True)
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=_env(),
            stdout=subprocess.PIPE, text=True)
        try:
            line = _read_until(proc.stdout, r"^pids ")
            pids = [int(p) for p in line.split()[1:]]
            assert pids and all(_alive(p) for p in pids)
            time.sleep(0.5)  # let the sweep get into flight
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 143
            assert _wait_dead(pids), (
                f"worker daemons {pids} survived the coordinator")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in pids:
                if _alive(pid):  # pragma: no cover - cleanup
                    os.kill(pid, signal.SIGKILL)

    def test_serve_sigterm_kills_its_fleet(self, tmp_path):
        """SIGTERM on `repro serve --backend shards` mid-job drains and
        leaves no worker daemons behind."""
        import http.client
        import json

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "shards", "--workers", "2",
             "--drain-timeout", "2",
             "--cache-dir", str(tmp_path / "cache")],
            env=_env(), stderr=subprocess.PIPE, text=True)
        pids = []
        try:
            line = _read_until(proc.stderr, r"listening on http://")
            host, port = line.strip().rsplit("/", 1)[-1].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            body = json.dumps(
                {"params": {"intensities": [1, 25, 50, 75], "n_bits": 8}})
            conn.request("POST", "/v1/experiments/fig4", body=body)
            doc = json.loads(conn.getresponse().read())
            assert doc["state"] == "queued"
            conn.close()
            time.sleep(1.0)  # the job spawns the fleet; let it start
            children = _worker_children(proc.pid)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            assert rc == 143
            if children:
                assert _wait_dead(children), (
                    f"serve left worker daemons {children} behind")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()


def _worker_children(pid: int) -> list[int]:
    """Direct children of ``pid`` (via /proc; absent = empty)."""
    children: list[int] = []
    proc_root = Path("/proc")
    if not proc_root.exists():  # pragma: no cover - non-Linux
        return children
    for entry in proc_root.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if fields and int(fields[1]) == pid:
            children.append(int(entry.name))
    return children


class TestKeyboardInterrupt:
    def test_cli_exits_130_and_tears_the_fleet_down(self, monkeypatch,
                                                    capsys):
        import repro.__main__ as cli

        torn_down = []

        def fake_report(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "quick_report", fake_report)
        # main() resolves the symbol via `from repro.dist import ...`.
        monkeypatch.setattr("repro.dist.shutdown_backends",
                            lambda: torn_down.append(True))
        rc = cli.main([])
        assert rc == 130
        assert torn_down == [True]
        assert "interrupted" in capsys.readouterr().err
