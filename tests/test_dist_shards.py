"""Tests for the shards backend: worker protocol round trips, crash
recovery, timeouts, fast-forward propagation, and the sweep-equivalence
contract (shards == serial, bit for bit)."""

import os
import subprocess
import sys
import warnings

import pytest

import dist_trials
from repro.dist import execution
from repro.dist.protocol import (
    FINGERPRINT_ENV,
    HandshakeError,
    PROTOCOL_VERSION,
    VERSION_ENV,
    dump_frame,
    encode_value,
    parse_frame,
)
from repro.dist.shards import ShardError, ShardsBackend, TIMEOUT_ENV
from repro.exp.cache import canonicalize, stable_key
from repro.exp.registry import get_experiment
from repro.exp.runner import derive_seed, map_trials


def _talk_to_worker(frames, timeout=60):
    """Feed frames to one ``python -m repro worker`` and collect its
    reply frames (the worker exits on shutdown/EOF)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--no-warm"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env)
    stdin = "".join(dump_frame(f) for f in frames)
    out, err = proc.communicate(stdin, timeout=timeout)
    replies = [f for f in map(parse_frame, out.splitlines())
               if f is not None]
    return replies, err, proc.returncode


class TestWorkerDaemon:
    def test_hello_run_ping_shutdown(self):
        replies, _, rc = _talk_to_worker([
            {"op": "run", "id": "1:0", "fn": "dist_trials:square",
             "point": encode_value(7), "seed": None, "ff": None},
            {"op": "ping", "id": "p1"},
            {"op": "shutdown"},
        ])
        assert rc == 0
        hello = replies[0]
        assert hello["op"] == "hello"
        assert hello["version"] == PROTOCOL_VERSION
        # The hello carries the worker's source-tree fingerprint (the
        # coordinator refuses the worker without a matching one).
        assert len(hello["fingerprint"]) == 64
        result = next(f for f in replies if f.get("id") == "1:0")
        assert result["ok"] and result["result"] == {"j": 49}
        assert any(f.get("op") == "pong" and f.get("id") == "p1"
                   for f in replies)

    def test_trial_error_is_a_frame_not_a_death(self):
        replies, _, rc = _talk_to_worker([
            {"op": "run", "id": "1:0", "fn": "dist_trials:boom",
             "point": encode_value(3), "seed": None, "ff": None},
            {"op": "run", "id": "1:1", "fn": "dist_trials:square",
             "point": encode_value(3), "seed": None, "ff": None},
        ])
        assert rc == 0  # EOF after the frames; the worker lived on
        failed = next(f for f in replies if f.get("id") == "1:0")
        assert failed["ok"] is False and "boom 3" in failed["exc"]
        assert "Traceback" in failed["traceback"]
        ok = next(f for f in replies if f.get("id") == "1:1")
        assert ok["ok"] and ok["result"] == {"j": 9}


@pytest.fixture()
def backend():
    """A private fleet (not the process-wide singleton), torn down
    hard so no worker outlives its test."""
    instance = ShardsBackend()
    yield instance
    instance.close()


class TestShardsRoundTrip:
    def test_results_in_point_order(self, backend):
        points = list(range(10))
        out = backend.run(dist_trials.square, points, [None] * 10,
                          workers=2)
        assert out == [p * p for p in points]

    def test_fleet_is_reused_across_sweeps(self, backend):
        backend.run(dist_trials.square, [1, 2], [None, None], workers=2)
        fleet = list(backend._fleet)
        backend.run(dist_trials.square, [3, 4], [None, None], workers=2)
        assert backend._fleet == fleet  # same daemons, no respawn

    def test_workers_cap_respected_on_an_oversized_fleet(self, backend):
        """A narrow sweep must not fan out over daemons a wider earlier
        sweep left alive: --workers is a concurrency bound."""
        backend.run(dist_trials.square, [1, 2, 3], [None] * 3, workers=3)
        assert len(backend._fleet) == 3
        backend.run(dist_trials.square, list(range(6)), [None] * 6,
                    workers=1)
        assert backend.last_stats["workers_used"] == 1

    def test_seeds_travel_with_their_points(self, backend):
        seeds = [derive_seed(7, i) for i in range(4)]
        out = backend.run(dist_trials.seeded, list("abcd"), seeds,
                          workers=2)
        assert out == [("a", seeds[0]), ("b", seeds[1]),
                       ("c", seeds[2]), ("d", seeds[3])]

    def test_non_json_results_are_exact(self, backend):
        out = backend.run(dist_trials.tuple_result, [1, 2],
                          [None, None], workers=2)
        assert out == [(1, 2), (2, 3)]
        assert all(isinstance(v, tuple) for v in out)

    def test_trial_exception_reraised_with_original_type(self, backend):
        with pytest.raises(ValueError, match="boom 5"):
            backend.run(dist_trials.boom, [5], [None], workers=1)

    def test_fleet_survives_a_trial_exception(self, backend):
        with pytest.raises(ValueError):
            backend.run(dist_trials.boom, [5], [None], workers=1)
        out = backend.run(dist_trials.square, [6], [None], workers=1)
        assert out == [36]

    def test_unshippable_result_is_an_error_not_a_crash(self, backend):
        with pytest.raises(Exception, match="pickle|lambda"):
            backend.run(dist_trials.unshippable_result, [1], [None],
                        workers=1)
        assert backend.last_stats["crashes"] == 0  # never retried
        out = backend.run(dist_trials.square, [3], [None], workers=1)
        assert out == [9]  # same daemon, still alive

    def test_streaming_callback_sees_every_point(self, backend):
        landed = {}
        backend.run(dist_trials.square, [3, 4], [None, None], workers=2,
                    on_result=landed.__setitem__)
        assert landed == {0: 9, 1: 16}


class TestFastForwardPropagation:
    def test_forced_mode_reaches_the_workers(self, backend):
        from repro.sim import fastforward

        with fastforward.forced("off"):
            off = backend.run(dist_trials.ff_enabled, [0], [None],
                              workers=1)
        with fastforward.forced("on"):
            on = backend.run(dist_trials.ff_enabled, [0], [None],
                             workers=1)
        assert off == [False]
        assert on == [True]


@pytest.fixture()
def spawned(monkeypatch):
    """Every stdio shard the backend spawns during the test."""
    from repro.dist import shards

    made = []
    spawn = shards.spawn_shard

    def recording_spawn(outq):
        made.append(spawn(outq))
        return made[-1]

    monkeypatch.setattr(shards, "spawn_shard", recording_spawn)
    return made


def _assert_closed(shard):
    """Both pipes closed and the process reaped (no zombie left)."""
    assert shard._rfile.closed and shard._wfile.closed
    with pytest.raises(ChildProcessError):
        os.waitpid(shard.pid, os.WNOHANG)


class TestCrashRecovery:
    def test_sweep_survives_a_worker_crash(self, backend, spawned,
                                           tmp_path):
        marker = str(tmp_path / "crashed-once")
        points = [{"v": v, "marker": marker if v == 2 else None}
                  for v in range(4)]
        with pytest.warns(RuntimeWarning, match="died.*requeueing"):
            out = backend.run(dist_trials.crash_once, points,
                              [None] * 4, workers=2)
        assert out == [0, 1, 4, 9]  # identical to an uninterrupted run
        assert backend.last_stats["crashes"] == 1
        assert backend.last_stats["retries"] == 1
        dead = [s for s in spawned if not s.alive]
        assert len(dead) == 1
        _assert_closed(dead[0])
        backend.close()
        for shard in spawned:
            _assert_closed(shard)

    def test_point_that_keeps_killing_workers_gives_up(self, backend):
        # This point crashes every worker that touches it; the retry
        # budget must bound the carnage instead of looping forever.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ShardError, match="giving up"):
                backend.run(dist_trials.always_crash, [{"v": 1}], [None],
                            workers=2)

    def test_per_trial_timeout_kills_and_requeues(self, backend, spawned,
                                                  tmp_path, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.0")
        marker = str(tmp_path / "hung-once")
        points = [{"v": 10, "marker": marker}]
        with pytest.warns(RuntimeWarning) as records:
            out = backend.run(dist_trials.hang_once, points, [None],
                              workers=1)
        messages = [str(r.message) for r in records]
        assert any("timeout" in m for m in messages)  # the kill
        assert any("requeueing" in m for m in messages)  # the recovery
        assert out == [11]
        assert backend.last_stats["timeouts"] == 1
        killed = [s for s in spawned if not s.alive]
        assert len(killed) == 1
        _assert_closed(killed[0])


class TestLocalHandshake:
    """Satellite of the fleet handshake: the *local* stdio path must
    refuse a version/fingerprint-mismatched worker at spawn instead of
    dispatching to it (the pre-fix coordinator skipped every hello)."""

    def test_fingerprint_mismatch_refused_at_spawn(self, backend,
                                                   monkeypatch):
        # The spawned worker inherits the env and *claims* a skewed
        # source fingerprint; the coordinator must refuse it, naming
        # both fingerprints, before it runs a single trial.
        monkeypatch.setenv(FINGERPRINT_ENV, "deadbeef")
        with pytest.raises(HandshakeError) as info:
            backend.run(dist_trials.square, [1], [None], workers=1)
        message = str(info.value)
        assert "fingerprint mismatch" in message
        assert "deadbeef" in message

    def test_version_mismatch_refused_at_spawn(self, backend,
                                               monkeypatch):
        monkeypatch.setenv(VERSION_ENV, "1")
        with pytest.raises(HandshakeError) as info:
            backend.run(dist_trials.square, [1], [None], workers=1)
        message = str(info.value)
        assert "version mismatch" in message
        assert "speaks 1" in message
        assert f"requires {PROTOCOL_VERSION}" in message

    def test_handshake_error_is_not_swallowed_by_fallback(self,
                                                          monkeypatch):
        # map_trials falls back to serial only on BackendUnavailable;
        # a refused local worker is a broken deployment and must fail
        # the sweep loudly instead of silently simulating anyway.
        from repro.dist import shutdown_backends

        # Drop the process-wide singleton's already-validated fleet so
        # this sweep must spawn (and refuse) fresh workers.
        shutdown_backends()
        monkeypatch.setenv(FINGERPRINT_ENV, "deadbeef")
        with pytest.raises(HandshakeError):
            map_trials(dist_trials.square, [1, 2], backend="shards",
                       workers=2)


class TestMapTrialsIntegration:
    def test_map_trials_shards_equals_serial(self):
        points = list(range(6))
        serial = map_trials(dist_trials.square, points, backend="serial")
        sharded = map_trials(dist_trials.square, points,
                             backend="shards", workers=2)
        assert sharded == serial

    def test_unaddressable_fn_falls_back_with_named_warning(self):
        with pytest.warns(RuntimeWarning, match="'shards'.*addressable"):
            out = map_trials(lambda p: p + 1, [1, 2], backend="shards",
                             workers=2)
        assert out == [2, 3]


class TestSweepEquivalence:
    """The subsystem contract: a registry experiment swept through the
    shards fleet is bit-identical (canonical-JSON checksum) to the
    serial sweep."""

    def test_fig4_checksum_identical_serial_vs_shards(self):
        fig4 = get_experiment("fig4").fn
        serial = fig4(intensities=(1, 50), n_bits=4)
        with execution(backend="shards"):
            sharded = fig4(intensities=(1, 50), n_bits=4, workers=2)
        assert (stable_key(canonicalize(serial.rows))
                == stable_key(canonicalize(sharded.rows)))
