"""Tests for the telemetry subsystem (:mod:`repro.obs`): the metrics
registry, its instrumentation hooks across engine/cache/dist/serve,
trial-lifecycle tracing, and the observability satellites (monotonic
job durations, progress line)."""

from __future__ import annotations

import io
import json
import time
import warnings

import pytest

import dist_trials
from repro.obs import metrics, trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    REGISTRY,
    Registry,
)


@pytest.fixture(autouse=True)
def _telemetry_on():
    """Every test here runs with telemetry enabled and tracing off,
    whatever the ambient environment says."""
    was = metrics.enabled()
    metrics.set_enabled(True)
    yield
    metrics.set_enabled(was)
    if trace.active():
        trace.stop()


# ----------------------------------------------------------------------
# Registry unit tests
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_labels(self):
        reg = Registry()
        c = reg.counter("t_total", "help me")
        c.inc()
        c.inc(2, kind="a")
        c.inc(kind="a")
        assert reg.get_value("t_total") == 1
        assert reg.get_value("t_total", kind="a") == 3
        assert reg.get_value("t_total", kind="zzz") == 0.0

    def test_gauge_set_inc_dec(self):
        reg = Registry()
        g = reg.gauge("t_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert reg.get_value("t_depth") == 4

    def test_histogram_buckets_and_series(self):
        reg = Registry()
        h = reg.histogram("t_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 3.0):
            h.observe(v)
        ((labels, buckets, count, total),) = h.series()
        assert labels == {}
        assert buckets == [1, 2]  # cumulative: <=0.1, <=1.0
        assert count == 3
        assert total == pytest.approx(3.55)

    def test_declare_is_idempotent_but_kind_checked(self):
        reg = Registry()
        first = reg.counter("t_total")
        assert reg.counter("t_total") is first
        with pytest.raises(TypeError):
            reg.gauge("t_total")

    def test_disabled_fast_path_records_nothing(self):
        reg = Registry()
        c = reg.counter("t_total")
        metrics.set_enabled(False)
        c.inc(100)
        metrics.set_enabled(True)
        assert reg.get_value("t_total") == 0.0

    def test_prometheus_exposition_shape(self):
        reg = Registry()
        reg.counter("t_total", 'with "quotes"\nand newline').inc(
            3, route="/v1/jobs")
        reg.histogram("t_seconds", buckets=(0.5,)).observe(0.1)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        assert "# TYPE t_total counter" in text
        assert '# HELP t_total with \\"quotes\\"\\nand newline' in text
        assert 't_total{route="/v1/jobs"} 3' in text
        assert '# TYPE t_seconds histogram' in text
        assert 't_seconds_bucket{le="0.5"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_sum 0.1" in text
        assert "t_seconds_count 1" in text

    def test_snapshot_prefix_filter(self):
        reg = Registry()
        reg.counter("aaa_total").inc()
        reg.counter("bbb_total").inc()
        snap = reg.snapshot(prefix="aaa")
        assert set(snap) == {"aaa_total"}
        assert snap["aaa_total"]["samples"] == [
            {"labels": {}, "value": 1}]

    def test_reset_zeroes_everything(self):
        reg = Registry()
        reg.counter("t_total").inc(9)
        reg.gauge("t_depth").set(4)
        reg.reset()
        assert reg.get_value("t_total") == 0.0
        assert reg.get_value("t_depth") == 0.0

    def test_collector_replace_by_name(self):
        reg = Registry()
        g = reg.gauge("t_depth")
        reg.add_collector("probe", lambda r: g.set(1))
        reg.add_collector("probe", lambda r: g.set(2))
        reg.collect()
        assert reg.get_value("t_depth") == 2
        reg.remove_collector("probe")

    def test_registry_singleton_has_core_collectors(self):
        names = list(REGISTRY._collectors)
        assert "engine" in names


# ----------------------------------------------------------------------
# Instrumentation: engine + cache
# ----------------------------------------------------------------------
class TestEngineCounters:
    def test_run_publishes_global_event_counts(self):
        from repro.sim import engine as engine_mod
        from repro.sim.engine import NS, Simulator

        before = engine_mod.global_counters()["events_run"]
        reg_before = _collected("repro_engine_events_run_total")
        sim = Simulator()
        for i in range(10):
            sim.schedule(i * NS, lambda: None)
        sim.run()
        after = engine_mod.global_counters()["events_run"]
        assert after - before == 10
        assert (_collected("repro_engine_events_run_total")
                - reg_before) == 10

    def test_run_loop_makes_no_metric_calls(self, monkeypatch):
        """Telemetry never enters the event loop: a long run with
        telemetry on mutates no metric, and its events reach the
        registry only through the process-wide totals published at
        ``run()`` exit."""
        from repro.sim import engine as engine_mod
        from repro.sim.engine import NS, Simulator

        calls = []

        def counting(method):
            def wrapper(self, *args, **labels):
                calls.append(self.name)
                return method(self, *args, **labels)
            return wrapper

        for cls, name in ((Counter, "inc"), (Gauge, "set"),
                          (Gauge, "inc"), (Histogram, "observe")):
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))

        # Same-instant, near and far events, as in a memory
        # simulation: a 1 ns chain with wake-ups and far refresh ticks.
        sim = Simulator()
        ticks = 0

        def tick():
            nonlocal ticks
            ticks += 1
            if ticks < 8_000:
                sim.schedule(1 * NS, tick)
                if ticks % 3 == 0:
                    sim.schedule(0, lambda: None)
                if ticks % 64 == 0:
                    sim.schedule(3900 * NS, lambda: None)

        sim.schedule(1, tick)
        before = engine_mod.global_counters()["events_run"]
        executed = sim.run()
        assert executed >= 10_000
        assert calls == []
        assert (engine_mod.global_counters()["events_run"] - before
                == executed)

    def test_absorb_counters_folds_remote_deltas(self):
        from repro.sim import engine as engine_mod

        before = engine_mod.global_counters()
        engine_mod.absorb_counters({"events_run": 5, "events_elided": 2,
                                    "bogus": 99, "events_run2": -1})
        after = engine_mod.global_counters()
        assert after["events_run"] - before["events_run"] == 5
        assert after["events_elided"] - before["events_elided"] == 2
        assert "bogus" not in after


def _collected(name: str, **labels) -> float:
    REGISTRY.collect()
    return REGISTRY.get_value(name, **labels)


class TestCacheCounters:
    def test_hit_miss_put_counters(self, tmp_path):
        from repro.exp.cache import ResultCache

        cache = ResultCache(tmp_path)
        hits0 = REGISTRY.get_value("repro_cache_hits_total")
        misses0 = REGISTRY.get_value("repro_cache_misses_total")
        puts0 = REGISTRY.get_value("repro_cache_puts_total")
        bytes0 = REGISTRY.get_value("repro_cache_put_bytes_total")

        hit, _ = cache.get("k" * 64)
        assert not hit
        cache.put("k" * 64, {"x": 1})
        hit, value = cache.get("k" * 64)
        assert hit and value == {"x": 1}

        assert REGISTRY.get_value("repro_cache_hits_total") - hits0 == 1
        assert REGISTRY.get_value("repro_cache_misses_total") - misses0 == 1
        assert REGISTRY.get_value("repro_cache_puts_total") - puts0 == 1
        assert REGISTRY.get_value("repro_cache_put_bytes_total") > bytes0

    def test_clear_counts_tmp_orphans(self, tmp_path):
        from repro.exp.cache import ResultCache

        cache = ResultCache(tmp_path)
        shard = tmp_path / "aa"
        shard.mkdir()
        (shard / ("a" * 64 + ".pkl.tmp")).write_bytes(b"orphan")
        orphans0 = REGISTRY.get_value(
            "repro_cache_tmp_orphans_swept_total")
        cache.clear()
        assert (REGISTRY.get_value("repro_cache_tmp_orphans_swept_total")
                - orphans0) == 1


# ----------------------------------------------------------------------
# Instrumentation: shards coordinator (per-sweep gauges reset, dist
# counters accumulate)
# ----------------------------------------------------------------------
@pytest.fixture()
def backend():
    from repro.dist.shards import ShardsBackend

    instance = ShardsBackend()
    yield instance
    instance.close()


class TestSweepMetrics:
    def test_engine_counters_equal_across_backends(self, backend):
        """Trials run in pool children or shards workers reach the
        coordinator's engine counters exactly as serial trials do."""
        from repro.dist import get_backend
        from repro.sim import engine as engine_mod

        def engine_delta(runner):
            before = engine_mod.global_counters()
            elided = runner.run(dist_trials.elision_trial, [0, 1],
                                [None] * 2, workers=2)
            after = engine_mod.global_counters()
            delta = {k: after[k] - before[k] for k in after}
            assert delta["events_elided"] == sum(elided)
            return delta

        serial = engine_delta(get_backend("serial"))
        assert serial["events_run"] > 0 and serial["events_elided"] > 0
        assert engine_delta(get_backend("pool")) == serial
        assert engine_delta(backend) == serial

    def test_crash_requeue_lands_in_registry(self, backend, tmp_path):
        requeues0 = REGISTRY.get_value("repro_dist_requeues_total")
        marker = str(tmp_path / "crashed-once")
        points = [{"v": v, "marker": marker if v == 2 else None}
                  for v in range(4)]
        with pytest.warns(RuntimeWarning, match="died.*requeueing"):
            backend.run(dist_trials.crash_once, points, [None] * 4,
                        workers=2)
        assert (REGISTRY.get_value("repro_dist_requeues_total")
                - requeues0) == 1
        assert REGISTRY.get_value("repro_sweep_requeues") == 1
        assert REGISTRY.get_value("repro_sweep_crashes") == 1
        dispatched = REGISTRY.get_value("repro_dist_tasks_dispatched_total")
        # Clean follow-up sweep: the per-sweep gauges start over ...
        backend.run(dist_trials.square, [1], [None], workers=1)
        assert REGISTRY.get_value("repro_sweep_requeues") == 0
        assert REGISTRY.get_value("repro_sweep_crashes") == 0
        # ... while the process-lifetime dispatch counter accumulates.
        assert (REGISTRY.get_value("repro_dist_tasks_dispatched_total")
                - dispatched) == 1

    def test_worker_trial_counts(self, backend):
        backend.run(dist_trials.square, list(range(6)), [None] * 6,
                    workers=2)
        per_worker = backend.last_stats["worker_trials"]
        assert sum(per_worker.values()) == 6
        for worker_id, count in per_worker.items():
            assert REGISTRY.get_value("repro_dist_worker_trials_total",
                                      worker=worker_id) >= count


# ----------------------------------------------------------------------
# Trial-lifecycle tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_crash_requeued_trial_reconstructs_both_attempts(
            self, tmp_path):
        from repro.dist import shutdown_backends
        from repro.exp.runner import map_trials

        marker = str(tmp_path / "crashed-once")
        points = [{"v": v, "marker": marker if v == 2 else None}
                  for v in range(4)]
        path = tmp_path / "sweep.ndjson"
        trace.start(str(path))
        try:
            with pytest.warns(RuntimeWarning, match="died.*requeueing"):
                out = map_trials(dist_trials.crash_once, points,
                                 backend="shards", workers=2)
        finally:
            events = trace.stop()
            shutdown_backends()
        assert out == [0, 1, 4, 9]

        lives = trace.lifecycles(events)
        assert len(lives) == 4
        # Exactly one trial was requeued because its worker died (any
        # in-flight mates are requeued alongside it with why="mate").
        died = [trial for trial, life in lives.items()
                if any(ev["ev"] == "requeued" and ev.get("why") != "mate"
                       for ev in life["events"])]
        assert len(died) == 1
        assert lives[died[0]]["attempts"] == 2
        assert all(life["outcome"] == "completed"
                   for life in lives.values())
        # Every trial dispatched twice has the requeue that explains it.
        assert all(life["requeues"] >= life["attempts"] - 1
                   for life in lives.values())

        summary = trace.summarize(events)
        assert summary["trials"] == 4
        assert summary["completed"] == 4
        assert summary["requeues"] >= 1
        assert summary["max_attempts"] == 2

        # The NDJSON sink round-trips the in-memory buffer.
        assert trace.load_ndjson(str(path)) == events

        # The Chrome export carries a lifecycle span per trial, the
        # crash-requeued one showing both attempts in its args.
        doc = trace.chrome_trace(events)
        spans = [ev for ev in doc["traceEvents"]
                 if ev.get("ph") == "X" and ev.get("pid") == 2]
        assert len(spans) == 4
        assert max(ev["args"]["attempts"] for ev in spans) == 2

    def test_cache_hits_traced_as_cached(self, tmp_path):
        from repro.exp.cache import ResultCache
        from repro.exp.runner import map_trials

        cache = ResultCache(tmp_path / "cache")
        trace.start()
        try:
            map_trials(dist_trials.square, [1, 2], trial_cache=cache)
            map_trials(dist_trials.square, [1, 2], trial_cache=cache)
        finally:
            events = trace.stop()
        outcomes = [life["outcome"]
                    for life in trace.lifecycles(events).values()]
        assert sorted(outcomes) == ["cached", "cached",
                                    "completed", "completed"]

    def test_inactive_trace_emits_nothing(self):
        from repro.exp.runner import map_trials

        assert not trace.active()
        before = trace.events()
        map_trials(dist_trials.square, [1, 2])
        assert trace.events() == before

    def test_corrupt_ndjson_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ev": "queued", "trial": "s1:0", "t": 1.0}\n'
                        "not json\n\n"
                        '{"ev": "completed", "trial": "s1:0", "t": 2.0}\n')
        events = trace.load_ndjson(str(path))
        assert [ev["ev"] for ev in events] == ["queued", "completed"]


# ----------------------------------------------------------------------
# Satellites: monotonic job durations, progress
# ----------------------------------------------------------------------
class TestJobDurations:
    def test_duration_survives_wall_clock_stepping_backwards(
            self, monkeypatch):
        from repro.serve import jobs as jobs_mod

        real_time = time

        class _SteppingClock:
            """Wall clock that steps 1 hour backwards mid-job."""

            def __init__(self):
                self.wall = 1_000_000.0

            def time(self):
                self.wall -= 3600.0
                return self.wall

            def monotonic(self):
                return real_time.monotonic()

        monkeypatch.setattr(jobs_mod, "time", _SteppingClock())
        job = jobs_mod.Job("experiment", "t", "k", work=None)
        job._set_running()

        class _Run:
            trials = 1
            elapsed_s = 0.0

        job._finish(_Run(), "abc")
        doc = job.to_doc()
        assert doc["finished"] < doc["started"]  # wall went backwards
        assert doc["duration_s"] is not None
        assert 0.0 <= doc["duration_s"] < 5.0  # monotonic, not wall


class TestProgressLine:
    def test_line_includes_fleet_state_when_live(self):
        from repro.dist.progress import SweepProgress

        workers = REGISTRY.gauge("repro_dist_workers_active")
        requeues = REGISTRY.gauge("repro_sweep_requeues")
        old = (workers.value(), requeues.value())
        stream = io.StringIO()
        progress = SweepProgress(stream)
        try:
            workers.set(0)
            requeues.set(0)
            progress(3, 10, 1)
            assert "3/10 trials (cache: 1 hits)" in stream.getvalue()
            workers.set(4)
            requeues.set(2)
            progress(4, 10, 1)
            assert ("4/10 trials (cache: 1 hits, workers: 4, "
                    "requeues: 2)") in stream.getvalue()
        finally:
            workers.set(old[0])
            requeues.set(old[1])


# ----------------------------------------------------------------------
# /metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.exp.cache import ResultCache
        from repro.serve.server import ServerThread

        with ServerThread(cache=ResultCache(tmp_path)) as srv:
            yield srv

    def _get(self, server, path):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), \
                response.read()
        finally:
            conn.close()

    def test_prometheus_text(self, server):
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "# TYPE repro_serve_job_queue_depth gauge" in text

    def test_json_snapshot_and_self_observation(self, server):
        self._get(server, "/metrics")
        status, _, body = self._get(server, "/metrics?format=json")
        assert status == 200
        doc = json.loads(body)["metrics"]
        samples = doc["repro_serve_requests_total"]["samples"]
        by_route = {s["labels"].get("route"): s["value"]
                    for s in samples}
        assert by_route.get("/metrics", 0) >= 1
