"""Tests for CPU agents: probes, noise, synthetic apps, trace replay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.agent import run_agents
from repro.cpu.app import AppSpec, SyntheticAppAgent, spec_like_app
from repro.cpu.noise import (
    MAX_SLEEP_PS,
    MIN_SLEEP_PS,
    NoiseAgent,
    noise_intensity_for_sleep,
    sleep_for_noise_intensity,
)
from repro.cpu.probe import LatencyProbe
from repro.cpu.trace import TraceReplayAgent
from repro.sim.engine import MS, NS, US

from tests.conftest import make_system


class TestLatencyProbe:
    def test_collects_requested_samples(self):
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=10)
        run_agents(system, [probe], hard_limit=5 * MS)
        assert len(probe.samples) == 10
        assert probe.done

    def test_continuous_timing_deltas_sum_to_elapsed(self):
        """Listing 1 semantics: end of iteration i = start of i+1, so
        deltas tile the wall clock with no gaps."""
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=20, start_time=0,
                             overhead=0)
        run_agents(system, [probe], hard_limit=5 * MS)
        total = sum(probe.deltas)
        assert total == probe.samples[-1].end_time

    def test_alternation_creates_conflicts(self):
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=20)
        run_agents(system, [probe], hard_limit=5 * MS)
        assert system.stats.row_conflicts >= 18

    def test_accesses_per_addr_produces_hits(self):
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=20,
                             accesses_per_addr=5)
        run_agents(system, [probe], hard_limit=5 * MS)
        assert system.stats.row_hits >= 14

    def test_stop_time_bounds_run(self):
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, stop_time=5 * US)
        run_agents(system, [probe], hard_limit=5 * MS)
        assert probe.samples[-1].end_time <= 6 * US

    def test_sleep_until_pauses_without_measuring(self):
        system = make_system()
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=6)

        def nap(sample):
            if len(probe.samples) == 3:
                probe.sleep_until(system.sim.now + 10 * US)
        probe.on_sample = nap
        run_agents(system, [probe], hard_limit=5 * MS)
        # The post-sleep delta must not include the 10 us nap.
        assert all(d < 5 * US for d in probe.deltas)

    def test_requires_addresses(self):
        system = make_system()
        with pytest.raises(ValueError):
            LatencyProbe(system, [])

    def test_on_sample_callback_sees_every_sample(self):
        system = make_system()
        seen = []
        addrs = system.mapper.same_bank_rows(2, stride=8)
        probe = LatencyProbe(system, addrs, max_samples=7,
                             on_sample=seen.append)
        run_agents(system, [probe], hard_limit=5 * MS)
        assert len(seen) == 7


class TestNoiseModel:
    def test_eq2_endpoints(self):
        assert sleep_for_noise_intensity(1.0) == MAX_SLEEP_PS
        assert sleep_for_noise_intensity(100.0) == MIN_SLEEP_PS

    def test_eq2_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sleep_for_noise_intensity(0.5)
        with pytest.raises(ValueError):
            noise_intensity_for_sleep(MAX_SLEEP_PS + 1)

    @given(st.floats(min_value=1.0, max_value=100.0))
    def test_eq2_roundtrip(self, intensity):
        sleep = sleep_for_noise_intensity(intensity)
        back = noise_intensity_for_sleep(sleep)
        assert abs(back - intensity) < 0.01

    @given(st.integers(min_value=MIN_SLEEP_PS, max_value=MAX_SLEEP_PS))
    def test_eq2_monotone(self, sleep):
        """Less sleep = more intensity (the paper's linear mapping)."""
        if sleep < MAX_SLEEP_PS:
            assert noise_intensity_for_sleep(sleep) > \
                noise_intensity_for_sleep(sleep + 1)

    def test_noise_agent_generates_activations(self):
        system = make_system()
        rows = system.mapper.same_bank_rows(2, stride=8)
        agent = NoiseAgent(system, rows, sleep_ps=200 * NS,
                           stop_time=20 * US)
        run_agents(system, [agent], hard_limit=5 * MS)
        assert system.stats.activations >= 50

    def test_higher_intensity_means_more_activations(self):
        def acts(intensity):
            system = make_system()
            rows = system.mapper.same_bank_rows(2, stride=8)
            agent = NoiseAgent.for_intensity(system, rows, intensity,
                                             stop_time=50 * US)
            run_agents(system, [agent], hard_limit=5 * MS)
            return system.stats.activations
        assert acts(100) > 2 * acts(1)

    def test_burst_parameter(self):
        system = make_system()
        rows = system.mapper.same_bank_rows(2, stride=8)
        a4 = NoiseAgent(system, rows, sleep_ps=1 * US, burst=4,
                        stop_time=20 * US)
        run_agents(system, [a4], hard_limit=5 * MS)
        acts4 = system.stats.activations
        system2 = make_system()
        rows2 = system2.mapper.same_bank_rows(2, stride=8)
        a1 = NoiseAgent(system2, rows2, sleep_ps=1 * US, burst=1,
                        stop_time=20 * US)
        run_agents(system2, [a1], hard_limit=5 * MS)
        assert acts4 > 2 * system2.stats.activations

    def test_rejects_single_row(self):
        system = make_system()
        with pytest.raises(ValueError):
            NoiseAgent(system, [system.mapper.encode(row=1)], 1000)


class TestSyntheticApp:
    def _spec(self, **kwargs) -> AppSpec:
        base = dict(name="app", think_ps=50 * NS, p_row_hit=0.5,
                    n_rows=32, banks=((0, 0), (1, 0)), n_requests=200,
                    seed=1)
        base.update(kwargs)
        return AppSpec(**base)

    def test_completes_requested_count(self):
        system = make_system()
        agent = SyntheticAppAgent(system, self._spec())
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.requests_done == 200
        assert agent.elapsed > 0

    def test_deterministic_for_seed(self):
        def finish(seed):
            system = make_system()
            agent = SyntheticAppAgent(system, self._spec(seed=seed))
            run_agents(system, [agent], hard_limit=50 * MS)
            return agent.finish_time
        assert finish(5) == finish(5)
        assert finish(5) != finish(6)

    def test_zipf_concentrates_on_hot_rows(self):
        system = make_system()
        agent = SyntheticAppAgent(
            system, self._spec(zipf_s=1.2, p_row_hit=0.0,
                               n_requests=500))
        rows = []
        orig = agent._sample_location
        agent._sample_location = lambda: rows.append(orig()) or rows[-1]
        run_agents(system, [agent], hard_limit=50 * MS)
        counts = {}
        for loc in rows:
            counts[loc] = counts.get(loc, 0) + 1
        top = max(counts.values())
        assert top > len(rows) / 10  # hottest location dominates

    def test_uniform_zipf_spreads(self):
        system = make_system()
        agent = SyntheticAppAgent(
            system, self._spec(zipf_s=0.0, p_row_hit=0.0, n_requests=500))
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.requests_done == 500

    def test_higher_think_time_runs_longer(self):
        def elapsed(think):
            system = make_system()
            agent = SyntheticAppAgent(system, self._spec(think_ps=think))
            run_agents(system, [agent], hard_limit=500 * MS)
            return agent.elapsed
        assert elapsed(500 * NS) > elapsed(10 * NS)

    def test_spec_like_classes_ordered_by_intensity(self):
        banks = ((0, 0),)
        l = spec_like_app("L", "l", 1, banks)
        m = spec_like_app("M", "m", 1, banks)
        h = spec_like_app("H", "h", 1, banks)
        assert l.think_ps > m.think_ps > h.think_ps
        assert l.p_row_hit > m.p_row_hit > h.p_row_hit

    def test_spec_like_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            spec_like_app("X", "x", 1, ((0, 0),))

    def test_validation(self):
        with pytest.raises(ValueError):
            self._spec(p_row_hit=1.5).validate()
        with pytest.raises(ValueError):
            self._spec(banks=()).validate()
        with pytest.raises(ValueError):
            self._spec(zipf_s=-1).validate()


class TestTraceReplay:
    def test_replays_all_records(self):
        system = make_system()
        trace = [(i * 100 * NS, system.mapper.encode(row=i % 4))
                 for i in range(50)]
        agent = TraceReplayAgent(system, trace)
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.completed == 50
        assert system.stats.requests_served == 50

    def test_respects_schedule_when_memory_keeps_up(self):
        system = make_system()
        trace = [(i * 1 * US, system.mapper.encode(row=1)) for i in range(5)]
        agent = TraceReplayAgent(system, trace)
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.finish_time >= 4 * US

    def test_outstanding_bound(self):
        system = make_system()
        # All records due at t=0: issue is limited by max_outstanding.
        trace = [(0, system.mapper.encode(row=i)) for i in range(20)]
        agent = TraceReplayAgent(system, trace, max_outstanding=2)
        max_seen = 0
        orig = system.controller.submit

        def counting(addr, cb, is_write=False):
            nonlocal max_seen
            max_seen = max(max_seen, agent._outstanding)
            return orig(addr, cb, is_write)

        system.controller.submit = counting
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.completed == 20
        assert max_seen <= 2

    def test_wakes_grow_linearly_with_trace_length(self):
        """One pending wake per due time: a wake that finds the next
        record not yet due must not stack another one on top of the
        wake already armed for it (that made wakes quadratic)."""
        system = make_system()
        trace = [(i * 1 * US, system.mapper.encode(row=i % 4))
                 for i in range(200)]
        agent = TraceReplayAgent(system, trace)
        run_agents(system, [agent], hard_limit=50 * MS)
        assert agent.completed == 200
        assert system.sim.events_run <= 3 * len(trace)

    def test_empty_trace_finishes_immediately(self):
        system = make_system()
        agent = TraceReplayAgent(system, [])
        run_agents(system, [agent], hard_limit=1 * MS)
        assert agent.done

    def test_rejects_bad_outstanding(self):
        system = make_system()
        with pytest.raises(ValueError):
            TraceReplayAgent(system, [], max_outstanding=0)
