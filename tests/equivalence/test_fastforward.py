"""Steady-state fast-forward: unit equivalence + engine edge cases.

Every test here runs the same workload twice -- fast-forward forced
off, then on -- and asserts bit-identical observables.  The edge cases
pin the jump-bound semantics the optimization's safety argument leans
on: an event exactly at the quiescence horizon, zero-length jumps,
interruption by a stale controller wake, and ``run(until)`` chunk
boundaries landing inside a jumped window.
"""

from __future__ import annotations

import pytest

from repro.cpu.probe import LatencyProbe
from repro.sim import fastforward
from repro.sim.config import (
    DefenseKind,
    DefenseParams,
    RefreshPolicy,
    SystemConfig,
)
from repro.sim.engine import Simulator
from repro.system import MemorySystem


def build_probe_system(mode, *, rows=(5,), max_samples=60, nbo=None,
                       refresh=RefreshPolicy.NONE, accesses_per_addr=1):
    defense = (DefenseParams() if nbo is None
               else DefenseParams(kind=DefenseKind.PRAC, nbo=nbo))
    with fastforward.forced(mode):
        system = MemorySystem(SystemConfig(
            defense=defense, refresh_policy=refresh))
    addrs = [system.mapper.encode(row=r) for r in rows]
    probe = LatencyProbe(system, addrs, max_samples=max_samples,
                         accesses_per_addr=accesses_per_addr)
    return system, probe


def run_to_completion(system, probe, step=1_000_000):
    """Advance in chunks until the probe finishes (a perpetual refresh
    scheduler means the event queue never drains on its own)."""
    probe.start()
    deadline = 1_000_000_000  # 1 ms of simulated time, far beyond need
    while not probe.done:
        system.sim.run(until=system.sim.now + step)
        assert system.sim.now < deadline, "probe never finished"
    return probe


def observables(system, probe):
    stats = system.stats
    bank = probe.addrs and system.controller.banks[0][0]
    return {
        "samples": list(probe.samples),
        "finish": probe.finish_time,
        "counters": dict(stats.act_rate_summary),
        "precharges": stats.precharges,
        "blocks": list(stats.blocks),
        "bank": (bank.open_row, bank.busy_until, bank.act_time,
                 bank.hit_streak),
    }


def both_worlds(**kwargs):
    base_sys, base_probe = build_probe_system("off", **kwargs)
    run_to_completion(base_sys, base_probe)
    ff_sys, ff_probe = build_probe_system("on", **kwargs)
    run_to_completion(ff_sys, ff_probe)
    return (base_sys, base_probe), (ff_sys, ff_probe)


class TestJumpEquivalence:
    def test_hit_stream_identical_and_jumps(self):
        (bs, bp), (fs, fp) = both_worlds(rows=(5,), max_samples=200)
        assert observables(bs, bp) == observables(fs, fp)
        assert fs.fast_forward.jumps > 0
        assert fs.sim.events_elided > 0
        # The jump's whole point: far fewer dispatched events.
        assert fs.sim.events_run < bs.sim.events_run

    def test_conflict_stream_under_prac_identical(self):
        (bs, bp), (fs, fp) = both_worlds(
            rows=(5, 13), max_samples=400, nbo=48,
            refresh=RefreshPolicy.EVERY_TREFI)
        assert observables(bs, bp) == observables(fs, fp)
        assert fs.fast_forward.jumps > 0
        # Back-offs occurred (threshold crossings ran live, not jumped).
        assert fs.stats.backoffs > 0
        # Defense counters aged exactly.
        assert fs.defense.counters == bs.defense.counters

    def test_jump_state_matches_elision_only_execution(self):
        """The extrapolated state equals event-accurate (elision-only)
        execution field by field -- including the logical event count
        (dispatched + elided) and engine/controller seq counters."""
        fs, fp = build_probe_system("on", rows=(5, 13), max_samples=300,
                                    nbo=64)
        run_to_completion(fs, fp)
        assert fs.fast_forward.jumps > 0

        orig = fastforward.FastForward.consider
        fastforward.FastForward.consider = lambda self, probe: None
        try:
            es, ep = build_probe_system("on", rows=(5, 13),
                                        max_samples=300, nbo=64)
            run_to_completion(es, ep)
        finally:
            fastforward.FastForward.consider = orig

        assert ep.samples == fp.samples
        assert es.sim._seq == fs.sim._seq
        assert es.controller._next_seq == fs.controller._next_seq
        assert es.stats.act_rate_summary == fs.stats.act_rate_summary
        assert es.defense.counters == fs.defense.counters
        assert (es.sim.events_run ==
                fs.sim.events_run + fs.sim.events_elided)


class TestEdgeCases:
    def test_event_exactly_at_quiescence_horizon(self):
        """A pending event whose timestamp coincides exactly with a
        would-be synthetic iteration must fire *before* that iteration
        is simulated: jumps stop strictly short of the horizon."""
        base_sys, base_probe = build_probe_system("off", max_samples=120)
        run_to_completion(base_sys, base_probe)
        # Sentinel exactly at an iteration-completion timestamp, deep
        # inside the steady stretch.
        sentinel_time = base_probe.samples[70].end_time

        def run_with_sentinel(mode):
            system, probe = build_probe_system(mode, max_samples=120)
            seen = []
            system.sim.schedule_at(sentinel_time,
                                   lambda: seen.append(len(probe.samples)))
            run_to_completion(system, probe)
            return system, probe, seen

        bs, bp, base_seen = run_with_sentinel("off")
        fs, fp, ff_seen = run_with_sentinel("on")
        assert fs.fast_forward.jumps > 0
        # The sentinel observed the same number of recorded samples:
        # fast-forward never synthesized at or past the horizon.
        assert ff_seen == base_seen
        assert observables(bs, bp) == observables(fs, fp)

    def test_zero_length_fast_forward(self):
        """A horizon tighter than one period makes every would-be jump
        zero-length: the engine must decline (not crash, not drift) and
        results stay identical."""
        base_sys, base_probe = build_probe_system("off", max_samples=40)
        run_to_completion(base_sys, base_probe)
        period = (base_probe.samples[21].end_time
                  - base_probe.samples[20].end_time)

        def run_with_ticks(mode):
            system, probe = build_probe_system(mode, max_samples=40)
            # A sentinel chain denser than the probe period: the
            # quiescence horizon is always closer than one cycle.
            def tick():
                system.sim.schedule(max(period // 2, 1), tick)
            system.sim.schedule(1, tick)
            probe.start()
            limit = base_probe.finish_time + 20_000_000
            while not probe.done:
                system.sim.run(until=system.sim.now + 1_000_000)
                assert system.sim.now < limit  # loop guard only
            return system, probe

        bs, bp = run_with_ticks("off")
        fs, fp = run_with_ticks("on")
        assert fs.fast_forward.jumps == 0
        assert fs.fast_forward.cycles_skipped == 0
        assert bp.samples == fp.samples
        assert bp.finish_time == fp.finish_time

    def test_interrupted_by_stale_wake(self):
        """An armed future controller wake (here: from a blocking
        interval on an unrelated bank) bounds the jump; when it fires
        it is stale and must be a no-op in both worlds."""
        from repro.sim.stats import BlockKind

        def run_with_block(mode):
            system, probe = build_probe_system(mode, max_samples=160)
            # Block a far bank long enough that its wake lands mid-
            # stream; the probe's bank is unaffected.
            system.controller.block_banks(
                0, frozenset((31,)), 0, 2_000_000, BlockKind.RFM)
            run_to_completion(system, probe)
            return system, probe

        bs, bp = run_with_block("off")
        fs, fp = run_with_block("on")
        assert fs.fast_forward.jumps > 0
        assert observables(bs, bp) == observables(fs, fp)
        # The stale wake fired in both worlds without rescheduling
        # anything: the controller ends unarmed.
        assert bs.controller._wake_at is None
        assert fs.controller._wake_at is None

    def test_run_until_landing_mid_jump(self):
        """Jumps are clamped to the active `run(until=T)` horizon, so
        even *mid-run* state at every chunk boundary is bit-identical
        to event-accurate execution -- not merely convergent."""
        base_sys, base_probe = build_probe_system("off", max_samples=200)
        run_to_completion(base_sys, base_probe)
        period = (base_probe.samples[21].end_time
                  - base_probe.samples[20].end_time)
        step = 11 * period  # a chunk covers ~11 iterations

        bs, bp = build_probe_system("off", max_samples=200)
        fs, fp = build_probe_system("on", max_samples=200)
        bp.start()
        fp.start()
        while not (bp.done and fp.done):
            bs.sim.run(until=bs.sim.now + step)
            fs.sim.run(until=fs.sim.now + step)
            assert fs.sim.now == bs.sim.now
            assert fp.samples == bp.samples
        assert fs.fast_forward.jumps > 0
        assert observables(bs, bp) == observables(fs, fp)

    def test_state_mutated_between_paused_runs(self):
        """A caller that pauses `run(until)` and then mutates system
        state (here: a blocking interval through the public
        `block_banks` API) must observe and influence exactly the
        event-accurate physics -- the jump clamp makes synthesized-
        ahead state impossible."""
        from repro.sim.stats import BlockKind

        def run_with_midway_block(mode):
            system, probe = build_probe_system(mode, max_samples=400)
            probe.start()
            system.sim.run(until=3_000_000)
            # Mutate between runs: block the probe's own bank.
            system.controller.block_banks(
                0, frozenset((0,)), system.sim.now + 5_000, 200_000,
                BlockKind.RFM)
            while not probe.done:
                system.sim.run(until=system.sim.now + 1_000_000)
                assert system.sim.now < 1_000_000_000
            return system, probe

        bs, bp = run_with_midway_block("off")
        fs, fp = run_with_midway_block("on")
        assert fs.fast_forward.jumps > 0
        # The block must show up as a perturbed iteration in *both*
        # worlds identically.
        assert max(s.delta for s in fp.samples) > 200_000
        assert observables(bs, bp) == observables(fs, fp)

    def test_probe_without_bounds_never_jumps(self):
        """A probe with neither max_samples nor stop_time has no safe
        jump bound and must run event-accurately."""
        fs, fp = build_probe_system("on", max_samples=None)
        fp.stop_time = None
        fp.start()
        fs.sim.run(until=5_000_000)
        assert fs.fast_forward.jumps == 0
        assert len(fp.samples) > 20  # it did run


class TestJointEquivalence:
    """Superposed periodic steady states: multi-agent casts must be
    bit-identical with joint fast-forward on, and the periodic-friendly
    shapes must actually engage the joint detector."""

    @staticmethod
    def _probe(name, bank, row, max_samples=240):
        from repro.scenario.spec import AgentSpec

        return AgentSpec("probe", name=name, params={
            "bank": bank, "rows": [row], "max_samples": max_samples,
            "accesses_per_addr": 1})

    @staticmethod
    def _spec(name, agents):
        from repro.scenario.spec import (
            MeasurementSpec,
            ScenarioSpec,
            StopSpec,
        )
        from repro.sim.engine import MS

        measurements = [MeasurementSpec("counters")]
        for agent in agents:
            if agent.kind in ("probe", "receiver"):
                measurements.append(MeasurementSpec(
                    "samples", label=f"samples-{agent.name}",
                    params={"agent": agent.name, "raw": True}))
        return ScenarioSpec(
            name=name,
            system=SystemConfig(
                defense=DefenseParams(kind=DefenseKind.PRAC, nbo=64),
                refresh_policy=RefreshPolicy.POSTPONE_PAIR),
            agents=tuple(agents),
            stop=StopSpec(hard_limit_ps=400 * MS),
            measurements=tuple(measurements))

    @staticmethod
    def _both_worlds(spec):
        """(first_diff, totals delta) for one spec run off then on."""
        from repro.perf.diffcheck import deep_scenario_run, first_diff

        with fastforward.forced("off"):
            base = deep_scenario_run(spec)
        before = fastforward.totals()
        with fastforward.forced("on"):
            fast = deep_scenario_run(spec)
        after = fastforward.totals()
        return (first_diff(fast, base),
                {k: after[k] - before[k] for k in after})

    def test_two_split_bank_probes_joint_jump(self):
        """Two commensurate probes on different banks: neither can jump
        alone (the other's wakes foul its horizon), so any jumps here
        are the joint detector's."""
        diff, delta = self._both_worlds(self._spec("joint-split", [
            self._probe("p0", (0, 0), 5),
            self._probe("p1", (1, 0), 9)]))
        assert diff is None, diff
        assert delta["joint_jumps"] > 0

    def test_two_same_bank_probes_identical(self):
        """Interleaving in one bank FIFO: harder physics the joint path
        must jump bit-identically or soundly decline."""
        diff, _delta = self._both_worlds(self._spec("joint-same", [
            self._probe("p0", (0, 0), 5),
            self._probe("p1", (0, 0), 13)]))
        assert diff is None, diff

    def test_sender_receiver_joint_jump_and_replay(self):
        """The paper's covert pair: window-synchronized sender +
        receiver.  The raw per-sample capture pins the receiver's
        batched ``on_sample`` observer replay sample by sample."""
        from repro.scenario.spec import AgentSpec
        from repro.sim.engine import US

        sender = AgentSpec("sender", name="sender", params={
            "bank": (0, 0), "rows": (0,), "symbols": [1, 0, 1, 0],
            "epoch": 2 * US, "window_ps": 25 * US,
            "gaps": {0: None, 1: 0}, "stop_on_backoff": False})
        receiver = AgentSpec("receiver", name="receiver", params={
            "bank": (0, 0), "rows": (8,), "n_windows": 4,
            "epoch": 2 * US, "window_ps": 25 * US,
            "sleep_on_backoff": False})
        diff, delta = self._both_worlds(
            self._spec("joint-covert", [sender, receiver]))
        assert diff is None, diff
        assert delta["joint_jumps"] > 0
        assert delta["samples"] > 0  # synthesized receiver samples

    def test_covert_channel_long_windows_identical(self):
        """The PRAC covert channel with 200 us windows, where idle and
        post-back-off stretches dominate: the decode, the ground truth
        and every window's observation (back-offs, refreshes, sample
        count) match event-accurate execution, and the sender +
        receiver pair jumps jointly."""
        from repro.core.prac_channel import (
            PracChannelConfig,
            PracCovertChannel,
        )
        from repro.sim.engine import US

        def transmit(mode):
            with fastforward.forced(mode):
                channel = PracCovertChannel(
                    PracChannelConfig(window_ps=200 * US))
                return channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])

        off = transmit("off")
        before = fastforward.totals()
        on = transmit("on")
        after = fastforward.totals()
        assert on.decoded == off.decoded
        assert on.ground_truth_backoffs == off.ground_truth_backoffs
        assert on.ground_truth_rfms == off.ground_truth_rfms
        assert on.windows == off.windows
        assert after["joint_jumps"] - before["joint_jumps"] > 0

    def test_probe_with_rw_noise_excluded_but_identical(self):
        """A read/write-mix noise agent is ineligible (writes change
        bank state the extrapolator does not model): the joint path
        must refuse while it lives, and the run stays bit-identical.
        Single-agent jumps may still fire once the noise retires."""
        from repro.scenario.spec import AgentSpec
        from repro.sim.engine import US

        noise = AgentSpec("mixed-noise", name="rw", params={
            "bank": (1, 0), "rows": [70, 100], "intensity": 30.0,
            "stop_time": 300 * US, "burst": 1, "write_ratio": 0.5})
        diff, delta = self._both_worlds(self._spec("joint-rw", [
            self._probe("p0", (0, 0), 5), noise]))
        assert diff is None, diff
        assert delta["joint_jumps"] == 0
        assert delta["jumps"] > 0  # post-retirement single jumps


class TestWakeElision:
    def test_tail_submit_matches_plain_submit(self):
        """The elided-wake service path is bit-identical to the
        deferred-wake path for a closed loop."""

        def run(tail: bool, mode: str):
            with fastforward.forced(mode):
                system = MemorySystem(SystemConfig(
                    refresh_policy=RefreshPolicy.NONE))
            addrs = [system.mapper.encode(row=r) for r in (3, 9)]
            log = []
            submit = (system.submit_tail if tail else system.submit)

            def callback(req):
                log.append((req.arrive, req.start_service, req.complete,
                            req.kind, system.sim.now))
                if len(log) < 300:
                    submit(addrs[len(log) % 2], callback)

            submit(addrs[0], callback)
            system.sim.run(until=1 << 50)
            return system, log

        base_system, base_log = run(tail=False, mode="off")
        ff_system, ff_log = run(tail=True, mode="on")
        assert ff_log == base_log
        assert ff_system.controller.wakes_elided > 0
        assert ff_system.stats.act_rate_summary == \
            base_system.stats.act_rate_summary

    def test_submit_tail_falls_back_when_disabled(self):
        with fastforward.forced("off"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE))
        done = []
        system.submit_tail(system.mapper.encode(row=1), done.append)
        system.sim.run(until=10_000_000)
        assert len(done) == 1
        assert system.controller.wakes_elided == 0


class TestSwitches:
    def test_forced_overrides_config_field(self):
        with fastforward.forced("off"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE, fast_forward=True))
        assert system.fast_forward is None
        with fastforward.forced("on"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE, fast_forward=False))
        assert system.fast_forward is not None

    def test_env_var_disables_default(self, monkeypatch):
        monkeypatch.setenv(fastforward.ENV_VAR, "off")
        assert fastforward.resolve_enabled(None) is False
        assert fastforward.resolve_enabled(True) is True
        monkeypatch.delenv(fastforward.ENV_VAR)
        assert fastforward.resolve_enabled(None) is True

    def test_forced_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            with fastforward.forced("sideways"):
                pass  # pragma: no cover

    def test_unknown_defense_subclass_disables_jumps(self):
        from repro.defenses.base import Defense

        class MysteryDefense(Defense):
            pass

        with fastforward.forced("on"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE))
        mystery = MysteryDefense(system.sim, system.controller,
                                 system.config, system.stats)
        assert mystery.ff_supported is False
        assert Defense(system.sim, system.controller, system.config,
                       system.stats).ff_supported is True

    def test_quiescence_introspection(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        assert sim.quiescent_now()
        sim.schedule(100, lambda: None)
        assert sim.next_event_time() == 100
        assert sim.quiescent_now()  # pending, but not at this instant
        sim.schedule(0, lambda: None)
        assert not sim.quiescent_now()
        sim.run()
        assert sim.quiescent_now()
