"""Fast-forward (wake-event elision): unit equivalence + edge cases.

The equivalence tests run the same workload twice -- fast-forward
forced off, then on -- and assert bit-identical observables plus
engagement (``events_elided > 0``).  The edge cases pin what the
elision's safety argument leans on: a foreign event at the exact
instant of a tail submit, dense foreign event chains, a stale
controller wake, state mutated between paused runs, and the event
accounting ``events_run(off) - events_run(on) == events_elided(on)``.
"""

from __future__ import annotations

import pytest

from repro.cpu.probe import LatencyProbe
from repro.perf.diffcheck import diff_scenario
from repro.scenario.fuzz import random_multiagent_spec, random_spec
from repro.sim import engine, fastforward
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
    bank = probe.addrs and system.controller.bank(0, 0)
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
    """Single-probe streams: bit-identical with elision engaged."""

    def test_hit_stream_identical_and_jumps(self):
        (bs, bp), (fs, fp) = both_worlds(rows=(5,), max_samples=200)
        assert observables(bs, bp) == observables(fs, fp)
        assert fs.sim.events_elided > 0
        # Elision's whole point: fewer dispatched events.
        assert fs.sim.events_run < bs.sim.events_run

    def test_conflict_stream_under_prac_identical(self):
        (bs, bp), (fs, fp) = both_worlds(
            rows=(5, 13), max_samples=400, nbo=48,
            refresh=RefreshPolicy.EVERY_TREFI)
        assert observables(bs, bp) == observables(fs, fp)
        assert fs.sim.events_elided > 0
        assert fs.stats.backoffs > 0
        # Defense counters aged exactly.
        assert fs.defense.counters == bs.defense.counters


class TestEdgeCases:
    def test_event_exactly_at_quiescence_horizon(self):
        """A foreign event pending at the exact instant of a tail
        submit makes that instant non-quiescent: the wake must run
        deferred, after the foreign event, as event-accurate execution
        orders it -- and every other iteration still elides."""
        base_sys, base_probe = build_probe_system("off", max_samples=120)
        run_to_completion(base_sys, base_probe)
        completion = base_probe.samples[70].end_time

        def run_with_sentinel(mode, sentinel=True):
            system, probe = build_probe_system(mode, max_samples=120)
            seen = []

            def plant():
                # Runs just after the completion callback scheduled the
                # next issue, so the sentinel lands at the issue
                # instant with a later seq than the issue event.
                system.sim.schedule_at(
                    completion + probe.overhead,
                    lambda: seen.append((len(probe.samples),
                                         system.controller.queued_requests)))

            if sentinel:
                system.sim.schedule_at(completion + 1, plant)
            run_to_completion(system, probe)
            return system, probe, seen

        bs, bp, base_seen = run_with_sentinel("off")
        fs, fp, ff_seen = run_with_sentinel("on")
        # The sentinel saw the submitted request still queued (its wake
        # deferred) in both worlds.
        assert ff_seen == base_seen == [(71, 1)]
        assert observables(bs, bp) == observables(fs, fp)
        clear = run_with_sentinel("on", sentinel=False)[0]
        assert fs.sim.events_elided == clear.sim.events_elided - 1

    def test_zero_length_fast_forward(self):
        """A foreign event chain denser than the probe period: elision
        interleaves with it (or falls back) without drift."""
        base_sys, base_probe = build_probe_system("off", max_samples=40)
        run_to_completion(base_sys, base_probe)
        period = (base_probe.samples[21].end_time
                  - base_probe.samples[20].end_time)

        def run_with_ticks(mode):
            system, probe = build_probe_system(mode, max_samples=40)
            # A sentinel chain denser than the probe period: foreign
            # events land between (and sometimes on) the probe's
            # submits.
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
        assert bp.samples == fp.samples
        assert bp.finish_time == fp.finish_time

    def test_interrupted_by_stale_wake(self):
        """An armed future controller wake (here: from a blocking
        interval on an unrelated bank) goes stale under the probe's
        submits, elided or not; when it fires it must be a no-op in
        both worlds."""
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
        assert fs.sim.events_elided > 0
        assert observables(bs, bp) == observables(fs, fp)
        # The stale wake fired in both worlds without rescheduling
        # anything: the controller ends unarmed.
        assert bs.controller._wake_at is None
        assert fs.controller._wake_at is None

    def test_state_mutated_between_paused_runs(self):
        """A caller that pauses `run(until)` and then mutates system
        state (here: a blocking interval through the public
        `block_banks` API) must observe and influence exactly the
        event-accurate physics."""
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
        assert fs.sim.events_elided > 0
        # The block must show up as a perturbed iteration in *both*
        # worlds identically.
        assert max(s.delta for s in fp.samples) > 200_000
        assert observables(bs, bp) == observables(fs, fp)


class TestJointEquivalence:
    """Multi-agent casts: co-running agents mix elided and deferred
    wakes, and every cast must stay bit-identical with elision on."""

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

    def test_two_split_bank_probes_joint_jump(self):
        """Two probes on different banks: their loops never share a
        bank queue, so most of both probes' wakes elide."""
        outcome = diff_scenario(self._spec("joint-split", [
            self._probe("p0", (0, 0), 5),
            self._probe("p1", (1, 0), 9)]), shrink=False)
        assert outcome.identical, outcome.detail
        assert outcome.elided > 0

    def test_two_same_bank_probes_identical(self):
        """Interleaving in one bank FIFO: a submit into a busy queue
        must fall back to the deferred wake."""
        outcome = diff_scenario(self._spec("joint-same", [
            self._probe("p0", (0, 0), 5),
            self._probe("p1", (0, 0), 13)]), shrink=False)
        assert outcome.identical, outcome.detail

    def test_sender_receiver_joint_jump_and_replay(self):
        """The paper's covert pair: window-synchronized sender +
        receiver.  The raw per-sample capture pins the receiver's
        ``on_sample`` window observer sample by sample."""
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
        outcome = diff_scenario(
            self._spec("joint-covert", [sender, receiver]), shrink=False)
        assert outcome.identical, outcome.detail
        assert outcome.elided > 0

    def test_covert_channel_long_windows_identical(self):
        """The PRAC covert channel with 200 us windows, where idle and
        post-back-off stretches dominate: the decode, the ground truth
        and every window's observation (back-offs, refreshes, sample
        count) match event-accurate execution."""
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
        before = engine.global_counters()["events_elided"]
        on = transmit("on")
        elided = engine.global_counters()["events_elided"] - before
        assert on.decoded == off.decoded
        assert on.ground_truth_backoffs == off.ground_truth_backoffs
        assert on.ground_truth_rfms == off.ground_truth_rfms
        assert on.windows == off.windows
        assert elided > 0

    def test_probe_with_rw_noise_excluded_but_identical(self):
        """A read/write-mix noise agent draws one RNG value per access;
        elision must neither skip nor reorder those draws."""
        from repro.scenario.spec import AgentSpec
        from repro.sim.engine import US

        noise = AgentSpec("mixed-noise", name="rw", params={
            "bank": (1, 0), "rows": [70, 100], "intensity": 30.0,
            "stop_time": 300 * US, "burst": 1, "write_ratio": 0.5})
        outcome = diff_scenario(self._spec("joint-rw", [
            self._probe("p0", (0, 0), 5), noise]), shrink=False)
        assert outcome.identical, outcome.detail
        assert outcome.elided > 0


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
        assert ff_system.sim.events_elided > 0
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
        assert system.sim.events_elided == 0

    @pytest.mark.parametrize("make,seed", [
        *((random_spec, seed) for seed in range(0x5EED, 0x5EED + 25)),
        *((random_multiagent_spec, seed)
          for seed in range(0xA117, 0xA117 + 15))])
    def test_elided_wakes_account_for_every_missing_event(self, make,
                                                          seed):
        """Each elided wake is exactly one event the FF-off run
        dispatches and the FF-on run does not."""
        spec = make(seed)

        def counts(mode):
            with fastforward.forced(mode):
                built = spec.build()
                built.run()
            sim = built.system.sim
            return sim.events_run, sim.events_elided

        run_off, elided_off = counts("off")
        run_on, elided_on = counts("on")
        assert elided_off == 0
        assert run_off - run_on == elided_on


class TestSwitches:
    def test_forced_overrides_config_field(self):
        with fastforward.forced("off"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE, fast_forward=True))
        assert system.controller.ff_elide is False
        with fastforward.forced("on"):
            system = MemorySystem(SystemConfig(
                refresh_policy=RefreshPolicy.NONE, fast_forward=False))
        assert system.controller.ff_elide is True

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

    def test_quiescence_introspection(self):
        sim = Simulator()
        assert sim.pending_events == 0
        assert sim.quiescent_now()
        sim.schedule(100, lambda: None)
        assert sim.pending_events == 1
        assert sim.quiescent_now()  # pending, but not at this instant
        sim.schedule(0, lambda: None)
        assert not sim.quiescent_now()
        sim.run()
        assert sim.quiescent_now()
