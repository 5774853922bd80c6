"""Tests for the declarative scenario layer (repro.scenario)."""

import json
import subprocess
import sys

import pytest

from repro.core.prac_channel import PracChannelConfig, PracCovertChannel
from repro.core.rfm_channel import RfmChannelConfig
from repro.scenario import (
    AgentSpec,
    MeasurementSpec,
    ScenarioError,
    ScenarioSpec,
    StopSpec,
    agent_kinds,
    get_preset,
    preset_names,
)
from repro.sim.config import DefenseKind, DefenseParams, SystemConfig
from repro.sim.engine import MS, US


def probe_spec(**probe_params) -> ScenarioSpec:
    params = {"bank": (0, 0), "rows": (0, 8), "max_samples": 64}
    params.update(probe_params)
    return ScenarioSpec(
        name="test-probe",
        system=SystemConfig(
            defense=DefenseParams(kind=DefenseKind.PRAC, nbo=32)),
        agents=(AgentSpec("probe", params=params),),
        stop=StopSpec(50 * MS))


class TestSerialization:
    def test_round_trip_equality(self):
        spec = get_preset("noise-duel")
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_round_trip_through_json_text(self):
        """A spec survives json.dumps/json.loads byte-exactly -- int
        dict keys (sender gap tables) and tuples are canonicalized at
        construction time."""
        spec = PracCovertChannel().scenario([1, 0, 1])
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_any_field_change_changes_the_key(self):
        spec = probe_spec()
        assert spec.cache_key() != probe_spec(max_samples=65).cache_key()
        assert spec.cache_key() != spec.with_(
            stop=StopSpec(51 * MS)).cache_key()
        assert spec.cache_key() != spec.with_(
            system=SystemConfig()).cache_key()

    def test_cache_key_stable_across_processes(self):
        """The same spec hashes identically in a fresh interpreter --
        the property sharded sweeps and the result cache rely on."""
        spec = get_preset("prac-probe")
        code = (
            "from repro.scenario import get_preset;"
            "print(get_preset('prac-probe').cache_key())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True)
        assert out.stdout.strip() == spec.cache_key()

    def test_non_json_param_rejected(self):
        with pytest.raises(ScenarioError, match="not JSON-serializable"):
            AgentSpec("probe", params={"callback": print})

    def test_unknown_spec_fields_rejected(self):
        data = probe_spec().to_dict()
        data["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown ScenarioSpec"):
            ScenarioSpec.from_dict(data)

    def test_channel_config_round_trip(self):
        cfg = PracChannelConfig(levels=3, noise_intensity=40.0,
                                gap_table={0: None, 1: 25, 2: 0})
        assert PracChannelConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))) == cfg
        rfm = RfmChannelConfig(trecv=4, defense_kind=DefenseKind.FRRFM)
        assert RfmChannelConfig.from_dict(rfm.to_dict()) == rfm


class TestRegistry:
    def test_unknown_agent_kind_lists_known_kinds(self):
        spec = ScenarioSpec(agents=(AgentSpec("warlock"),),
                            stop=StopSpec(1 * MS))
        with pytest.raises(ScenarioError, match="unknown agent kind"):
            spec.build()
        with pytest.raises(ScenarioError, match="probe"):
            spec.build()

    def test_paper_cast_is_registered(self):
        kinds = agent_kinds()
        for kind in ("probe", "noise", "sender", "receiver", "app",
                     "trace", "multi-probe", "mixed-noise"):
            assert kind in kinds

    def test_bad_params_fail_loudly(self):
        spec = ScenarioSpec(
            agents=(AgentSpec("probe", params={"bank": (0, 0),
                                               "rows": (0,),
                                               "warp_factor": 9}),),
            stop=StopSpec(1 * MS))
        with pytest.raises(ScenarioError, match="warp_factor"):
            spec.build()

    def test_unknown_measurement_kind(self):
        spec = probe_spec().with_(
            measurements=(MeasurementSpec("vibes"),))
        with pytest.raises(ScenarioError, match="unknown measurement"):
            spec.run()


class TestExecution:
    def test_probe_scenario_runs(self):
        result = probe_spec().run()
        probe = result.agent("probe")
        assert len(probe.samples) == 64
        assert result.counters["requests"] >= 64
        assert result.stage_starts == [0]
        assert result.to_dict()["final_now"] == result.final_now

    def test_rerun_requires_fresh_build(self):
        built = probe_spec().build()
        built.run()
        with pytest.raises(RuntimeError, match="already ran"):
            built.run()

    def test_hard_limit_raises(self):
        spec = probe_spec(max_samples=None, stop_time=None).with_(
            stop=StopSpec(1 * US))
        with pytest.raises(RuntimeError, match="hard limit"):
            spec.run()

    def test_duplicate_agent_names_rejected(self):
        spec = ScenarioSpec(
            agents=(AgentSpec("probe", name="twin",
                              params={"rows": (0,), "max_samples": 1}),
                    AgentSpec("probe", name="twin",
                              params={"rows": (8,), "max_samples": 1})),
            stop=StopSpec(1 * MS))
        with pytest.raises(ScenarioError, match="duplicate agent name"):
            spec.build()

    def test_identical_specs_run_identically(self):
        spec = get_preset("noise-duel")
        first = spec.run()
        second = ScenarioSpec.from_dict(spec.to_dict()).run()
        assert first.to_dict() == second.to_dict()

    def test_staged_agents_start_after_previous_stage(self):
        spec = ScenarioSpec(
            system=SystemConfig(
                defense=DefenseParams(kind=DefenseKind.PRAC, nbo=32)),
            agents=(
                AgentSpec("probe", name="early", stage=0,
                          params={"rows": (0, 8), "max_samples": 32}),
                AgentSpec("probe", name="late", stage=1,
                          params={"rows": (16, 24), "max_samples": 16}),
            ),
            stop=StopSpec(5 * MS))
        result = spec.run()
        assert len(result.stage_starts) == 2
        assert result.stage_starts[1] > 0
        late = result.agent("late")
        assert late.start_time == result.stage_starts[1]
        assert all(s.end_time > result.stage_starts[1]
                   for s in late.samples)

    def test_multi_probe_expands_to_named_probes(self):
        spec = ScenarioSpec(
            agents=(AgentSpec("multi-probe", params={
                "count": 3, "first_row": 64, "max_samples": 8}),),
            stop=StopSpec(5 * MS))
        result = spec.run()
        probes = result.agents_named("multi-probe-")
        assert [p.name for p in probes] == [
            "multi-probe-0", "multi-probe-1", "multi-probe-2"]
        # Disjoint row regions: no address overlap between probes.
        addr_sets = [set(p.addrs) for p in probes]
        assert not (addr_sets[0] & addr_sets[1])
        assert all(len(p.samples) == 8 for p in probes)

    def test_mixed_noise_is_deterministic_and_issues_writes(self):
        spec = ScenarioSpec(
            agents=(AgentSpec("mixed-noise", params={
                "rows": (0, 8), "sleep_ps": 500_000, "write_ratio": 0.5,
                "stop_time": 1 * MS}),),
            stop=StopSpec(2 * MS))
        first = spec.run()
        second = spec.run()
        noise_a = first.agent("mixed-noise")
        noise_b = second.agent("mixed-noise")
        assert noise_a.requests_issued == noise_b.requests_issued
        assert 0 < noise_a.writes_issued < noise_a.requests_issued
        assert noise_a.writes_issued == noise_b.writes_issued
        assert first.counters == second.counters

    def test_probe_stop_on_backoff(self):
        result = probe_spec(max_samples=2000,
                            stop_on=("backoff",)).run()
        probe = result.agent("probe")
        # The probe halts at its first observed back-off, well before
        # max_samples; the stopping sample is recorded.
        assert len(probe.samples) < 2000
        kinds = [s.delta for s in probe.samples]
        assert probe.done and kinds


class TestPresets:
    def test_every_preset_builds(self):
        for name in preset_names():
            spec = get_preset(name)
            built = spec.build()
            assert built.agents, name

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown scenario preset"):
            get_preset("missingno")


class TestChannelScenarios:
    def test_prac_scenario_matches_transmit(self):
        """Running the channel's spec by hand reproduces the decoded
        message the channel API reports."""
        channel = PracCovertChannel(PracChannelConfig())
        bits = [1, 0, 1, 1]
        via_api = channel.transmit(bits)
        built = channel.scenario(bits).build()
        receiver = built.agent("receiver")
        built.run()
        from repro.core.probe import EventKind

        decoded = [1 if receiver.events_of(k, EventKind.BACKOFF) else 0
                   for k in range(len(bits))]
        assert decoded == via_api.decoded == bits

    def test_scenario_fan_out_matches_serial(self):
        from repro.exp.runner import map_scenarios

        specs = [PracCovertChannel().scenario([1, 0]),
                 PracCovertChannel(
                     PracChannelConfig(noise_intensity=50.0)).scenario([1])]
        results = map_scenarios(specs)
        assert [r["name"] for r in results] == ["prac-covert"] * 2
        assert results[0]["counters"]["backoffs"] > 0

    def test_run_scenario_caches(self, tmp_path):
        from repro.exp.runner import run_scenario, trials_executed

        spec = probe_spec()
        first = run_scenario(spec, cache_dir=str(tmp_path))
        assert not first.cached
        before = trials_executed()
        second = run_scenario(spec, cache_dir=str(tmp_path))
        assert second.cached
        assert trials_executed() == before
        assert second.value == first.value

    def test_run_scenario_takes_the_ambient_backend(self):
        from repro.dist import (
            Backend,
            execution,
            register_backend,
            unregister_backend,
        )
        from repro.exp.runner import map_scenarios, run_scenario

        seen = []

        class SpyBackend(Backend):
            name = "spy-scenario"

            def run(self, fn, points, seeds, *, workers=None,
                    on_result=None):
                seen.extend(point["name"] for point in points)
                return [fn(point) for point in points]

        spec = probe_spec()
        register_backend("spy-scenario", SpyBackend)
        try:
            with execution(backend="spy-scenario"):
                run = run_scenario(spec, use_cache=False)
        finally:
            unregister_backend("spy-scenario")
        assert seen == ["test-probe"]
        assert run.value == map_scenarios([spec])[0]


class TestReviewRegressions:
    def test_missing_required_field_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="missing required field"):
            ScenarioSpec.from_dict({"name": "x", "system": {},
                                    "stop": {"hard_limit_ps": 1}})
        with pytest.raises(ScenarioError, match="missing required field"):
            ScenarioSpec.from_dict({"system": SystemConfig().to_dict()})

    def test_app_spec_honors_agent_name(self):
        import dataclasses

        from repro.cpu.app import spec_like_app

        app = spec_like_app("L", "mcf", seed=1, banks=((0, 0),),
                            n_requests=4)
        spec = ScenarioSpec(
            agents=(AgentSpec("app", name="victim", params={
                "spec": dataclasses.asdict(app)}),),
            stop=StopSpec(100 * MS),
            measurements=(MeasurementSpec("elapsed",
                                          params={"agents": ["victim"]}),))
        result = spec.run()
        assert result.agent("victim").name == "victim"
        assert result.data["elapsed"]["victim"] > 0

    def test_cli_scenario_run_reports_agent_value_errors(self, capsys):
        from repro.__main__ import main

        rc = main(["scenario", "run", "noise-duel", "--no-cache",
                   "-p", "agents.1.params.intensity=500"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_measurement_agent_typo_is_a_scenario_error(self):
        spec = probe_spec().with_(measurements=(
            MeasurementSpec("samples", params={"agent": "bogus"}),))
        with pytest.raises(ScenarioError, match="no agent named 'bogus'"):
            spec.run()

    def test_non_numeric_stop_field_is_a_scenario_error(self):
        data = probe_spec().to_dict()
        data["stop"]["hard_limit_ps"] = "oops"
        with pytest.raises(ScenarioError, match="malformed scenario spec"):
            ScenarioSpec.from_dict(data)

    def test_agentless_spec_exposes_the_classifier(self):
        from repro.core.probe import EventKind

        spec = ScenarioSpec(system=SystemConfig(
            defense=DefenseParams(kind=DefenseKind.PRAC, nbo=64)))
        classifier = spec.classifier()
        assert classifier.level_of(EventKind.BACKOFF) > 0
