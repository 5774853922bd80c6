"""The differential harness itself: fuzzer determinism, deep capture,
first-diff localization, shrinking, artifacts, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.exp.registry import experiment_names
from repro.perf.diffcheck import (
    EXPERIMENT_PARAMS,
    DiffOutcome,
    deep_scenario_run,
    diff_experiment,
    diff_scenario,
    first_diff,
    run_diffcheck,
    shrink_spec,
    write_artifact,
)
from repro.scenario.spec import ScenarioSpec
from tests.equivalence.strategies import (
    corpus,
    random_multiagent_spec,
    random_spec,
)


class TestFuzzer:
    def test_same_seed_same_spec(self):
        assert random_spec(42).to_dict() == random_spec(42).to_dict()
        assert (random_spec(42).cache_key()
                == ScenarioSpec.from_dict(random_spec(42).to_dict())
                .cache_key())

    def test_distinct_seeds_distinct_specs(self):
        keys = {random_spec(seed).cache_key() for seed in range(30)}
        assert len(keys) > 25  # near-certain distinctness

    def test_specs_are_valid_and_bounded(self):
        for seed, spec in corpus():
            assert spec.agents, seed
            assert spec.agents[0].kind == "probe"
            # Round-trips as pure data.
            assert ScenarioSpec.from_dict(
                json.loads(spec.to_json())) == spec

    def test_corpus_covers_multiple_defenses(self):
        kinds = {spec.system.defense.kind.value
                 for _seed, spec in corpus()}
        assert len(kinds) >= 3


class TestMultiAgentFuzzer:
    """The multi-agent fuzz profile: two/three-agent periodic casts
    (``--fuzz-multi``)."""

    def test_same_seed_same_spec(self):
        assert (random_multiagent_spec(42).to_dict()
                == random_multiagent_spec(42).to_dict())

    def test_casts_cover_the_multiagent_shapes(self):
        sizes = set()
        kinds = set()
        for seed in range(2000, 2060):
            spec = random_multiagent_spec(seed)
            sizes.add(len(spec.agents))
            kinds.update(a.kind for a in spec.agents)
        assert {2, 3} <= sizes  # two- and three-agent mixes
        assert {"probe", "noise", "sender", "receiver"} <= kinds

    def test_specs_are_periodic_and_round_trip(self):
        for seed in range(2000, 2012):
            spec = random_multiagent_spec(seed)
            assert len(spec.agents) >= 2, seed
            for agent in spec.agents:
                # Periodic-friendly by construction: no jitter, no
                # stop-on watchers on the probes.
                assert "jitter_ps" not in agent.params, seed
                assert "stop_on" not in agent.params, seed
            assert ScenarioSpec.from_dict(
                json.loads(spec.to_json())) == spec


class TestFirstDiff:
    def test_equal_values(self):
        assert first_diff({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None

    def test_scalar_and_path(self):
        diff = first_diff({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert diff == "$.a.b[1]: 2 != 3"

    def test_length_and_missing_key(self):
        assert "length" in first_diff([1], [1, 2])
        assert "only in" in first_diff({"a": 1}, {"a": 1, "b": 2})
        assert "type" in first_diff(1, "1")


class TestDifferential:
    @pytest.mark.parametrize("seed", [1200, 1201, 1202, 1203])
    def test_fuzzed_specs_bit_identical(self, seed):
        outcome = diff_scenario(random_spec(seed), shrink=False)
        assert outcome.identical, outcome.detail

    def test_experiment_bit_identical_with_engagement(self):
        outcome = diff_experiment("fig2", {"n_samples": 200, "nbo": 48})
        assert outcome.identical, outcome.detail
        assert outcome.elided > 0

    def test_deep_capture_contains_ground_truth(self):
        doc = deep_scenario_run(random_spec(1204))
        truth = doc["ground_truth"]
        assert {"final_now", "counters", "blocks", "agents"} <= set(truth)
        probe = truth["agents"]["probe-0"]
        assert probe["done"] is True
        assert probe["samples"][0] > 0  # sample count

    def test_every_registered_experiment_has_diff_params(self):
        assert set(EXPERIMENT_PARAMS) == set(experiment_names())

    @pytest.mark.parametrize("seed", [2005,   # two same/split-bank probes
                                      2029,   # three probes
                                      2000])  # covert sender + receiver
    def test_multiagent_specs_bit_identical(self, seed):
        outcome = diff_scenario(random_multiagent_spec(seed),
                                shrink=False)
        assert outcome.identical, outcome.detail


class TestShrinking:
    def test_shrinks_to_minimal_failing_spec(self, monkeypatch):
        """Drive the shrinker with a synthetic failure predicate: any
        spec that still contains an app agent 'fails'."""
        import repro.perf.diffcheck as dc

        def fake_mismatch(spec):
            return any(a.kind == "app" for a in spec.agents)

        monkeypatch.setattr(dc, "_mismatches", fake_mismatch)
        spec = None
        for seed in range(100, 200):
            candidate = random_spec(seed)
            if (len(candidate.agents) >= 3
                    and any(a.kind == "app" for a in candidate.agents)):
                spec = candidate
                break
        assert spec is not None, "fuzz corpus never produced an app mix"
        minimal = shrink_spec(spec)
        # Shrunk as far as the predicate allows: the app plus the one
        # probe the generator guarantees cannot be dropped (the
        # candidate generator never removes the last agent).
        assert any(a.kind == "app" for a in minimal.agents)
        assert len(minimal.agents) < len(spec.agents) or \
            len(spec.agents) == 1

    def test_two_agent_injected_divergence_yields_minimal_artifact(
            self, monkeypatch, tmp_path):
        """Full path on a two-probe periodic spec: poison every
        fast-forward-on deep run, so diff_scenario detects the
        divergence, shrinks, and writes the failing-spec artifact."""
        import repro.perf.diffcheck as dc

        real_run = dc.deep_scenario_run
        calls = {"n": 0}

        def poisoned(spec):
            doc = real_run(spec)
            calls["n"] += 1
            if calls["n"] % 2 == 0:  # every second run is the FF world
                doc["injected_divergence"] = True
            return doc

        monkeypatch.setattr(dc, "deep_scenario_run", poisoned)
        spec = random_multiagent_spec(2005)  # two probes
        assert len(spec.agents) == 2
        outcome = dc.diff_scenario(spec, artifact_dir=str(tmp_path))
        assert not outcome.identical
        assert "injected_divergence" in outcome.detail
        data = json.loads((tmp_path / outcome.artifact.rsplit("/", 1)[-1])
                          .read_text())
        minimal = ScenarioSpec.from_dict(data["scenario"])
        # The injected failure survives every shrink, so the artifact
        # holds the fully-minimized spec: one agent, scales floored.
        assert len(minimal.agents) == 1
        assert minimal.agents[0].params["max_samples"] <= 8
        assert data["first_mismatch"] == outcome.detail

    def test_three_agent_shrink_keeps_the_failing_pair(self,
                                                       monkeypatch):
        """Synthetic predicate on a three-probe spec: a mismatch that
        needs two co-running probes must shrink to exactly that pair,
        not below it."""
        import repro.perf.diffcheck as dc

        def fake_mismatch(spec):
            return sum(a.kind == "probe" for a in spec.agents) >= 2

        monkeypatch.setattr(dc, "_mismatches", fake_mismatch)
        spec = random_multiagent_spec(2029)  # three probes
        assert len(spec.agents) == 3
        minimal = shrink_spec(spec)
        assert len(minimal.agents) == 2
        assert all(a.kind == "probe" for a in minimal.agents)
        assert not minimal.measurements  # stripped to ground truth
        assert all(a.params["max_samples"] <= 8 for a in minimal.agents)

    def test_artifact_round_trips_through_spec_cli(self, tmp_path):
        spec = random_spec(1205)
        outcome = DiffOutcome(name=spec.name, kind="scenario",
                              identical=False, detail="$.x: 1 != 2")
        path = write_artifact(spec, outcome, str(tmp_path))
        data = json.loads((tmp_path / f"diffcheck-failure-"
                           f"{spec.name}.json").read_text())
        assert data["first_mismatch"] == "$.x: 1 != 2"
        assert ScenarioSpec.from_dict(data["scenario"]) == spec
        assert path.endswith(".json")


class TestCli:
    def test_diffcheck_subcommand_reports_identical(self, capsys):
        from repro.__main__ import main

        rc = main(["diffcheck", "fig2", "--fuzz", "2",
                   "--fuzz-seed", "1300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "fuzz-1300" in out
        assert "0 mismatched" in out

    def test_diffcheck_unknown_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["diffcheck", "no-such-exp"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_diffcheck_spec_files(self, tmp_path):
        spec = random_spec(1206)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        report = run_diffcheck(experiments=[], fuzz=0,
                               spec_files=[str(path)],
                               artifact_dir=str(tmp_path))
        assert report.ok
        assert report.outcomes[0].name == spec.name

    def test_report_rendering_flags_mismatch(self):
        from repro.perf.diffcheck import DiffReport

        report = DiffReport(outcomes=[
            DiffOutcome(name="x", kind="scenario", identical=False,
                        detail="$.a: 1 != 2", artifact="x.json"),
            DiffOutcome(name="y", kind="experiment", identical=True),
        ])
        assert not report.ok
        text = report.to_text()
        assert "NO" in text and "$.a: 1 != 2" in text
        assert "1 mismatched" in text
