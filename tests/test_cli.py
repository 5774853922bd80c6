"""Tests for the ``python -m repro`` subcommand interface."""

import json

import pytest

from repro.__main__ import iter_tables, main
from repro.analysis.figures import FigureTable


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig4", "fig13", "table3", "sec91"):
            assert name in out

    def test_markdown_format(self, capsys):
        assert main(["list", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| name | figure |")
        assert "| `fig4` | Fig. 4 | yes |" in out


class TestRun:
    ARGS = ["run", "fig4", "-p", "intensities=[1]", "-p", "n_bits=4"]

    def test_run_prints_the_table(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Fig. 4: PRAC covert channel vs noise intensity" in captured.out
        assert "1 trial(s)" in captured.err

    def test_second_run_hits_the_cache(self, tmp_path, capsys):
        main(self.ARGS + ["--cache-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "result from cache" in captured.err

    def test_workers_flag_gives_identical_output(self, tmp_path, capsys):
        main(self.ARGS + ["--no-cache"])
        serial = capsys.readouterr().out
        rc = main(self.ARGS + ["--no-cache", "--workers", "4"])
        assert rc == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_run_alias(self, tmp_path, capsys):
        rc = main(["run", "fig04", "-p", "intensities=[1]",
                   "-p", "n_bits=4", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_save_writes_the_rendering(self, tmp_path, capsys):
        out_file = tmp_path / "fig4.txt"
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                               "--save", str(out_file)])
        assert rc == 0
        assert "Fig. 4" in out_file.read_text()

    def test_legacy_save_position_still_writes(self, tmp_path, capsys):
        """Regression: `--save PATH` before the subcommand must not be
        clobbered by the subparser's own --save default."""
        out_file = tmp_path / "fig4.txt"
        rc = main(["--save", str(out_file)] + self.ARGS
                  + ["--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "Fig. 4" in out_file.read_text()

    def test_unknown_experiment_fails_cleanly(self, capsys):
        rc = main(["run", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_param_fails_cleanly(self, capsys):
        rc = main(["run", "fig4", "--no-cache", "-p", "bogus=1"])
        assert rc == 2
        assert "does not accept" in capsys.readouterr().err

    def test_bad_param_syntax_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["run", "fig4", "-p", "no-equals-sign"])


class TestIterTables:
    def test_finds_tables_in_nested_results(self):
        t1 = FigureTable("one", ["a"])
        t2 = FigureTable("two", ["b"])
        value = {"table": t1, "nested": {"list": [t2, 3]}, "x": "y"}
        assert list(iter_tables(value)) == [t1, t2]

    def test_plain_table_yields_itself(self):
        t = FigureTable("t", ["a"])
        assert list(iter_tables(t)) == [t]

    def test_non_table_yields_nothing(self):
        assert list(iter_tables({"a": 1})) == []


class TestListTag:
    def test_tag_filters_the_catalog(self, capsys):
        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "ablation-trecv" in out
        assert "fig4" not in out

    def test_unknown_tag_lists_known_tags(self, capsys):
        assert main(["list", "--tag", "nope"]) == 2
        err = capsys.readouterr().err
        assert "known tags" in err and "prac" in err


class TestRunOut:
    def test_out_writes_tables_and_raw_data(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        rc = main(["run", "ablation-refresh", "--no-cache",
                   "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["experiment"] == "ablation-refresh"
        assert doc["tables"] and "refresh policy" in doc["tables"][0]
        assert doc["data"]["rows"]  # JSON-safe raw FigureTable payload
        json.dumps(doc)  # fully serializable


class TestScenarioCommands:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for token in ("prac-probe", "noise-duel", "mixed-noise",
                      "backoff-times"):
            assert token in out

    def test_describe_with_override(self, capsys):
        rc = main(["scenario", "describe", "prac-probe", "--json",
                   "-p", "system.defense.nbo=64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario 'prac-probe'" in out
        assert '"nbo": 64' in out

    def test_describe_unknown_preset_fails_cleanly(self, capsys):
        rc = main(["scenario", "describe", "missingno"])
        assert rc == 2
        assert "unknown scenario preset" in capsys.readouterr().err

    def test_bad_override_path_fails_cleanly(self, capsys):
        rc = main(["scenario", "describe", "prac-probe",
                   "-p", "system.defense.bogus=1"])
        assert rc == 2
        assert "unknown field" in capsys.readouterr().err

    def test_run_from_file_with_out(self, tmp_path, capsys):
        from repro.scenario import get_preset

        spec = get_preset("prac-probe").with_(
            agents=(get_preset("prac-probe").agents[0],))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        out_file = tmp_path / "result.json"
        rc = main(["scenario", "run", "--file", str(spec_file),
                   "-p", "agents.0.params.max_samples=32",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["scenario"]["agents"][0]["params"]["max_samples"] == 32
        assert doc["result"]["counters"]["requests"] >= 32
        assert "latency-classes" in doc["result"]["data"]

    def test_run_hits_the_cache(self, tmp_path, capsys):
        args = ["scenario", "run", "prac-probe",
                "-p", "agents.0.params.max_samples=16",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "result from cache" in capsys.readouterr().err
