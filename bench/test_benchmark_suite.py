"""Tests of the end-to-end benchmark (``bench/``).

The smoke tests run every workload at seconds scale through
``bench/run.py``; the rest pin the statistics the benchmark and the
A/B tool rely on.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.stats import (
    drain_tail_s,
    percentile,
    quartiles,
    valid_name,
    verdict,
)

ROOT = Path(__file__).resolve().parent.parent


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_bench(*args: str, cwd: Path = ROOT, timeout: float = 300
              ) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc, None


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_contract_keys_and_names():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(valid_name(name) for name in names), names
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("name,ok", [
    ("wall_s", True), ("sim.engine.ns_per_event", True),
    ("covert-sweep", True), ("0metric", True),
    ("_hidden", False), ("has space", False), ("a/b", False),
    ("x" * 65, False), ("", False),
])
def test_name_regex(name, ok):
    assert valid_name(name) is ok


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89
    assert percentile(range(99), 90) is None  # only 9 beyond
    assert percentile(range(1000), 99) == 989
    assert percentile(range(999), 99) is None
    assert percentile([], 50) is None
    assert percentile(range(20), 50) == 9


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_drain_tail_from_synthetic_completions():
    # Six trials on two workers: the tail starts when trial 4 lands.
    assert drain_tail_s([3.0, 0.0, 1.0, 2.0, 12.0, 10.0], 2) == 9.0
    assert drain_tail_s([5.0, 6.0], 2) == 1.0
    assert drain_tail_s([], 2) == 0.0


def _noisy(center: float, n: int = 10) -> list[float]:
    return [center * (1 + 0.01 * ((i * 7) % 5 - 2)) for i in range(n)]


def test_ab_verdicts_on_synthetic_samples():
    parent = _noisy(10.0)
    assert verdict(parent, _noisy(8.0), "lower", 0.1) == "improved"
    assert verdict(parent, _noisy(10.0), "lower", 0.1) == "unchanged"
    assert verdict(parent, _noisy(12.0), "lower", 0.1) == "regressed"
    assert verdict(parent, _noisy(12.0), "higher", 0.1) == "improved"
    # A 3% slowdown inside a 10% bound is not a regression.
    assert verdict(parent, _noisy(10.3), "lower", 0.1) == "unchanged"
    wide = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert verdict(wide, list(reversed(wide)), "lower", 0.1) == "unresolved"
    # Winning 8 of 10 pairs, or 5 of 5, is not enough for a claimed gain.
    change = [p - 0.5 for p in parent[:8]] + [p + 0.5 for p in parent[8:]]
    assert verdict(parent, change, "lower", 0.1) != "improved"
    assert verdict(parent[:5], _noisy(8.0, 5), "lower", 0.1) != "improved"


# ----------------------------------------------------------------------
# The benchmark end to end, at smoke scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_smoke_every_workload_reports_every_metric(trace, section):
    proc, doc = run_bench("--smoke", "--trace", trace)
    verdicts = [line for line in proc.stdout.splitlines()
                if line.startswith("==") or "FAILED" in line]
    assert proc.returncode == 0, "\n".join(verdicts) + proc.stderr[-3000:]
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] > 0
    workloads = contract()["workloads"]
    for metric in contract()[section]:
        name, unit = metric["name"], metric["unit"]
        for workload in workloads:
            entry = doc["metrics"][f"{workload['name']}/{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
        # The human table prints it by name with its unit per workload.
        row = re.compile(rf"^ \* {re.escape(name)} +\S+ {re.escape(unit)}$",
                         re.M)
        assert len(row.findall(proc.stdout)) == len(workloads), name


def test_refuses_a_run_length_other_than_the_contracts():
    seconds = contract()["run_seconds"]
    proc, doc = run_bench("--workload", "fingerprint", "--seconds",
                          str(seconds + 1), timeout=60)
    assert proc.returncode == 2 and doc is None
    assert "measures for" in proc.stderr


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, doc = run_bench("--workload", "fingerprint", cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert doc is None
