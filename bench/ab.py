"""Same-host A/B of the working tree against a git revision.

    python bench/ab.py REF [--workload NAME]...

Extracts ``src/`` of REF (``git archive``, local only) under
``bench/out/``, then runs this tree's ``bench/run.py`` once against
REF's ``src`` and once against the working tree's ``src`` in each of
``PAIRS`` pairs, for every workload, alternating which side goes
first.  Pair ``i`` uses seed ``SEED_BASE + i`` on both sides, and
every run measures for ``run_seconds`` of ``BENCHMARK.json``.  For
every workload and
end-to-end metric it prints each side's median and quartiles, the
pairs the change won, and a verdict (``bench.stats.verdict``: improved
/ unchanged / regressed / unresolved) against the metric's bound in
``BENCHMARK.json``.

A run that fails stops the comparison with the failed checks: a change
that breaks a check has no speed to compare.  The benchmark reads
public APIs that REF must provide: ``repro.sim.engine.global_counters``
and ``repro.sim.fastforward.totals``, ``repro.exp.cache.canonical_checksum``,
``repro.dist.install_signal_shutdown``, the ``progress`` callback of
``repro.dist.execution``, and ``repro serve`` with
``repro.serve.server.ServerThread``.  A REF that lacks one of them
fails its first run of the workloads that use it.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.stats import quartiles, verdict  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
#: Pairs per workload: the fewest on which a gain may be claimed.
PAIRS = 10
#: Pair i runs seed SEED_BASE + i, away from the seeds the benchmark
#: was developed on.
SEED_BASE = 100


def extract_src(ref: str) -> tuple[str, Path]:
    """REF's ``src/`` tree under bench/out; returns (commit, src path)."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    dest = OUT_DIR / f"ab-{commit[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit, "src"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit, dest / "src"


def run_side(src: Path, workload: str, seed: int
             ) -> tuple[dict | None, str]:
    """End-to-end metric values of one run, or None and why it failed."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--src", str(src)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, (f"no result line (exit {proc.returncode}): "
                      f"{proc.stderr.strip()[-1000:]}")
    if proc.returncode != 0 or not doc["correct"] or doc["failed"]:
        report = proc.stdout.strip().rsplit("\n", 1)[0]
        return None, f"exit {proc.returncode}:\n{report[-3000:]}"
    return {name: entry["value"] for name, entry in doc["metrics"].items()}, ""


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python bench/ab.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision of the parent side")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    metrics = contract["end_to_end"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    commit, ref_src = extract_src(args.ref)
    sides = {"parent": ref_src, "change": ROOT / "src"}
    values = {w: {side: [] for side in sides} for w in workloads}
    try:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            seed = SEED_BASE + i
            for workload in workloads:
                for side in order:
                    got, why = run_side(sides[side], workload, seed)
                    if got is None:
                        label = (f"parent {commit[:12]}" if side == "parent"
                                 else "working tree")
                        print(f"error: {label} failed {workload} seed "
                              f"{seed}; no verdict.\n{why}", file=sys.stderr)
                        return 1
                    values[workload][side].append(got)
                print(f"pair {i + 1}/{PAIRS} {workload} done",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(ref_src.parent, ignore_errors=True)

    report = {"parent": commit, "pairs": PAIRS, "rows": []}
    print(f"A/B: parent {commit[:12]} vs working tree, {PAIRS} pairs")
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        runs = values[workload]
        for metric in metrics:
            name = metric["name"]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
            result = verdict(parent, change, metric["better"], metric["bound"])
            pq, cq = quartiles(parent), quartiles(change)
            report["rows"].append({"workload": workload, "metric": name,
                                   "parent": parent, "change": change,
                                   "wins": wins, "verdict": result})
            print(f"{workload:<15} {name:<12} {_fmt(pq):>32} "
                  f"{_fmt(cq):>32} {wins:>3}/{len(parent):<3} {result}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"ab-{commit[:12]}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"result: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
