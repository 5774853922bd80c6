"""Measure the end-to-end baseline on this host.

    python bench/baseline.py [--workload NAME]...

Runs ``bench/run.py`` ``RUNS`` times per workload, each with its own
seed, and writes each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) to ``bench/baseline.json``
with the platform and Python it ran on.  The numbers are host-specific:
compare them only with runs on the same host.  A spread above a third
of the metric's bound in ``BENCHMARK.json`` is flagged (``setup_s``
excepted), because such a metric cannot show a regression of the
bound's size reliably.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.ab import run_side  # noqa: E402
from bench.stats import quartiles, relative_spread  # noqa: E402

OUT_PATH = ROOT / "bench" / "baseline.json"
#: Runs per workload, seeds SEED_BASE .. SEED_BASE + RUNS - 1.
RUNS = 10
SEED_BASE = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python bench/baseline.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    doc = {"note": "host-specific; compare only with runs on this host",
           "platform": platform.platform(),
           "python": platform.python_version(),
           "cpus": os.cpu_count(), "runs": RUNS,
           "seeds": [SEED_BASE + i for i in range(RUNS)],
           "run_seconds": contract["run_seconds"],
           "date": time.strftime("%Y-%m-%d", time.gmtime()),
           "workloads": {}}
    flagged = 0
    for workload in workloads:
        runs = []
        for seed in doc["seeds"]:
            got, why = run_side(ROOT / "src", workload, seed)
            if got is None:
                print(f"error: {workload} seed {seed} failed: {why}",
                      file=sys.stderr)
                return 1
            runs.append(got)
        rows = doc["workloads"][workload] = {}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = relative_spread(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "unit": metric["unit"]}
            loose = name != "setup_s" and spread > metric["bound"] / 3
            flagged += loose
            print(f"{workload:<15} {name:<12} median {med:<12.5g} "
                  f"[{q1:.5g}, {q3:.5g}] spread {spread:.3f} "
                  f"(bound {metric['bound']}){'  WIDE' if loose else ''}",
                  flush=True)
    with open(OUT_PATH, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    print(f"wrote {OUT_PATH}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
