"""End-to-end benchmark: ``python bench/run.py``.

Runs each workload in a fresh child process (``python -m bench.child``)
against the source tree ``--src`` (default: ``src`` next to this
directory), prints every metric by name with its unit, writes the
result to ``bench/out/``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` list of ``BENCHMARK.json``
(untraced) or its ``per_layer`` list (``--trace``).  With several
workloads the metric names are prefixed ``<workload>/``.  Exits 0 only
when every check passed and no operation failed; exits 2 without a
result line when the source tree or ``BENCHMARK.json`` is missing.

Examples::

    python bench/run.py                          # all five workloads
    python bench/run.py --workload fingerprint --seed 3
    python bench/run.py --workload covert-sweep --trace
    python bench/run.py --smoke                  # seconds-scale check

The run length is ``run_seconds`` of ``BENCHMARK.json`` (1 s under
``--smoke``); ``--seconds`` exists for callers that pass it and must
equal that length.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 1.0


def load_contract() -> dict | None:
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def run_child(workload: str, args, src: Path, seconds: float) -> dict:
    """One workload in a fresh process; a crash or timeout becomes a
    failed document rather than an exception."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--src", str(src),
           "--out-dir", str(OUT_DIR)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        problem = f"child exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        # SIGTERM first: the child unwinds and stops its fleet/server.
        proc.send_signal(signal.SIGTERM)
        try:
            stdout, _ = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
        problem = f"child timed out after {CHILD_TIMEOUT_S:.0f} s"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": workload, "correct": False, "attempted": 0,
                "failed": 1, "metrics": {}, "notes": [],
                "checks": [{"name": "child produced a result", "ok": False,
                            "detail": problem}]}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_doc(doc: dict, contract_names: set[str]) -> None:
    attempted, failed = doc["attempted"], doc["failed"]
    rate = failed / attempted if attempted else 1.0
    print(f"== {doc['workload']} (seed {doc.get('seed')}, "
          f"{'traced' if doc.get('trace') else 'untraced'}): "
          f"{'PASS' if doc['correct'] and not failed else 'FAIL'}, "
          f"error_rate {rate:.4g} ({failed}/{attempted})")
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")
    for note in doc.get("notes", []):
        print(f"  {note}")
    for name in sorted(doc["metrics"]):
        entry = doc["metrics"][name]
        mark = "*" if name in contract_names else " "
        print(f" {mark} {name:<34} {_fmt(entry['value']):>14} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python bench/run.py",
        description="End-to-end benchmark of the five paper workloads.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0, the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per workload; the "
                             "benchmark fixes it, so only run_seconds of "
                             "BENCHMARK.json is accepted")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced per-layer run instead of the "
                             "end-to-end run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 1 s budget: checks that "
                             "everything runs, measures nothing useful")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite bench/expected.json from this "
                             "run's checksums (seed 0, full scale; for "
                             "intentional physics changes only)")
    parser.add_argument("--src", default=None,
                        help="source tree holding the repro package "
                             "(default: src next to bench/)")
    args = parser.parse_args(argv)

    if args.regen_expected and (args.seed or args.smoke or args.trace):
        parser.error("--regen-expected needs seed 0, no --smoke, no --trace")
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    contract = load_contract()
    if contract is None:
        print(f"error: cannot read {ROOT / 'BENCHMARK.json'}",
              file=sys.stderr)
        return 2
    listed = contract["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in listed}
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g}: this run measures for "
              f"{seconds:g} s", file=sys.stderr)
        return 2

    started = time.perf_counter()
    docs = []
    for workload in workloads:
        doc = run_child(workload, args, src, seconds)
        missing = [name for name, unit in wanted.items()
                   if doc["metrics"].get(name, {}).get("unit") != unit
                   or doc["metrics"][name]["value"] is None]
        if missing and doc["correct"]:
            doc["correct"] = False
            doc["checks"].append({
                "name": "every BENCHMARK.json metric reported",
                "ok": False, "detail": ", ".join(missing)})
        print_doc(doc, set(wanted))
        docs.append(doc)
    elapsed = time.perf_counter() - started
    print(f"({len(docs)} workload(s) in {elapsed:.1f} s; * = listed in "
          f"BENCHMARK.json)")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = workloads[0] if len(workloads) == 1 else "all"
    out_path = OUT_DIR / (f"result-{tag}-seed{args.seed}-"
                          f"trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump({"src": str(src), "seconds": seconds, "elapsed_s": elapsed,
                   "workloads": docs}, handle, indent=1)
    print(f"result: {out_path}")

    if args.regen_expected:
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
        for doc in docs:
            expected[doc["workload"]] = doc.get("checksums", {})
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"rewrote {EXPECTED_PATH}")

    prefix = len(docs) > 1
    metrics = {}
    for doc in docs:
        for name in wanted:
            if name in doc["metrics"]:
                key = f"{doc['workload']}/{name}" if prefix else name
                metrics[key] = doc["metrics"][name]
    correct = all(doc["correct"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, sum(d["attempted"] for d in docs)),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
