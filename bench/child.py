"""One workload in its own process: ``python -m bench.child``.

``bench/run.py`` starts this module once per workload with ``repro``
importable from the source tree under test.  It prints one JSON
document as the last line of its standard output.

Untraced (``--trace 0``): set up five times (``setup_s`` is the
median), run the workload's operations (``wall_s`` is the median), and
read the peak resident memory of this process and every process it
started (``peak_rss_mb``).  ``setup_s`` and ``wall_s`` are scaled to
the reference host speed of :mod:`bench.hostspeed`, sampled while each
set-up and operation runs; the measured values are printed as
``raw.setup_s`` and ``raw.wall_s``.

Traced (``--trace 1``): set up once, run an untraced pass on half the
budget (its counters and the dist/serve rows are reported as they
are), then run the workload once more on in-process backends under the
span wrappers and the stack sampler of :mod:`bench.tracer`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

from bench.stats import median
from bench.tracer import StackSampler, Tracer
from bench.workloads import WORKLOADS, Context, Result, Workload

SETUP_REPEATS = 5

#: Layers whose sampled self time the traced run reports; samples in
#: other repro modules are summed under ``other``.
LAYERS = ("sim.engine", "sim.fastforward", "sim.stats", "controller",
          "dram", "defenses", "cpu", "core", "system", "scenario",
          "workloads", "ml", "exp", "serve")

#: Traced-run coverage floor: share of busy time charged to a layer.
MIN_COVERAGE = 0.90

#: Simulated counters summed over every ``BuiltScenario.run`` result.
SIM_COUNTERS = {"requests": "controller.requests",
                "activations": "dram.activations",
                "backoffs": "defenses.backoffs",
                "rfm_commands": "defenses.rfms"}


def peak_rss_mb() -> float:
    """Peak RSS over this process and every child it has reaped (which
    includes their reaped descendants); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def install_wrappers(tracer: Tracer, on_scenario) -> None:
    """Wrap the public entry points named in the per-layer table."""
    from repro.dist.serial import SerialBackend
    from repro.ml import paper_model_zoo
    from repro.scenario.build import BuiltScenario
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.fastforward import FastForward
    from repro.workloads.websites import WebsiteProfile

    tracer.wrap(ScenarioSpec, "build", "scenario.build", coarse=True)
    tracer.wrap(BuiltScenario, "run", "scenario.run", coarse=True,
                on_result=on_scenario)
    tracer.wrap(FastForward, "consider", "sim.fastforward.consider")
    tracer.wrap(SerialBackend, "run", "exp.map_trials", coarse=True)
    tracer.wrap(WebsiteProfile, "trace", "workloads.trace_gen", coarse=True)
    for cls in sorted({type(m) for m in paper_model_zoo().values()},
                      key=lambda c: c.__name__):
        tracer.wrap(cls, "fit", "ml.fit", coarse=True, outermost=True)
        tracer.wrap(cls, "predict", "ml.predict", coarse=True,
                    outermost=True)


def trace_pass(wl: Workload, seconds: float, res: Result,
               chrome_path: Path) -> None:
    import repro
    from repro.exp.runner import trials_executed
    from repro.sim import engine, fastforward

    tracer = Tracer()
    sim = dict.fromkeys(SIM_COUNTERS, 0)
    lock = threading.Lock()

    def on_scenario(result) -> None:
        with lock:
            for key in sim:
                sim[key] += int(result.counters.get(key, 0))

    install_wrappers(tracer, on_scenario)
    wl.tracer = tracer
    sampler = StackSampler(os.path.dirname(repro.__file__), wl.sampled)
    events0, ff0 = engine.global_counters(), fastforward.totals()
    trials0 = trials_executed()
    gc.collect()
    gc.disable()
    try:
        with sampler, tracer.span(f"workload:{wl.name}", coarse=True):
            start = time.perf_counter()
            wl.traced(seconds, res)
            wall = time.perf_counter() - start
    finally:
        gc.enable()
        tracer.restore()
        wl.tracer = None
    tracer.write_chrome(chrome_path)
    res.notes.append(f"Chrome trace: {chrome_path}")

    events = engine.global_counters()
    ff = fastforward.totals()
    events_run = events["events_run"] - events0["events_run"]
    res.metric("sim.engine.events_run", events_run, "events")
    res.metric("sim.engine.events_elided",
               events["events_elided"] - events0["events_elided"], "events")
    for key in ("jumps", "joint_jumps", "cycles"):
        res.metric(f"sim.fastforward.{key}", ff[key] - ff0[key], "count")
    considers = tracer.get("sim.fastforward.consider")[0]
    res.metric("sim.fastforward.consider_calls", considers, "count")
    res.metric("sim.fastforward.jump_ratio",
               (ff["jumps"] - ff0["jumps"]) / considers if considers else 0.0,
               "ratio")
    for key, name in SIM_COUNTERS.items():
        res.metric(name, sim[key], "count")

    seconds_by = dict(sampler.seconds)
    busy = sampler.busy_s()
    other = sum(v for k, v in seconds_by.items()
                if k not in LAYERS and k not in ("idle", "unattributed"))
    for layer in LAYERS + ("other",):
        self_s = other if layer == "other" else seconds_by.get(layer, 0.0)
        res.metric(f"{layer}.self_s", self_s, "s")
        res.metric(f"{layer}.self_pct",
                   100.0 * self_s / busy if busy else 0.0, "%")
    for layer in sorted(seconds_by):
        if layer not in LAYERS and layer not in ("idle", "unattributed"):
            res.notes.append(f"other: {layer} {seconds_by[layer]:.3f} s")
    engine_s = seconds_by.get("sim.engine", 0.0)
    res.metric("sim.engine.ns_per_event",
               1e9 * engine_s / events_run if events_run else 0.0, "ns")
    requests = sim["requests"]
    res.metric("controller.ns_per_request",
               1e9 * seconds_by.get("controller", 0.0) / requests
               if requests else 0.0, "ns")

    builds, build_s, _ = tracer.get("scenario.build")
    res.metric("scenario.builds", builds, "count")
    res.metric("scenario.build_s", build_s, "s")
    res.metric("scenario.run_s", tracer.get("scenario.run")[1], "s")
    res.metric("workloads.trace_gen_s", tracer.get("workloads.trace_gen")[1],
               "s")
    res.metric("ml.fit_s", tracer.get("ml.fit")[1], "s")
    res.metric("ml.predict_s", tracer.get("ml.predict")[1], "s")
    res.metric("ml.cv_s", tracer.get("ml.cv")[1], "s")
    res.metric("exp.trials", trials_executed() - trials0, "count")
    res.metric("exp.map_trials_s", tracer.get("exp.map_trials")[1], "s")

    coverage = sampler.coverage()
    res.metric("trace.wall_s", wall, "s")
    res.metric("trace.busy_s", busy, "s")
    res.metric("trace.coverage_pct", 100.0 * coverage, "%")
    res.metric("trace.samples", sampler.samples, "count")
    res.check(f"trace: layer self times cover >= {MIN_COVERAGE:.0%} of "
              "the busy time", coverage >= MIN_COVERAGE,
              f"{coverage:.1%}")


def run(args) -> dict:
    out_dir = Path(args.out_dir)
    ctx = Context(seed=args.seed, smoke=args.smoke, out_dir=out_dir,
                  src=Path(args.src))
    res = Result()
    wl = None
    try:
        import repro
        from repro.dist import install_signal_shutdown

        install_signal_shutdown()
        here = Path(repro.__file__).resolve()
        if not here.is_relative_to(Path(args.src).resolve()):
            raise RuntimeError(f"repro imported from {here}, not from "
                               f"{args.src}")
        wl = WORKLOADS[args.workload](ctx)
        seconds = args.seconds / 2 if args.trace else args.seconds
        setups, scaled = [], []
        with ctx.speed:
            for _ in range(1 if args.trace else SETUP_REPEATS):
                start = time.perf_counter()
                setups.append(wl.setup())
                scaled.append(setups[-1] * ctx.speed.factor(
                    [(start, time.perf_counter())]))
            wall, wall_scaled = wl.measure(seconds, res)
        res.metric("setup_s", median(scaled), "s")
        res.metric("wall_s", wall_scaled, "s")
        res.metric("raw.setup_s", median(setups), "s")
        res.metric("raw.wall_s", wall, "s")
        res.metric("host.reference_s", ctx.speed.reference_s(), "s")
        res.metric("host.samples", len(ctx.speed.samples), "count")
        if args.trace:
            trace_pass(wl, seconds, res, out_dir /
                       f"trace-{args.workload}-seed{args.seed}.json")
    except Exception:  # noqa: BLE001 - reported as a failed check
        res.check("workload ran to completion", False,
                  traceback.format_exc())
    finally:
        if wl is not None:
            wl.close()
    res.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
            "correct": all(c["ok"] for c in res.checks),
            "attempted": res.attempted, "failed": res.failed,
            "checks": res.checks, "notes": res.notes,
            "checksums": res.checksums,
            "metrics": res.metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # One CPU for this process and everything it starts (fleet workers,
    # the server, CLI runs).  The host-speed reference then runs where
    # the workload runs: on the 2-vCPU VM this was sized on the two
    # vCPUs' speeds drift independently.  It also keeps the serve
    # workload's requests off cross-CPU wake-ups, whose cost swung the
    # closed-loop hit median by 35-42% from run to run (4-9% on one CPU).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    doc = run(args)
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
