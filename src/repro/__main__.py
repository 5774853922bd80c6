"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro list [--tag prac]     # experiment catalog
    python -m repro run fig4 --workers 8  # one experiment, parallel sweep
    python -m repro run fig4 --backend shards --workers 4
    python -m repro run fig4 --out r.json # persist tables + raw data
    python -m repro report                # quick reproduction report
    python -m repro scenario list         # scenario presets + kinds
    python -m repro scenario describe prac-covert
    python -m repro scenario run prac-probe -p system.defense.nbo=64
    python -m repro cache stats [--json]  # result-cache introspection
    python -m repro cache prune --older-than 7d
    python -m repro serve --port 8123     # results-as-a-service HTTP API
    python -m repro artifacts fig3 --format md
    python -m repro worker                # sweep-worker daemon (internal)
    python -m repro worker --connect HOST:PORT --reconnect
                                          # dial into a TCP fleet
    python -m repro fleet listen --port 7641   # stand up a fleet hub
    python -m repro fleet status --connect HOST:PORT
    python -m repro stats [--watch 2]     # scrape a server's /metrics
    python -m repro trace record fig4 --backend shards --workers 4
    python -m repro trace summary TRACE_fig4.ndjson
    python -m repro trace export TRACE_fig4.ndjson  # Chrome trace JSON

``run`` and ``scenario run`` go through the on-disk result cache
(``.repro-cache/`` or ``$REPRO_CACHE_DIR``); ``--no-cache`` forces a
fresh execution.  Arbitrary driver parameters pass through ``-p
key=value`` (values are parsed as JSON, falling back to strings); for
scenarios the key is a dotted path into the spec
(``agents.0.params.max_samples=64``).

Sweeps execute through a pluggable backend (``serial``, ``pool``, or
the ``shards`` worker fleet; see :mod:`repro.dist`): ``--backend NAME``
wins over the ``REPRO_BACKEND`` environment variable, which wins over
the ``auto`` heuristic.  When stderr is a terminal, sweeps show a live
``k/N trials (cache: h hits)`` line.

For backwards compatibility, ``python -m repro`` with no subcommand
behaves like ``report``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from repro.analysis.figures import FigureTable, iter_tables
from repro.analysis.report import quick_report
from repro.exp.registry import RegistryError, all_experiments
from repro.exp.runner import ExperimentParamError, run_experiment


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _parse_param(text: str) -> tuple[str, object]:
    """Parse one ``-p key=value`` override; value is JSON when possible."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _scale_text(scale: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in scale.items()) or "-"


def _json_safe(value):
    """Reduce an experiment result to JSON-encodable raw data."""
    from repro.exp.cache import canonicalize

    return canonicalize(value)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


@contextlib.contextmanager
def _execution(args):
    """Install the sweep-execution context a subcommand asked for:
    backend selection (``--backend``), the per-trial result cache
    (streams results as trials land; disabled by ``--no-cache``), and
    the live TTY progress line."""
    from repro.dist import check_backend_name, execution
    from repro.dist.progress import tty_progress

    backend = getattr(args, "backend", None)
    if backend is not None:
        check_backend_name(backend)  # BackendError before any work
    trial_cache = None
    if not getattr(args, "no_cache", False):
        from repro.exp.cache import ResultCache

        trial_cache = ResultCache(getattr(args, "cache_dir", None))
    progress = tty_progress()
    with execution(backend=backend, trial_cache=trial_cache,
                   progress=progress):
        try:
            yield
        finally:
            if progress is not None:
                progress.finish()


@contextlib.contextmanager
def _gc_paused():
    """Run simulations with the cyclic GC paused.

    The event engine allocates hundreds of thousands of short-lived
    tuples per simulated trial; generation-0 collections cost several
    percent of wall time and never find garbage mid-trial (the object
    graphs live until the trial ends).  Reference counting still frees
    everything acyclic immediately; one collection at the end picks up
    the per-trial cycles (agents <-> system <-> simulator).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(args) -> int:
    specs = all_experiments()
    if args.tag:
        specs = [s for s in specs if args.tag in s.tags]
        if not specs:
            tags = sorted({t for s in all_experiments() for t in s.tags})
            print(f"no experiment tagged {args.tag!r}; known tags: "
                  f"{', '.join(tags)}", file=sys.stderr)
            return 2
    if args.format == "md":
        print("| name | figure | parallel | paper claim |")
        print("|------|--------|----------|-------------|")
        for spec in specs:
            parallel = "yes" if spec.parallelizable else "-"
            print(f"| `{spec.name}` | {spec.figure} | {parallel} "
                  f"| {spec.claim} |")
        return 0
    label = f" tagged '{args.tag}'" if args.tag else ""
    table = FigureTable(
        f"Registered experiments{label} ({len(specs)})",
        ["name", "figure", "parallel", "default scale", "paper claim"])
    for spec in specs:
        table.add_row(spec.name, spec.figure,
                      "yes" if spec.parallelizable else "-",
                      _scale_text(spec.default_scale), spec.claim)
    print(table.to_text())
    return 0


def cmd_run(args) -> int:
    from repro.dist import BackendError

    params = dict(args.param or [])
    try:
        with _execution(args), _gc_paused():
            run = run_experiment(
                args.experiment, params, workers=args.workers,
                seed=args.seed, use_cache=not args.no_cache,
                cache_dir=args.cache_dir)
    except (RegistryError, ExperimentParamError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = "\n\n".join(t.to_text() for t in iter_tables(run.value))
    if rendered:
        print(rendered)
    else:
        print(run.value)
    source = "cache" if run.cached else (
        f"{run.trials} trial(s) in {run.elapsed_s:.1f}s")
    print(f"\n[{run.name}] result from {source} "
          f"(key {run.key[:12]}...)", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(rendered or str(run.value))
            handle.write("\n")
        print(f"result written to {args.save}", file=sys.stderr)
    if args.out:
        _write_json(args.out, {
            "experiment": run.name,
            "params": _json_safe(run.params),
            "key": run.key,
            "cached": run.cached,
            "elapsed_s": run.elapsed_s,
            "tables": [t.to_text() for t in iter_tables(run.value)],
            "data": _json_safe(run.value),
        })
        print(f"json results written to {args.out}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Scenario subcommands
# ----------------------------------------------------------------------
def _load_scenario(args):
    """Resolve the spec from a preset name or a JSON file, then apply
    the ``-p`` dotted-path overrides."""
    from repro.scenario import ScenarioSpec, get_preset

    if args.file and args.preset:
        raise ValueError(
            f"both preset {args.preset!r} and --file {args.file!r} given; "
            "name exactly one spec source")
    if args.file:
        with open(args.file) as handle:
            spec = ScenarioSpec.from_json(handle.read())
    elif args.preset:
        spec = get_preset(args.preset)
    else:
        raise ValueError("name a preset or pass --file spec.json")
    overrides = list(args.param or [])
    if not overrides:
        return spec
    data = spec.to_dict()
    for path, value in overrides:
        _apply_override(data, path, value)
    return ScenarioSpec.from_dict(data)


def _apply_override(data, path: str, value) -> None:
    """Set a dotted path inside the spec's dict form.

    ``system.defense.nbo=64`` reaches into the system config,
    ``agents.0.params.max_samples=128`` into an agent's params.  New
    keys may be created at the final params level only; everything
    else must already exist (typos fail loudly).
    """
    keys = path.split(".")
    node = data
    trail = []
    for key in keys[:-1]:
        trail.append(key)
        try:
            node = node[int(key)] if isinstance(node, list) else node[key]
        except (KeyError, IndexError, ValueError):
            raise ValueError(
                f"override path {path!r}: no {'.'.join(trail)!r} in the "
                "spec") from None
    last = keys[-1]
    if isinstance(node, list):
        try:
            node[int(last)] = value
        except (IndexError, ValueError):
            raise ValueError(
                f"override path {path!r}: bad list index {last!r}") from None
    elif isinstance(node, dict):
        if last not in node and trail and trail[-1] != "params":
            raise ValueError(
                f"override path {path!r}: unknown field {last!r} "
                f"(fields: {', '.join(node)})")
        node[last] = value
    else:
        raise ValueError(f"override path {path!r}: cannot index into "
                         f"{type(node).__name__}")


def cmd_scenario_list(args) -> int:
    from repro.scenario import (
        agent_kinds,
        measurement_kinds,
        preset_names,
    )

    table = FigureTable("Scenario presets", ["preset", "description"])
    for name, doc in preset_names().items():
        table.add_row(name, doc)
    print(table.to_text())

    kinds = FigureTable("Agent kinds", ["kind", "description"])
    for name, entry in sorted(agent_kinds().items()):
        kinds.add_row(name, entry.doc)
    print("\n" + kinds.to_text())

    measures = FigureTable("Measurement kinds", ["kind", "description"])
    for name, entry in sorted(measurement_kinds().items()):
        measures.add_row(name, entry.doc)
    print("\n" + measures.to_text())
    return 0


def cmd_scenario_describe(args) -> int:
    from repro.scenario import ScenarioError

    try:
        spec = _load_scenario(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(spec.describe())
    if args.json:
        print("\n" + spec.to_json())
    return 0


def cmd_scenario_run(args) -> int:
    from repro.exp.runner import run_scenario
    from repro.scenario import ScenarioError

    try:
        spec = _load_scenario(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with _execution(args), _gc_paused():
            run = run_scenario(spec, use_cache=not args.no_cache,
                               cache_dir=args.cache_dir)
    except (ScenarioError, ValueError, RuntimeError) as exc:
        # ValueError: agent-class param validation (e.g. intensity out
        # of Eq. 2's range); RuntimeError: hard-limit exceeded.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = run.value
    print(f"scenario {value['name']!r}: final_now={value['final_now']} ps, "
          f"stages at {value['stage_starts']}")
    print("counters: " + json.dumps(value["counters"], sort_keys=True))
    for label, payload in value["data"].items():
        print(f"{label}: " + json.dumps(payload, sort_keys=True,
                                        default=str))
    source = "cache" if run.cached else f"ran in {run.elapsed_s:.1f}s"
    print(f"\n[{spec.name}] result from {source} "
          f"(key {run.key[:12]}...)", file=sys.stderr)
    if args.out:
        _write_json(args.out, {
            "scenario": spec.to_dict(),
            "key": run.key,
            "cached": run.cached,
            "elapsed_s": run.elapsed_s,
            "result": value,
        })
        print(f"json results written to {args.out}", file=sys.stderr)
    return 0


def cmd_diffcheck(args) -> int:
    from repro.exp.registry import experiment_names
    from repro.perf.diffcheck import QUICK_EXPERIMENTS, run_diffcheck

    if args.against is not None:
        return _diffcheck_against(args)
    if args.experiment:
        try:
            experiments = [get_canonical_name(n) for n in args.experiment]
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        fuzz = args.fuzz if args.fuzz is not None else 0
        fuzz_multi = args.fuzz_multi if args.fuzz_multi is not None else 0
    elif args.quick:
        experiments = list(QUICK_EXPERIMENTS)
        fuzz = args.fuzz if args.fuzz is not None else 20
        fuzz_multi = args.fuzz_multi if args.fuzz_multi is not None else 6
    else:
        # Default (and --all): the full registry sweep.
        experiments = experiment_names()
        fuzz = args.fuzz if args.fuzz is not None else 10
        fuzz_multi = args.fuzz_multi if args.fuzz_multi is not None else 10
    if args.spec:
        # Explicit spec files replace the fuzz corpus unless asked for.
        fuzz = args.fuzz if args.fuzz is not None else 0
        fuzz_multi = args.fuzz_multi if args.fuzz_multi is not None else 0
        if not args.experiment and not args.all and not args.quick:
            experiments = []
    from repro.dist import BackendError

    try:
        with _gc_paused():
            report = run_diffcheck(
                experiments=experiments, fuzz=fuzz,
                fuzz_seed=args.fuzz_seed, fuzz_multi=fuzz_multi,
                fuzz_multi_seed=args.fuzz_multi_seed,
                spec_files=args.spec,
                artifact_dir=args.artifact_dir, backend=args.backend,
                log=lambda msg: print(f"[diffcheck] {msg}",
                                      file=sys.stderr))
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    if not report.ok:
        print("\ndiffcheck: fast-forward results DIVERGED from the "
              "event-accurate baseline; see the artifact spec(s) above",
              file=sys.stderr)
        return 1
    return 0


def _diffcheck_against(args) -> int:
    from repro.perf.against import AgainstError, run_against

    if (args.experiment or args.all or args.quick or args.spec
            or args.fuzz is not None or args.fuzz_multi is not None):
        print("error: --against runs its own fixed experiment set; drop "
              "NAME, --all, --quick, --spec and --fuzz*", file=sys.stderr)
        return 2
    try:
        report = run_against(
            args.against,
            log=lambda msg: print(f"[diffcheck] {msg}", file=sys.stderr))
    except AgainstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    if not report.ok:
        print(f"\ndiffcheck: results DIFFER from {args.against}",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Cache + worker subcommands
# ----------------------------------------------------------------------
def _parse_age(text: str) -> float:
    """``7d`` / ``12h`` / ``30m`` / ``45s`` / plain seconds -> seconds."""
    text = text.strip().lower()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = 1.0
    if text and text[-1] in units:
        scale = units[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"bad age {text!r}: expected a number with an optional "
            "s/m/h/d suffix (e.g. 7d, 12h, 1800)") from None
    if value < 0:
        raise ValueError("age must be >= 0")
    return value * scale


def _format_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _format_age(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 86400:
        return f"{seconds / 86400:.1f}d"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def cmd_cache(args) -> int:
    from repro.exp.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            # Machine-readable form: the exact dict the server exposes
            # on GET /v1/cache/stats (one code path, two transports).
            print(json.dumps(stats, indent=1, sort_keys=True))
            return 0
        table = FigureTable("Result cache", ["property", "value"])
        table.add_row("directory", stats["directory"])
        table.add_row("entries", stats["entries"])
        table.add_row("total size", _format_bytes(stats["total_bytes"]))
        table.add_row("oldest entry", _format_age(stats["oldest_age_s"]))
        table.add_row("newest entry", _format_age(stats["newest_age_s"]))
        print(table.to_text())
        return 0
    if args.cache_command == "prune":
        try:
            age = _parse_age(args.older_than)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        removed, freed = cache.prune(age)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"older than {args.older_than} "
              f"({_format_bytes(freed)} freed) from {cache.directory}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.directory}")
        return 0
    raise AssertionError(args.cache_command)  # pragma: no cover


def cmd_worker(args) -> int:
    from repro.dist.worker import main as worker_main

    return worker_main(warm=not args.no_warm, connect=args.connect,
                       reconnect=args.reconnect, retry=args.retry)


# ----------------------------------------------------------------------
# Fleet subcommands
# ----------------------------------------------------------------------
def _fleet_secret() -> str | None:
    from repro.dist.shards import SECRET_ENV

    return os.environ.get(SECRET_ENV) or None


def cmd_fleet_listen(args) -> int:
    """A standalone fleet hub: accept + authenticate workers and print
    join/refusal events — the connectivity check an operator runs while
    bringing hosts up, before pointing a sweep at the same port."""
    import queue
    import time as time_mod

    from repro.dist.net import FleetServer
    from repro.exp.cache import code_fingerprint

    secret = _fleet_secret()
    if not secret:
        from repro.dist.shards import SECRET_ENV

        print(f"error: fleet listen requires the shared secret in "
              f"{SECRET_ENV} (never passed on the command line)",
              file=sys.stderr)
        return 2

    def on_event(kind: str, detail: str) -> None:
        print(f"[fleet] {kind}: {detail}", flush=True)

    outq: queue.Queue = queue.Queue()
    fleet: list = []
    try:
        server = FleetServer(args.host, args.port, secret=secret,
                             fingerprint=code_fingerprint(),
                             fleet=fleet, outq=outq, on_event=on_event)
    except OSError as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"[fleet] fingerprint: {code_fingerprint()[:12]}  "
          f"(workers must match; Ctrl-C to stop)", flush=True)
    try:
        while True:
            # Joins/refusals print from the server threads; this loop
            # only prunes dead connections so the count stays honest.
            time_mod.sleep(1.0)
            fleet[:] = [s for s in fleet if s.alive]
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        for shard in fleet:
            shard.shutdown()
    return 0


def cmd_fleet_status(args) -> int:
    from repro.dist.net import parse_hostport, query_status
    from repro.dist.protocol import HandshakeError

    secret = _fleet_secret()
    if not secret:
        from repro.dist.shards import SECRET_ENV

        print(f"error: fleet status requires the shared secret in "
              f"{SECRET_ENV}", file=sys.stderr)
        return 2
    try:
        host, port = parse_hostport(args.connect)
        doc = query_status(host, port, secret=secret)
    except (ValueError, HandshakeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    fingerprint = str(doc.get("fingerprint", ""))
    print(f"fleet at {doc.get('listen')}  "
          f"(protocol v{doc.get('protocol_version')}, "
          f"fingerprint {fingerprint[:12]})")
    refused = doc.get("refused_count", 0)
    if refused:
        print(f"refused connections: {refused} "
              f"(last: {doc.get('last_refusal')})")
    workers = doc.get("workers", [])
    if not workers:
        print("no workers connected")
        return 0
    table = FigureTable(
        f"Connected workers ({len(workers)})",
        ["id", "transport", "version", "fingerprint", "in-flight",
         "trials", "state"])
    for worker in workers:
        state = ("ready" if worker.get("ready") else "handshaking"
                 ) if worker.get("alive") else "dead"
        table.add_row(worker.get("id"), worker.get("transport"),
                      worker.get("version"),
                      str(worker.get("fingerprint"))[:12],
                      worker.get("in_flight"),
                      worker.get("trials_done", 0), state)
    print(table.to_text())
    metrics_doc = doc.get("metrics")
    if metrics_doc:
        interesting = _metrics_rows(
            metrics_doc, prefix=("repro_dist_", "repro_sweep_",
                                 "repro_fleet_", "repro_engine_"))
        if interesting:
            table = FigureTable("Coordinator telemetry",
                                ["metric", "labels", "value"])
            for row in interesting:
                table.add_row(*row)
            print(table.to_text())
    return 0


# ----------------------------------------------------------------------
# Telemetry subcommands: stats + trace
# ----------------------------------------------------------------------
def _metrics_rows(metrics_doc: dict, *, prefix=None) -> list[tuple]:
    """Flatten a registry snapshot document into table rows."""
    rows: list[tuple] = []
    for name in sorted(metrics_doc):
        if prefix is not None and not name.startswith(prefix):
            continue
        for sample in metrics_doc[name].get("samples", []):
            labels = sample.get("labels") or {}
            label_text = ",".join(f"{k}={v}" for k, v in
                                  sorted(labels.items())) or "-"
            value = sample.get("value", 0)
            if isinstance(value, float) and value == int(value):
                value = int(value)
            rows.append((name, label_text, value))
    return rows


def _fetch_metrics(target: str) -> dict:
    """Scrape a running server's registry as the JSON snapshot."""
    import urllib.request

    from repro.dist.net import parse_hostport

    host, port = parse_hostport(target)
    url = f"http://{host}:{port}/metrics?format=json"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        doc = json.loads(response.read().decode("utf-8"))
    return doc.get("metrics", {})


def cmd_stats(args) -> int:
    import time as time_mod

    prefix = tuple(args.prefix) if args.prefix else None
    while True:
        try:
            metrics_doc = _fetch_metrics(args.connect)
        except (OSError, ValueError) as exc:
            print(f"error: cannot scrape {args.connect}: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            if prefix is not None:
                metrics_doc = {k: v for k, v in metrics_doc.items()
                               if k.startswith(prefix)}
            print(json.dumps(metrics_doc, indent=1, sort_keys=True))
        else:
            rows = _metrics_rows(metrics_doc, prefix=prefix)
            table = FigureTable(
                f"Telemetry of {args.connect} ({len(rows)} series)",
                ["metric", "labels", "value"])
            for row in rows:
                table.add_row(*row)
            print(table.to_text())
        if not args.watch:
            return 0
        time_mod.sleep(args.watch)
        print()


def cmd_trace_record(args) -> int:
    from repro.dist import BackendError
    from repro.obs import trace

    params = dict(args.param or [])
    out = args.out or f"TRACE_{args.experiment}.ndjson"
    try:
        trace.start(out)
    except OSError as exc:
        print(f"error: cannot write trace to {out!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        with _execution(args), _gc_paused():
            run = run_experiment(
                args.experiment, params, workers=args.workers,
                seed=args.seed, use_cache=not args.no_cache,
                cache_dir=args.cache_dir)
    except (RegistryError, ExperimentParamError, BackendError) as exc:
        trace.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events = trace.stop()
    summary = trace.summarize(events)
    if run.cached:
        print(f"note: [{run.name}] was a result-cache hit — no trials "
              "ran, so the trace has no sweep; rerun with --no-cache "
              "to record one", file=sys.stderr)
    print(json.dumps(summary, indent=1, sort_keys=True))
    print(f"trace written to {out} ({summary['events']} events)",
          file=sys.stderr)
    return 0


def _load_trace(path: str):
    from repro.obs import trace

    try:
        return trace.load_ndjson(path)
    except OSError as exc:
        print(f"error: cannot read trace {path!r}: {exc}",
              file=sys.stderr)
        return None


def cmd_trace_summary(args) -> int:
    from repro.obs import trace

    events = _load_trace(args.trace)
    if events is None:
        return 2
    print(json.dumps(trace.summarize(events), indent=1, sort_keys=True))
    return 0


def cmd_trace_export(args) -> int:
    from repro.obs import trace

    events = _load_trace(args.trace)
    if events is None:
        return 2
    doc = trace.chrome_trace(events)
    base = args.trace
    if base.endswith(".ndjson"):
        base = base[:-len(".ndjson")]
    out = args.out or f"{base}.chrome.json"
    with open(out, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(doc['traceEvents'])} trace events); "
          "open it in about://tracing or https://ui.perfetto.dev",
          file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Serve + artifacts subcommands
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    from repro.dist import BackendError, check_backend_name
    from repro.serve.server import run_server

    if args.backend is not None:
        try:
            check_backend_name(args.backend)
        except BackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return run_server(args.host, args.port, backend=args.backend,
                      workers=args.workers, cache_dir=args.cache_dir,
                      drain_s=args.drain_timeout)


def cmd_artifacts(args) -> int:
    from repro.serve.artifacts import (
        ArtifactError,
        CONTENT_TYPES,
        render_artifact,
    )

    params = dict(args.param or [])
    try:
        from repro.exp.registry import get_experiment

        if args.quick:
            spec = get_experiment(args.experiment)
            if spec.quick is None:
                print(f"error: experiment {args.experiment!r} has no "
                      "quick parameterization", file=sys.stderr)
                return 2
            merged = dict(spec.quick)
            merged.update(params)
            params = merged
        # Cache-aware: a cached result renders instantly, a miss
        # computes through the same path as `repro run` (so the key,
        # checksum, and bytes agree with the server's artifact GETs).
        with _execution(args), _gc_paused():
            run = run_experiment(args.experiment, params,
                                 use_cache=not args.no_cache,
                                 cache_dir=args.cache_dir)
    except (RegistryError, ExperimentParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    formats = (list(CONTENT_TYPES) if args.format == "all"
               else [args.format])
    if args.out_dir == "-":
        if len(formats) != 1 or formats[0] == "png":
            print("error: --out-dir - needs a single text format "
                  "(--format json or --format md)", file=sys.stderr)
            return 2
        _, payload = render_artifact(run.name, run.params, run.key,
                                     run.value, formats[0])
        sys.stdout.write(payload.decode("utf-8"))
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    for fmt in formats:
        try:
            _, payload = render_artifact(run.name, run.params, run.key,
                                         run.value, fmt)
        except ArtifactError as exc:
            # `all` renders what it can (e.g. a table-less result has
            # no chart); an explicitly requested format must succeed.
            if args.format == "all":
                print(f"skipping .{fmt}: {exc}", file=sys.stderr)
                continue
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = os.path.join(args.out_dir, f"{run.name}.{fmt}")
        with open(path, "wb") as handle:
            handle.write(payload)
        print(f"wrote {path} ({len(payload)} bytes)", file=sys.stderr)
    return 0


def get_canonical_name(name: str) -> str:
    from repro.exp.registry import get_experiment

    return get_experiment(name).name


def _auto_workers(requested: int | None) -> int | None:
    """Default the report to a parallel sweep on multi-core machines.

    ``map_trials`` is bit-identical serial vs parallel (deterministic
    per-trial seeds), so parallelism is purely a wall-clock knob; on a
    single-core machine this resolves to the serial path.  An explicit
    ``--workers N`` always wins (``--workers 1`` forces serial).
    """
    if requested is not None:
        return requested if requested > 1 else None
    count = os.cpu_count() or 1
    return min(count, 8) if count > 1 else None


def cmd_report(args) -> int:
    from repro.dist import BackendError

    try:
        with _execution(args), _gc_paused():
            report = quick_report(workers=_auto_workers(args.workers),
                                  use_cache=not args.no_cache,
                                  cache_dir=args.cache_dir)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_markdown())
    if args.save:
        path = report.save(args.save)
        print(f"\nreport written to {path}", file=sys.stderr)
    return 0 if report.all_passed else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="sweep execution backend: serial, pool, "
                             "shards, or auto (default; wins over "
                             "$REPRO_BACKEND)")


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="fan independent trials out over N worker "
                             "processes (report defaults to the CPU "
                             "count, capped at 8; run defaults to "
                             "serial; 1 forces serial)")
    _add_backend_option(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (default: "
                             ".repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="also write the output to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LeakyHammer reproduction harness")
    # Legacy pre-subcommand flag; its own dest so a subcommand's --save
    # default cannot overwrite it during subparser parsing.
    parser.add_argument("--save", dest="legacy_save", metavar="PATH",
                        default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser(
        "list", help="show the experiment catalog from the registry")
    p_list.add_argument("--format", choices=("table", "md"),
                        default="table",
                        help="output format (md = markdown table)")
    p_list.add_argument("--tag", default=None, metavar="TAG",
                        help="only experiments carrying this registry tag "
                             "(e.g. prac, sweep, side-channel)")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", help="run one experiment (cached, optionally parallel)")
    p_run.add_argument("experiment", metavar="NAME",
                       help="experiment name (see `list`)")
    _add_execution_options(p_run)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed (if it has one)")
    p_run.add_argument("-p", "--param", action="append",
                       type=_parse_param, metavar="KEY=VALUE",
                       help="driver parameter override (JSON value)")
    p_run.add_argument("--out", metavar="PATH", default=None,
                       help="persist results as JSON: rendered tables "
                            "plus JSON-safe raw data")
    p_run.set_defaults(func=cmd_run)

    p_scenario = sub.add_parser(
        "scenario", help="describe/run declarative scenario specs")
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command",
                                             required=True)

    s_list = scenario_sub.add_parser(
        "list", help="available presets, agent kinds, measurement kinds")
    s_list.set_defaults(func=cmd_scenario_list)

    def _add_scenario_source(parser) -> None:
        parser.add_argument("preset", nargs="?", default=None,
                            metavar="PRESET",
                            help="preset name (see `scenario list`)")
        parser.add_argument("--file", default=None, metavar="SPEC.json",
                            help="load the spec from a JSON file instead")
        parser.add_argument("-p", "--param", action="append",
                            type=_parse_param, metavar="PATH=VALUE",
                            help="dotted-path override into the spec, "
                                 "e.g. system.defense.nbo=64 or "
                                 "agents.0.params.max_samples=128")

    s_describe = scenario_sub.add_parser(
        "describe", help="print a spec (post-override) without running")
    _add_scenario_source(s_describe)
    s_describe.add_argument("--json", action="store_true",
                            help="also print the full JSON spec")
    s_describe.set_defaults(func=cmd_scenario_describe)

    s_run = scenario_sub.add_parser(
        "run", help="build + run a spec through the result cache")
    _add_scenario_source(s_run)
    _add_backend_option(s_run)
    s_run.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache")
    s_run.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory")
    s_run.add_argument("--out", metavar="PATH", default=None,
                       help="persist the spec + result core as JSON")
    s_run.set_defaults(func=cmd_scenario_run)

    p_report = sub.add_parser(
        "report", help="run the quick reproduction report")
    _add_execution_options(p_report)
    p_report.set_defaults(func=cmd_report)

    p_diff = sub.add_parser(
        "diffcheck",
        help="differential equivalence check: every case runs with "
             "fast-forward (wake elision) off and on; results must be "
             "bit-identical")
    p_diff.add_argument("experiment", nargs="*", metavar="NAME",
                        help="experiment name(s) to check (default: the "
                             "full registry sweep)")
    p_diff.add_argument("--all", action="store_true",
                        help="sweep all registered experiments plus "
                             "fuzzed scenarios (the default)")
    p_diff.add_argument("--quick", action="store_true",
                        help="CI smoke subset: 3 experiments + 20 "
                             "fuzzed + 6 multi-agent scenario specs")
    p_diff.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="number of seeded random scenario specs "
                             "(default: 10 for the full sweep, 20 for "
                             "--quick, 0 with explicit names)")
    p_diff.add_argument("--fuzz-seed", type=int, default=0x5EED,
                        metavar="SEED", help="base seed of the fuzzed "
                                             "spec corpus")
    p_diff.add_argument("--fuzz-multi", type=int, default=None,
                        metavar="N",
                        help="number of seeded multi-agent periodic "
                             "specs: co-running agents whose traffic "
                             "interleaves with wake elision (default: "
                             "10 for the full sweep, 6 for --quick, 0 "
                             "with explicit names)")
    p_diff.add_argument("--fuzz-multi-seed", type=int, default=0xA117,
                        metavar="SEED",
                        help="base seed of the multi-agent fuzz corpus")
    p_diff.add_argument("--spec", action="append", metavar="SPEC.json",
                        default=None,
                        help="also check a scenario spec file (e.g. a "
                             "shrunken diffcheck-failure artifact)")
    p_diff.add_argument("--artifact-dir", default=None, metavar="DIR",
                        help="directory for shrunken failing-spec "
                             "artifacts (default: current directory)")
    p_diff.add_argument("--against", default=None, metavar="REF",
                        help="instead: run a fixed default-scale set "
                             "(fig11, fig12, sec114, fig3, fig6, reduced "
                             "fig13 and fig10) in this source tree and in "
                             "git revision REF's, and require equal "
                             "result checksums")
    _add_backend_option(p_diff)
    p_diff.set_defaults(func=cmd_diffcheck)

    p_cache = sub.add_parser(
        "cache", help="inspect / prune / clear the on-disk result cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
            ("stats", "entry count, total size, entry ages"),
            ("prune", "delete entries older than --older-than"),
            ("clear", "delete every entry")):
        c_sub = cache_sub.add_parser(name, help=help_text)
        c_sub.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="result cache directory (default: "
                                ".repro-cache or $REPRO_CACHE_DIR)")
        if name == "prune":
            c_sub.add_argument("--older-than", required=True,
                               metavar="AGE",
                               help="age threshold, e.g. 7d, 12h, 30m, "
                                    "or plain seconds")
        if name == "stats":
            c_sub.add_argument("--json", action="store_true",
                               help="print the raw statistics document "
                                    "(same shape as GET /v1/cache/stats)")
        c_sub.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="HTTP results service: cached answers instantly, "
                      "misses as queued jobs with streamed progress")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8123,
                         help="TCP port (default: 8123; 0 = ephemeral, "
                              "printed on stderr)")
    _add_backend_option(p_serve)
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="worker fan-out for queued jobs")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result cache directory (default: "
                              ".repro-cache or $REPRO_CACHE_DIR)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="grace period for the in-flight job on "
                              "SIGINT/SIGTERM (default: 10)")
    p_serve.set_defaults(func=cmd_serve)

    p_artifacts = sub.add_parser(
        "artifacts", help="render a cached experiment result as "
                          "json/md/png artifacts")
    p_artifacts.add_argument("experiment", metavar="NAME",
                             help="experiment name (see `list`)")
    p_artifacts.add_argument("--format", choices=("json", "md", "png",
                                                  "all"),
                             default="all",
                             help="artifact format(s) to render "
                                  "(default: all)")
    p_artifacts.add_argument("--out-dir", default=".", metavar="DIR",
                             help="output directory (default: current), "
                                  "or '-' to print a single json/md "
                                  "artifact to stdout")
    p_artifacts.add_argument("-p", "--param", action="append",
                             type=_parse_param, metavar="KEY=VALUE",
                             help="driver parameter override (JSON value)")
    p_artifacts.add_argument("--quick", action="store_true",
                             help="use the experiment's quick-report "
                                  "parameterization as the base")
    p_artifacts.add_argument("--no-cache", action="store_true",
                             help="recompute instead of using the cache")
    p_artifacts.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="result cache directory")
    p_artifacts.set_defaults(func=cmd_artifacts)

    p_worker = sub.add_parser(
        "worker", help="sweep-worker daemon: executes NDJSON task "
                       "frames over stdin/stdout (spawned by the "
                       "shards backend) or a TCP fleet connection "
                       "(--connect HOST:PORT)")
    p_worker.add_argument("--no-warm", action="store_true",
                          help="skip preloading the simulator modules")
    p_worker.add_argument("--connect", metavar="HOST:PORT", default=None,
                          help="dial into a fleet coordinator instead "
                               "of serving stdin (shared secret read "
                               "from REPRO_FLEET_SECRET)")
    p_worker.add_argument("--reconnect", action="store_true",
                          help="with --connect: redial forever after a "
                               "session ends (a standing fleet member); "
                               "a handshake refusal still exits")
    p_worker.add_argument("--retry", type=float, default=60.0,
                          metavar="SECONDS",
                          help="with --connect: keep retrying the "
                               "initial connection this long "
                               "(default: 60)")
    p_worker.set_defaults(func=cmd_worker)

    p_stats = sub.add_parser(
        "stats", help="scrape a running `repro serve` instance's "
                      "telemetry registry (GET /metrics)")
    p_stats.add_argument("--connect", metavar="HOST:PORT",
                         default="127.0.0.1:8123",
                         help="server to scrape (default: 127.0.0.1:8123)")
    p_stats.add_argument("--json", action="store_true",
                         help="print the raw registry snapshot")
    p_stats.add_argument("--prefix", action="append", default=None,
                         metavar="PREFIX",
                         help="only metric families starting with this "
                              "prefix (repeatable)")
    p_stats.add_argument("--watch", type=float, default=None,
                         metavar="SECONDS",
                         help="re-scrape and re-render every SECONDS "
                              "until interrupted")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="record and inspect trial-lifecycle traces "
                      "(queued -> dispatched -> running -> done)")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)
    t_record = trace_sub.add_parser(
        "record", help="run one experiment with lifecycle tracing on; "
                       "writes an NDJSON event stream")
    t_record.add_argument("experiment", metavar="NAME",
                          help="experiment name (see `list`)")
    _add_execution_options(t_record)
    t_record.add_argument("--seed", type=int, default=None,
                          help="override the experiment seed")
    t_record.add_argument("-p", "--param", action="append",
                          type=_parse_param, metavar="KEY=VALUE",
                          help="driver parameter override (JSON value)")
    t_record.add_argument("--out", metavar="PATH", default=None,
                          help="trace output path (default: "
                               "TRACE_<name>.ndjson)")
    t_record.set_defaults(func=cmd_trace_record)
    t_summary = trace_sub.add_parser(
        "summary", help="per-sweep rollup of a recorded trace: trials, "
                        "requeues, attempts, latency stats")
    t_summary.add_argument("trace", metavar="TRACE.ndjson",
                           help="NDJSON trace from `trace record` or "
                                "REPRO_TRACE=PATH")
    t_summary.set_defaults(func=cmd_trace_summary)
    t_export = trace_sub.add_parser(
        "export", help="convert a recorded trace to Chrome trace-event "
                       "JSON (about://tracing, Perfetto)")
    t_export.add_argument("trace", metavar="TRACE.ndjson",
                          help="NDJSON trace to convert")
    t_export.add_argument("--out", metavar="PATH", default=None,
                          help="output path (default: "
                               "<trace>.chrome.json)")
    t_export.set_defaults(func=cmd_trace_export)

    p_fleet = sub.add_parser(
        "fleet", help="TCP worker-fleet tools: stand up a listener and "
                      "inspect connected workers")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command",
                                       required=True)
    f_listen = fleet_sub.add_parser(
        "listen", help="accept + authenticate workers and print "
                       "join/refusal events (secret from "
                       "REPRO_FLEET_SECRET)")
    f_listen.add_argument("--host", default="127.0.0.1",
                          help="bind address (default: 127.0.0.1; use "
                               "0.0.0.0 for cross-machine workers)")
    f_listen.add_argument("--port", type=int, required=True,
                          help="TCP port to listen on")
    f_listen.set_defaults(func=cmd_fleet_listen)
    f_status = fleet_sub.add_parser(
        "status", help="query a fleet coordinator for its connected "
                       "workers, versions, and in-flight depth")
    f_status.add_argument("--connect", metavar="HOST:PORT",
                          required=True,
                          help="coordinator address to query")
    f_status.add_argument("--json", action="store_true",
                          help="print the raw status document")
    f_status.set_defaults(func=cmd_fleet_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.dist import install_signal_shutdown, shutdown_backends

    # SIGTERM must unwind (not hard-kill) so the shards fleet is torn
    # down; `repro serve` installs its own asyncio handlers instead.
    install_signal_shutdown()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command is None:
            # Legacy interface: `python -m repro [--save PATH]` == report.
            with _gc_paused():
                report = quick_report()
            print(report.to_markdown())
            if args.legacy_save:
                path = report.save(args.legacy_save)
                print(f"\nreport written to {path}", file=sys.stderr)
            return 0 if report.all_passed else 1
        if args.legacy_save and getattr(args, "save", None) is None:
            args.save = args.legacy_save
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C mid-sweep: drain/kill the worker fleet before exiting
        # with the conventional 128+SIGINT code.
        shutdown_backends()
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
