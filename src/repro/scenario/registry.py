"""The agent-kind registry: spec kinds -> :mod:`repro.cpu` classes.

Each registered kind is a builder turning an :class:`AgentSpec`'s
params dict into one or more started-to-be agents on the scenario's
memory system.  Builders receive a :class:`BuildContext` (system,
shared latency classifier, address helpers, and the stage's current
simulation time) and must be deterministic: the same spec always
produces the same agents with the same constructor arguments, which is
what keeps scenario-built experiments bit-identical to the imperative
code they replaced.

Adding an agent kind is one decorated function::

    @agent_kind("my-agent", doc="one-line description")
    def _build_my_agent(ctx, **params):
        return MyAgent(ctx.system, ...)

Params arrive JSON-normalized (tuples as lists, dict keys as strings);
builders own the conversion back to whatever the agent class wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.probe import LatencyClassifier
from repro.cpu.agent import Agent
from repro.scenario.spec import AgentSpec, ScenarioError
from repro.system import MemorySystem


@dataclass(frozen=True)
class AgentKind:
    """One registered agent kind."""

    kind: str
    builder: Callable[..., "Agent | list[Agent]"]
    doc: str


_KINDS: dict[str, AgentKind] = {}


def agent_kind(kind: str, *, doc: str) -> Callable:
    """Register a builder under ``kind`` (duplicate kinds are an error)."""

    def decorate(fn: Callable) -> Callable:
        if kind in _KINDS:
            raise ScenarioError(f"agent kind {kind!r} already registered")
        _KINDS[kind] = AgentKind(kind=kind, builder=fn, doc=doc)
        return fn

    return decorate


def agent_kinds() -> dict[str, AgentKind]:
    """Every registered kind, keyed by name."""
    return dict(_KINDS)


def get_kind(kind: str) -> AgentKind:
    try:
        return _KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(_KINDS))
        raise ScenarioError(
            f"unknown agent kind {kind!r}; known kinds: {known}") from None


@dataclass
class BuildContext:
    """What an agent builder sees."""

    system: MemorySystem
    classifier: LatencyClassifier
    #: simulation time when this agent's stage is being assembled (0 for
    #: stage 0; later stages are built after the previous stage ran).
    now: int

    # -- param helpers -------------------------------------------------
    def resolve_addrs(self, params: dict, *, single: bool = False):
        """Turn a spec's placement params into byte addresses.

        Accepts either pre-encoded ``addrs``/``addr`` integers or the
        declarative ``bank: [bankgroup, bank]`` + ``rows: [...]`` form
        (optionally with ``rank``); both encode identically because
        address mapping is a pure function of the DRAM organization.
        """
        mapper = self.system.mapper
        unknown = set(params) - {"addr", "addrs", "bank", "rows", "rank"}
        if unknown:
            raise ScenarioError(
                f"unknown agent param(s) {sorted(unknown)}; placement "
                "takes 'addr', 'addrs', or 'bank'+'rows' (+'rank')")
        if "addr" in params:
            addrs = [int(params["addr"])]
        elif "addrs" in params:
            addrs = [int(a) for a in params["addrs"]]
        elif "rows" in params:
            bg, bank = params.get("bank", (0, 0))
            rank = int(params.get("rank", 0))
            addrs = [mapper.encode(rank=rank, bankgroup=int(bg),
                                   bank=int(bank), row=int(r))
                     for r in params["rows"]]
        else:
            raise ScenarioError(
                "agent placement needs 'addr', 'addrs', or 'bank'+'rows'")
        if single:
            if len(addrs) != 1:
                raise ScenarioError("this agent kind takes exactly one "
                                    "address")
            return addrs[0]
        return addrs

    def start_time(self, value) -> int:
        """Explicit ``start_time`` or the stage's current time."""
        return self.now if value is None else int(value)


def build_agents(ctx: BuildContext, spec: AgentSpec) -> list[Agent]:
    """Resolve one :class:`AgentSpec` into its (started-later) agents."""
    entry = get_kind(spec.kind)
    try:
        built = entry.builder(ctx, name=spec.name, **dict(spec.params))
    except TypeError as exc:
        raise ScenarioError(
            f"agent kind {spec.kind!r}: {exc}") from None
    return list(built) if isinstance(built, (list, tuple)) else [built]


# ----------------------------------------------------------------------
# Param plumbing shared by several kinds
# ----------------------------------------------------------------------
def _int_or_none(value):
    return None if value is None else int(value)


def _event_kinds(names):
    from repro.core.probe import EventKind

    return tuple(EventKind(n) for n in names)


def _with_stop_on(ctx: BuildContext, probe, stop_on, on_sample):
    """Install a first-matching-event stop watcher on a probe.

    The watcher runs *after* any user collector so a stopping sample is
    still recorded and observed -- the behaviour imperative attack
    loops implemented with ad-hoc ``on_sample`` closures.
    """
    if not stop_on:
        return probe
    kinds = _event_kinds(stop_on)
    classify = ctx.classifier.classify
    inner = on_sample

    def watch(sample) -> None:
        if inner is not None:
            inner(sample)
        if classify(sample.delta) in kinds:
            probe.stop()

    probe.on_sample = watch
    return probe


# ----------------------------------------------------------------------
# The paper's cast
# ----------------------------------------------------------------------
@agent_kind("probe", doc="closed-loop latency measurement loop (Listing 1)")
def _build_probe(ctx: BuildContext, name=None, *, max_samples=None,
                 stop_time=None, overhead=None, accesses_per_addr=1,
                 jitter_ps=0, stop_on=(), start_time=None, **placement):
    from repro.cpu.probe import LatencyProbe

    kwargs = {} if name is None else {"name": name}
    probe = LatencyProbe(
        ctx.system, ctx.resolve_addrs(placement),
        start_time=ctx.start_time(start_time),
        max_samples=_int_or_none(max_samples),
        stop_time=_int_or_none(stop_time),
        overhead=_int_or_none(overhead),
        accesses_per_addr=int(accesses_per_addr),
        jitter_ps=int(jitter_ps), **kwargs)
    return _with_stop_on(ctx, probe, stop_on, None)


@agent_kind("noise", doc="alternating-row activation generator (Eq. 2)")
def _build_noise(ctx: BuildContext, name=None, *, sleep_ps=None,
                 intensity=None, stop_time=None, burst=2, start_time=None,
                 **placement):
    from repro.cpu.noise import NoiseAgent, sleep_for_noise_intensity

    if (sleep_ps is None) == (intensity is None):
        raise ScenarioError(
            "noise agent takes exactly one of 'sleep_ps' or 'intensity'")
    if intensity is not None:
        sleep_ps = sleep_for_noise_intensity(float(intensity))
    kwargs = {} if name is None else {"name": name}
    return NoiseAgent(ctx.system, ctx.resolve_addrs(placement),
                      int(sleep_ps),
                      start_time=ctx.start_time(start_time),
                      stop_time=_int_or_none(stop_time), burst=int(burst),
                      **kwargs)


@agent_kind("sender", doc="window-synchronized covert-channel sender")
def _build_sender(ctx: BuildContext, name=None, *, symbols, epoch,
                  window_ps, gaps, stop_on_backoff=True, **placement):
    from repro.core.covert import WindowedSender

    kwargs = {} if name is None else {"name": name}
    gap_table = {int(k): _int_or_none(v) for k, v in gaps.items()}
    return WindowedSender(ctx.system,
                          ctx.resolve_addrs(placement, single=True),
                          [int(s) for s in symbols], int(epoch),
                          int(window_ps), gap_table, ctx.classifier,
                          stop_on_backoff=bool(stop_on_backoff), **kwargs)


@agent_kind("receiver", doc="window-synchronized covert-channel receiver")
def _build_receiver(ctx: BuildContext, name=None, *, n_windows, epoch,
                    window_ps, sleep_on_backoff=False, jitter_ps=0,
                    **placement):
    from repro.core.covert import WindowedReceiver

    kwargs = {} if name is None else {"name": name}
    receiver = WindowedReceiver(
        ctx.system, ctx.resolve_addrs(placement, single=True),
        int(n_windows), int(epoch), int(window_ps), ctx.classifier,
        sleep_on_backoff=bool(sleep_on_backoff), **kwargs)
    # Measurement jitter is enabled post-construction, exactly as the
    # imperative channel assembly did (the jitter RNG itself is seeded
    # from the agent name + system seed at construction either way).
    receiver.jitter_ps = int(jitter_ps)
    return receiver


@agent_kind("app", doc="synthetic SPEC-like application (RBMPKI classes)")
def _build_app(ctx: BuildContext, name=None, *, spec=None,
               intensity_class=None, seed=0, banks=None, n_requests=50_000,
               stop_time=None, start_time=None):
    from repro.cpu.app import AppSpec, SyntheticAppAgent, spec_like_app

    if (spec is None) == (intensity_class is None):
        raise ScenarioError(
            "app agent takes exactly one of 'spec' or 'intensity_class'")
    if spec is not None:
        data = dict(spec)
        data["banks"] = tuple((int(bg), int(b)) for bg, b in data["banks"])
        if name is not None:
            data["name"] = name
        app_spec = AppSpec(**data)
    else:
        if banks is None:
            org = ctx.system.config.org
            bank_list = tuple((g, b) for g in range(org.bankgroups)
                              for b in range(org.banks_per_group))
        else:
            bank_list = tuple((int(bg), int(b)) for bg, b in banks)
        app_spec = spec_like_app(
            str(intensity_class),
            name if name is not None else f"spec-{intensity_class}",
            seed=int(seed), banks=bank_list, n_requests=int(n_requests))
    return SyntheticAppAgent(
        ctx.system, app_spec,
        start_time=ctx.start_time(start_time),
        stop_time=_int_or_none(stop_time))


@agent_kind("trace", doc="open-loop timed trace replay (browser process)")
def _build_trace(ctx: BuildContext, name=None, *, trace, start_time=None,
                 max_outstanding=4):
    from repro.cpu.trace import TraceReplayAgent

    kwargs = {} if name is None else {"name": name}
    return TraceReplayAgent(
        ctx.system, [(int(t), int(a)) for t, a in trace],
        start_time=ctx.start_time(start_time),
        max_outstanding=int(max_outstanding), **kwargs)


# ----------------------------------------------------------------------
# Composable kinds beyond the paper's cast
# ----------------------------------------------------------------------
@agent_kind("multi-probe",
            doc="N independent probes striped over disjoint row regions")
def _build_multi_probe(ctx: BuildContext, name=None, *, count, bank=(0, 0),
                       first_row=0, rows_per_probe=2, row_stride=8,
                       region_stride=None, **probe_params):
    """Expand one spec into ``count`` probes, each measuring its own
    row region of one bank -- a many-vantage-point observer (e.g. for
    localizing which bank a victim hammers, or for densifying the
    fingerprinting signal)."""
    count = int(count)
    if count < 1:
        raise ScenarioError("multi-probe needs count >= 1")
    base = name if name is not None else "multi-probe"
    if region_stride is None:
        region_stride = int(rows_per_probe) * int(row_stride)
    probes = []
    for i in range(count):
        first = int(first_row) + i * int(region_stride)
        rows = [first + j * int(row_stride)
                for j in range(int(rows_per_probe))]
        probes.append(_build_probe(
            ctx, name=f"{base}-{i}", bank=list(bank), rows=rows,
            **probe_params))
    return probes


@agent_kind("mixed-noise",
            doc="noise generator issuing a seeded read/write mix")
def _build_mixed_noise(ctx: BuildContext, name=None, *, sleep_ps=None,
                       intensity=None, write_ratio=0.5, stop_time=None,
                       burst=2, start_time=None, **placement):
    from repro.cpu.noise import RWNoiseAgent, sleep_for_noise_intensity

    if (sleep_ps is None) == (intensity is None):
        raise ScenarioError(
            "mixed-noise agent takes exactly one of 'sleep_ps' or "
            "'intensity'")
    if intensity is not None:
        sleep_ps = sleep_for_noise_intensity(float(intensity))
    kwargs = {} if name is None else {"name": name}
    return RWNoiseAgent(ctx.system, ctx.resolve_addrs(placement),
                        int(sleep_ps), write_ratio=float(write_ratio),
                        start_time=ctx.start_time(start_time),
                        stop_time=_int_or_none(stop_time), burst=int(burst),
                        **kwargs)
