"""Declarative scenario specifications.

A *scenario* is everything one paper experiment trial is made of -- a
memory system (:class:`~repro.sim.config.SystemConfig`), a cast of
agents (probes, noise generators, covert senders/receivers, victim
applications, trace replays), a stop condition, and the measurements to
collect -- expressed as plain data.  Specs serialize losslessly to JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`), hash
stably across processes (:meth:`ScenarioSpec.cache_key`), and pickle
cleanly, so a trial shipped to a worker process or cached on disk is a
value, not a closure::

    >>> from repro.scenario import AgentSpec, ScenarioSpec, StopSpec
    >>> from repro.sim.config import DefenseKind, DefenseParams, SystemConfig
    >>> spec = ScenarioSpec(
    ...     system=SystemConfig(defense=DefenseParams(kind=DefenseKind.PRAC)),
    ...     agents=(AgentSpec("probe", params={
    ...         "bank": [0, 0], "rows": [0, 8], "max_samples": 64}),),
    ...     stop=StopSpec(hard_limit_ps=50_000_000_000))
    >>> result = spec.run()
    >>> result.agent("probe").samples[0].delta > 0
    True

Building (:meth:`ScenarioSpec.build`) resolves each agent kind through
the registry in :mod:`repro.scenario.registry`; running executes the
stop condition exactly like :func:`repro.cpu.agent.run_agents`, so a
scenario-built experiment is bit-identical to its hand-assembled
predecessor.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.build import BuiltScenario
    from repro.scenario.result import ScenarioResult


class ScenarioError(ValueError):
    """Malformed scenario spec (unknown agent kind, bad params, ...)."""


#: Exact types ``_json_normal`` returns unchanged without the
#: isinstance chain (an ``IntEnum`` member is not one of them).
_JSON_SCALARS = frozenset((int, float, str, bool, type(None)))


def _json_normal(value):
    """Normalize a params value to its canonical JSON shape.

    Tuples become lists, enum members their values, and dict keys
    strings -- so ``from_dict(to_dict(spec)) == spec`` holds exactly,
    and a spec that went through ``json.dumps``/``json.loads`` compares
    equal to the original.  Agent-kind builders accept the normalized
    shapes (e.g. string symbol keys in a sender's gap table).
    """
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return _json_normal(value.value)
    if isinstance(value, dict):
        return {str(k): _json_normal(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_normal(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ScenarioError(
        f"scenario param value {value!r} is not JSON-serializable; "
        "specs must be pure data")


@dataclass(frozen=True)
class AgentSpec:
    """One agent of the scenario cast, as data.

    ``kind`` names an entry of the agent registry
    (:func:`repro.scenario.registry.agent_kinds`); ``params`` are the
    kind's keyword arguments.  ``name`` defaults to the kind's own
    default agent name.  ``stage`` orders sequential phases: all
    stage-0 agents run to completion before stage-1 agents are built
    and started (on the *same*, already-aged memory system), which is
    how e.g. the counter-leak attack's victim-then-attacker protocol
    is expressed as one spec.
    """

    kind: str
    name: str | None = None
    stage: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ScenarioError("agent stage must be >= 0")
        object.__setattr__(self, "params", _json_normal(dict(self.params)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "stage": self.stage,
                "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "AgentSpec":
        unknown = set(data) - {"kind", "name", "stage", "params"}
        if unknown:
            raise ScenarioError(
                f"unknown AgentSpec fields: {sorted(unknown)}")
        return cls(kind=data["kind"], name=data.get("name"),
                   stage=int(data.get("stage", 0)),
                   params=dict(data.get("params", {})))


@dataclass(frozen=True)
class StopSpec:
    """When a scenario stage is over.

    A stage ends when every one of its agents reports done;
    ``hard_limit_ps`` bounds each stage (measured from the stage's
    start time, which for stage 0 of a fresh simulation is t=0 -- the
    exact semantics of :func:`repro.cpu.agent.run_agents`).
    ``step_ps`` is the done-check granularity (default: deadline/100,
    again matching ``run_agents``).
    """

    hard_limit_ps: int
    step_ps: int | None = None

    def __post_init__(self) -> None:
        if self.hard_limit_ps <= 0:
            raise ScenarioError("hard_limit_ps must be positive")
        if self.step_ps is not None and self.step_ps <= 0:
            raise ScenarioError("step_ps must be positive when given")

    def to_dict(self) -> dict:
        return {"hard_limit_ps": self.hard_limit_ps, "step_ps": self.step_ps}

    @classmethod
    def from_dict(cls, data: dict) -> "StopSpec":
        unknown = set(data) - {"hard_limit_ps", "step_ps"}
        if unknown:
            raise ScenarioError(f"unknown StopSpec fields: {sorted(unknown)}")
        return cls(hard_limit_ps=data["hard_limit_ps"],
                   step_ps=data.get("step_ps"))


@dataclass(frozen=True)
class MeasurementSpec:
    """One post-run collector, as data.

    ``kind`` names an entry of the measurement registry
    (:func:`repro.scenario.measure.measurement_kinds`); its output
    lands in ``ScenarioResult.data[label]`` (label defaults to the
    kind).
    """

    kind: str
    label: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _json_normal(dict(self.params)))

    @property
    def key(self) -> str:
        return self.label if self.label is not None else self.kind

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementSpec":
        unknown = set(data) - {"kind", "label", "params"}
        if unknown:
            raise ScenarioError(
                f"unknown MeasurementSpec fields: {sorted(unknown)}")
        return cls(kind=data["kind"], label=data.get("label"),
                   params=dict(data.get("params", {})))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scenario: system + agents + stop + measurements.

    The agent tuple is *ordered*: agents start (and therefore seed the
    event queue) in exactly this order, which pins tie-breaks and keeps
    scenario-built experiments bit-identical to their imperative
    predecessors.
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    agents: tuple[AgentSpec, ...] = ()
    stop: StopSpec = field(default_factory=lambda: StopSpec(10 ** 12))
    measurements: tuple[MeasurementSpec, ...] = ()
    #: Latency-classifier measurement resolution shared by every agent
    #: that classifies samples (``None`` = the classifier default).
    resolution_ps: int | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "measurements", tuple(self.measurements))

    # ------------------------------------------------------------------
    @property
    def stages(self) -> tuple[int, ...]:
        """Distinct agent stages, in execution order."""
        return tuple(sorted({a.stage for a in self.agents}))

    def agents_of_stage(self, stage: int) -> tuple[AgentSpec, ...]:
        return tuple(a for a in self.agents if a.stage == stage)

    def with_(self, **overrides) -> "ScenarioSpec":
        """Copy with field overrides (mirrors ``SystemConfig.with_``)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "system": self.system.to_dict(),
            "agents": [a.to_dict() for a in self.agents],
            "stop": self.stop.to_dict(),
            "measurements": [m.to_dict() for m in self.measurements],
            "resolution_ps": self.resolution_ps,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        known = {"name", "system", "agents", "stop", "measurements",
                 "resolution_ps"}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}")
        try:
            return cls(
                name=data.get("name", "scenario"),
                system=SystemConfig.from_dict(data["system"]),
                agents=tuple(AgentSpec.from_dict(a)
                             for a in data.get("agents", [])),
                stop=StopSpec.from_dict(data["stop"]),
                measurements=tuple(MeasurementSpec.from_dict(m)
                                   for m in data.get("measurements", [])),
                resolution_ps=data.get("resolution_ps"),
            )
        except KeyError as exc:
            # Hand-written spec files: a missing required field must
            # surface as a malformed-spec error, not a bare KeyError.
            raise ScenarioError(
                f"scenario spec is missing required field {exc}") from None
        except TypeError as exc:
            # e.g. a string where a number belongs (hard_limit_ps="x").
            raise ScenarioError(
                f"malformed scenario spec: {exc}") from None

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """Stable content hash, identical across processes and runs.

        Mirrors :meth:`SystemConfig.cache_key`: SHA-256 over the
        canonical JSON encoding, so equal specs key identically and any
        field change (system, agent params, stop, measurements) keys
        differently.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Execution (delegates to repro.scenario.build)
    # ------------------------------------------------------------------
    def build(self, sim=None) -> "BuiltScenario":
        """Resolve every agent kind and assemble the memory system."""
        from repro.scenario.build import build

        return build(self, sim=sim)

    def classifier(self):
        """The configuration-derived latency classifier of this
        scenario's system -- available without assembling a memory
        system (latency levels are a pure function of the config)."""
        from repro.core.probe import LatencyClassifier

        return LatencyClassifier(self.system,
                                 resolution_ps=self.resolution_ps)

    def run(self) -> "ScenarioResult":
        """Build, execute every stage, and collect the measurements."""
        return self.build().run()

    def describe(self) -> str:
        """Human-readable one-screen summary of the spec."""
        lines = [f"scenario {self.name!r}",
                 f"  system: defense={self.system.defense.kind.value} "
                 f"refresh={self.system.refresh_policy.value} "
                 f"seed={self.system.seed}",
                 f"  stop: hard_limit={self.stop.hard_limit_ps} ps "
                 f"(per stage), step={self.stop.step_ps or 'auto'}",
                 f"  agents ({len(self.agents)}):"]
        for i, agent in enumerate(self.agents):
            shown = {k: v for k, v in sorted(agent.params.items())}
            text = json.dumps(shown)
            if len(text) > 120:
                text = text[:117] + "..."
            lines.append(f"    [{i}] kind={agent.kind} "
                         f"name={agent.name or '(default)'} "
                         f"stage={agent.stage} params={text}")
        if self.measurements:
            lines.append(f"  measurements ({len(self.measurements)}):")
            for m in self.measurements:
                lines.append(f"    {m.key}: kind={m.kind} "
                             f"params={json.dumps(m.params)}")
        lines.append(f"  cache_key: {self.cache_key()[:16]}...")
        return "\n".join(lines)
