"""Property-based scenario generation: seeded random valid specs.

:func:`random_spec` turns one integer seed into a bounded, always-valid
:class:`~repro.scenario.spec.ScenarioSpec` -- a random defense
configuration, refresh policy, and a small cast drawn from the
agent-kind registry (probes with random placement/cadence, activation
noise, read/write-mix noise, synthetic apps), plus the measurements
that pin the run's observable physics (counters, raw per-sample pairs,
latency classes).

The generator is the randomized half of the differential equivalence
harness (``python -m repro diffcheck``): every spec runs once with
fast-forward (wake-event elision) disabled and once enabled, and the
results must be bit-identical.  It is deliberately *adversarial* --
multi-agent mixes, jittered probes, stop-on watchers and tiny
thresholds put foreign events, back-offs and early stops next to the
elided wakes, which is exactly the behaviour the harness must prove
safe.

``tests/equivalence/strategies.py`` re-exports these generators for
test-suite use.
"""

from __future__ import annotations

import random

from repro.scenario.spec import (
    AgentSpec,
    MeasurementSpec,
    ScenarioSpec,
    StopSpec,
)
from repro.sim.config import (
    DefenseKind,
    DefenseParams,
    RefreshPolicy,
    SystemConfig,
)
from repro.sim.engine import MS, NS, US

#: Defense kinds the fuzzer draws from (all registered kinds).
FUZZ_DEFENSES = (
    DefenseKind.NONE,
    DefenseKind.PRAC,
    DefenseKind.PRFM,
    DefenseKind.FRRFM,
    DefenseKind.PRAC_RIAC,
    DefenseKind.PRAC_BANK,
    DefenseKind.PARA,
)


def random_system(rng: random.Random) -> SystemConfig:
    """A random, always-valid :class:`SystemConfig`."""
    kind = rng.choice(FUZZ_DEFENSES)
    defense = DefenseParams(
        kind=kind,
        nbo=rng.choice((16, 32, 64, 128)),
        n_rfms=rng.choice((1, 2, 4)),
        # Keep the FR-RFM period above the RFM latency (trfm * tRC must
        # exceed tRFM_AB = 350 ns; tRC = 48 ns, so trfm >= 8).
        trfm=rng.choice((8, 16, 40)),
        para_probability=rng.choice((0.001, 0.01)),
        seed=rng.randrange(1 << 16),
    )
    return SystemConfig(
        defense=defense,
        refresh_policy=rng.choice((RefreshPolicy.NONE,
                                   RefreshPolicy.EVERY_TREFI,
                                   RefreshPolicy.POSTPONE_PAIR)),
        column_cap=rng.choice((4, 16)),
        seed=rng.randrange(1 << 16),
    )


def _random_probe(rng: random.Random, index: int) -> AgentSpec:
    n_rows = rng.choice((1, 1, 2, 2, 3))
    first = rng.randrange(0, 64)
    stride = rng.choice((1, 8))
    params = {
        "bank": (rng.randrange(4), rng.randrange(4)),
        "rows": [first + i * stride for i in range(n_rows)],
        "max_samples": rng.randrange(60, 400),
        "accesses_per_addr": rng.choice((1, 1, 1, 2, 3)),
    }
    if rng.random() < 0.25:
        params["jitter_ps"] = rng.choice((0, 35 * NS))
    if rng.random() < 0.2:
        params["stop_on"] = ["backoff"]
    if rng.random() < 0.3:
        params["start_time"] = rng.randrange(0, 50 * US)
    return AgentSpec("probe", name=f"probe-{index}", params=params)


def _random_noise(rng: random.Random, index: int) -> AgentSpec:
    kind = rng.choice(("noise", "mixed-noise"))
    params = {
        "bank": (rng.randrange(4), rng.randrange(4)),
        "rows": [rng.randrange(64, 96), rng.randrange(96, 128)],
        "intensity": rng.choice((1.0, 30.0, 80.0)),
        "stop_time": rng.randrange(1 * MS, 3 * MS),
        "burst": rng.choice((1, 2, 4)),
    }
    if kind == "mixed-noise":
        params["write_ratio"] = rng.choice((0.0, 0.3, 0.7))
    return AgentSpec(kind, name=f"{kind}-{index}", params=params)


def _random_app(rng: random.Random, index: int) -> AgentSpec:
    return AgentSpec("app", name=f"app-{index}", params={
        "intensity_class": rng.choice(("L", "M", "H")),
        "seed": rng.randrange(1 << 12),
        "banks": [[rng.randrange(4), rng.randrange(4)]],
        "n_requests": rng.randrange(150, 600),
    })


def random_spec(seed: int, *, max_agents: int = 3) -> ScenarioSpec:
    """One seeded random valid scenario spec (deterministic per seed).

    Always contains at least one probe (the observable the equivalence
    check pins sample-by-sample); additional agents are drawn from the
    noise/app kinds.  All scales are bounded so a diffcheck sweep of a
    few dozen specs stays interactive.
    """
    rng = random.Random(seed)
    system = random_system(rng)
    agents = [_random_probe(rng, 0)]
    extra_kinds = (_random_probe, _random_noise, _random_app)
    for i in range(rng.randrange(0, max_agents)):
        agents.append(rng.choice(extra_kinds)(rng, i + 1))

    measurements = [MeasurementSpec("counters")]
    for agent in agents:
        if agent.kind == "probe":
            measurements.append(MeasurementSpec(
                "samples", label=f"samples-{agent.name}",
                params={"agent": agent.name, "raw": True}))
            measurements.append(MeasurementSpec(
                "latency-classes", label=f"classes-{agent.name}",
                params={"agent": agent.name}))

    return ScenarioSpec(
        name=f"fuzz-{seed}",
        system=system,
        agents=tuple(agents),
        # Generous hard limit: every fuzz agent is bounded by
        # max_samples / stop_time / n_requests, so the limit only
        # guards against generator bugs.
        stop=StopSpec(hard_limit_ps=400 * MS),
        measurements=tuple(measurements),
    )


def random_specs(n: int, base_seed: int = 0x5EED) -> list[ScenarioSpec]:
    """``n`` seeded specs with distinct, reproducible seeds."""
    return [random_spec(base_seed + i) for i in range(n)]


# ----------------------------------------------------------------------
# Multi-agent periodic casts (the --fuzz-multi profile)
# ----------------------------------------------------------------------
def _periodic_probe(rng: random.Random, index: int,
                    bank: tuple[int, int]) -> AgentSpec:
    """A jitter-free bounded probe (the periodic-friendly variant)."""
    first = rng.randrange(0, 48)
    n_rows = rng.choice((1, 2))
    return AgentSpec("probe", name=f"probe-{index}", params={
        "bank": bank,
        "rows": [first + i * 8 for i in range(n_rows)],
        "max_samples": rng.randrange(60, 250),
        "accesses_per_addr": rng.choice((1, 1, 2)),
    })


def random_multiagent_spec(seed: int) -> ScenarioSpec:
    """One seeded multi-agent *periodic* scenario spec (deterministic
    per seed): two or three co-running agents whose closed loops
    interleave in the controller, so elided and deferred wakes mix.

    Where :func:`random_spec` is adversarial (jitter, stop-on
    watchers), every cast here is a shape the paper runs -- co-running
    probes, a probe against an activation-noise generator, or a
    window-synchronized covert sender + receiver pair.
    """
    rng = random.Random(seed)
    system = random_system(rng)
    cast = rng.choice(("probes", "probes", "three", "probe+noise",
                       "covert", "covert"))
    shared_bank = (rng.randrange(4), rng.randrange(4))
    other_bank = (rng.randrange(4), rng.randrange(4))

    if cast in ("probes", "three"):
        # Same-bank probes interleave in the bank FIFO; split-bank
        # probes run as independent loops.  Both shapes must hold
        # bit-identically under elision.
        banks = [shared_bank,
                 shared_bank if rng.random() < 0.5 else other_bank]
        if cast == "three":
            banks.append(other_bank)
        agents = [_periodic_probe(rng, i, bank)
                  for i, bank in enumerate(banks)]
    elif cast == "probe+noise":
        agents = [
            _periodic_probe(rng, 0, shared_bank),
            AgentSpec("noise", name="noise-1", params={
                "bank": shared_bank if rng.random() < 0.5 else other_bank,
                "rows": [rng.randrange(64, 96), rng.randrange(96, 128)],
                "intensity": rng.choice((1.0, 30.0, 80.0)),
                "stop_time": rng.randrange(400 * US, 1 * MS),
                "burst": rng.choice((1, 2)),
            }),
        ]
    else:  # covert: window-synchronized sender + receiver (+ noise)
        n_windows = rng.randrange(3, 6)
        window_ps = rng.choice((10 * US, 25 * US))
        epoch = 2 * US
        symbols = [rng.randrange(2) for _ in range(n_windows)]
        gaps = {0: None, 1: rng.choice((0, 100 * NS))}
        agents = [
            AgentSpec("sender", name="sender", params={
                "bank": shared_bank, "rows": (0,),
                "symbols": symbols, "epoch": epoch,
                "window_ps": window_ps, "gaps": gaps,
                "stop_on_backoff": rng.random() < 0.5}),
            AgentSpec("receiver", name="receiver", params={
                "bank": shared_bank, "rows": (8,),
                "n_windows": n_windows, "epoch": epoch,
                "window_ps": window_ps,
                "sleep_on_backoff": rng.random() < 0.5}),
        ]
        if rng.random() < 0.3:
            agents.append(AgentSpec("noise", name="noise-1", params={
                "bank": shared_bank, "rows": (16, 24),
                "intensity": rng.choice((1.0, 30.0)),
                "stop_time": epoch + n_windows * window_ps}))

    measurements = [MeasurementSpec("counters")]
    for agent in agents:
        if agent.kind in ("probe", "receiver"):
            measurements.append(MeasurementSpec(
                "samples", label=f"samples-{agent.name}",
                params={"agent": agent.name, "raw": True}))
            measurements.append(MeasurementSpec(
                "latency-classes", label=f"classes-{agent.name}",
                params={"agent": agent.name}))

    return ScenarioSpec(
        name=f"fuzz-multi-{seed}",
        system=system,
        agents=tuple(agents),
        stop=StopSpec(hard_limit_ps=400 * MS),
        measurements=tuple(measurements),
    )
