"""Decorator-based experiment registry.

Every paper figure/table driver registers itself with metadata::

    @experiment("fig4", figure="Fig. 4",
                claim="PRAC covert-channel capacity degrades with noise",
                default_scale={"n_bits": 24})
    def fig4_prac_noise_sweep(intensities=..., n_bits=24, workers=None):
        ...

The registry is the single source of truth consumed by the CLI
(``python -m repro list`` / ``run``), the quick report
(:mod:`repro.analysis.report`), and the benchmark harness — adding a
new experiment means writing one decorated driver, nothing else.

Driver modules live under :mod:`repro.exp.drivers` and are imported
lazily on first registry access, so ``import repro`` stays cheap.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable


class RegistryError(KeyError):
    """Unknown experiment name or conflicting registration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment driver plus its paper metadata."""

    #: Short stable identifier (``fig4``, ``sec91``, ``table3`` ...).
    name: str
    #: The driver callable (returns a FigureTable or a dict of results).
    fn: Callable[..., object]
    #: Paper figure/table/section label (``"Fig. 4"``).
    figure: str
    #: One-line statement of the paper claim the experiment reproduces.
    claim: str
    #: Default (reduced-but-faithful) scale, for documentation/CLI.
    default_scale: dict = field(default_factory=dict)
    #: Keyword overrides for the quick report; ``None`` = not part of it.
    quick: dict | None = None
    #: ``check(result) -> (passed, body)`` used by the quick report.
    check: Callable[[object], tuple[bool, str]] | None = None
    #: Alternative lookup names (``table2`` for ``fig10``).
    aliases: tuple[str, ...] = ()
    #: Free-form labels (``"sweep"``, ``"prac"``, ...).
    tags: tuple[str, ...] = ()
    #: Registration sequence number (stable iteration order).
    order: int = 0

    @functools.cached_property
    def signature(self) -> inspect.Signature:
        """The driver's call signature, computed on first use."""
        return inspect.signature(self.fn)

    @property
    def parallelizable(self) -> bool:
        """True when the driver accepts a ``workers`` keyword."""
        return "workers" in self.signature.parameters

    @property
    def seedable(self) -> bool:
        """True when the driver accepts a ``seed`` keyword."""
        return "seed" in self.signature.parameters


_REGISTRY: dict[str, ExperimentSpec] = {}
_ALIASES: dict[str, str] = {}
_loaded = False


def _ensure_loaded() -> None:
    """Import the driver package (self-registering) exactly once."""
    global _loaded
    if not _loaded:
        import repro.exp.drivers  # noqa: F401  (registration side effect)
        _loaded = True


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry; duplicate names are an error."""
    for name in (spec.name, *spec.aliases):
        if name in _REGISTRY or name in _ALIASES:
            raise RegistryError(
                f"experiment name {name!r} is already registered")
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def experiment(name: str, *, figure: str, claim: str,
               default_scale: dict | None = None,
               quick: dict | None = None,
               check: Callable[[object], tuple[bool, str]] | None = None,
               aliases: tuple[str, ...] = (),
               tags: tuple[str, ...] = ()) -> Callable:
    """Class-method-style decorator registering a driver function."""

    def decorate(fn: Callable) -> Callable:
        register(ExperimentSpec(
            name=name, fn=fn, figure=figure, claim=claim,
            default_scale=dict(default_scale or {}),
            quick=None if quick is None else dict(quick),
            check=check, aliases=tuple(aliases), tags=tuple(tags),
            order=len(_REGISTRY)))
        return fn

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look an experiment up by name or alias."""
    _ensure_loaded()
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise RegistryError(
            f"unknown experiment {name!r}; known: {known}") from None


def all_experiments() -> list[ExperimentSpec]:
    """Every registered experiment, in registration order."""
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda s: s.order)


def experiment_names() -> list[str]:
    """Canonical names, in registration order."""
    return [spec.name for spec in all_experiments()]
