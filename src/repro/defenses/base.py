"""Defense interface shared by all RowHammer mitigations."""

from __future__ import annotations

import random

from repro.controller.controller import MemoryController
from repro.sim.config import DefenseKind, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import MemoryStats


class Defense:
    """Base class: a no-op defense (the unprotected baseline)."""

    kind = DefenseKind.NONE

    def __init__(self, sim: Simulator, controller: MemoryController,
                 config: SystemConfig, stats: MemoryStats) -> None:
        self.sim = sim
        self.controller = controller
        self.config = config
        self.params = config.defense
        self.timing = config.timing
        self.org = config.org
        self.stats = stats
        self.rng = random.Random(self.params.seed)

    # -- trigger-algorithm hooks (called by the controller) -------------
    def on_boot(self) -> None:
        """Called once after the system is wired up."""

    def on_activate(self, rank: int, bank: int, row: int, t: int) -> None:
        """An ACT command opened ``row`` in ``bank`` at time ``t``."""

    def on_precharge(self, rank: int, bank: int, row: int, t: int) -> None:
        """A PRE command closed ``row`` in ``bank`` at time ``t``."""

    def on_refresh(self, rank: int, t: int) -> None:
        """A periodic REF was issued to ``rank`` at time ``t``."""

    # -- introspection for tests/experiments ---------------------------
    def describe(self) -> dict:
        """Human-readable parameter summary."""
        return {"kind": self.kind.value}
