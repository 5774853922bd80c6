"""The assembled memory system: simulator + controller + defense.

This is the main entry point for building experiments:

>>> from repro.sim import SystemConfig, DefenseParams, DefenseKind
>>> from repro.system import MemorySystem
>>> cfg = SystemConfig(defense=DefenseParams(kind=DefenseKind.PRAC, nbo=128))
>>> system = MemorySystem(cfg)
>>> addrs = system.mapper.same_bank_rows(2, bankgroup=1, bank=2)
>>> done = []
>>> system.submit(addrs[0], lambda req: done.append(req))
>>> _ = system.sim.run(until=10_000_000)
>>> done[0].kind
'miss'
"""

from __future__ import annotations

from typing import Callable

from repro.controller.controller import MemoryController, Request
from repro.controller.refresh import RefreshScheduler
from repro.defenses.factory import build_defense
from repro.dram.address import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.fastforward import resolve_enabled
from repro.sim.stats import MemoryStats


class MemorySystem:
    """A single-channel memory system with a configured RowHammer defense."""

    def __init__(self, config: SystemConfig,
                 sim: Simulator | None = None) -> None:
        config.validate()
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.mapper = AddressMapper(config.org)
        self.stats = MemoryStats()
        self.controller = MemoryController(self.sim, config, self.mapper,
                                           self.stats)
        self.defense = build_defense(self.sim, self.controller, config,
                                     self.stats)
        self.refresh = RefreshScheduler(self.sim, self.controller, config)
        # Fast-forward: wake-event elision in the controller
        # (bit-identical; machine-checked by `python -m repro diffcheck`).
        self.controller.ff_elide = resolve_enabled()
        self.refresh.start()
        self.defense.on_boot()

    # ------------------------------------------------------------------
    def submit(self, addr: int, callback: Callable[[Request], None],
               is_write: bool = False) -> Request:
        """Issue a request; the callback fires once the data returns to
        the core, i.e., after the on-chip frontend latency (which the
        controller folds into the completion callback directly -- no
        per-request relay event)."""
        return self.controller.submit(addr, callback, is_write=is_write)

    def submit_tail(self, addr: int, callback: Callable[[Request], None],
                    is_write: bool = False) -> Request:
        """:meth:`submit` for closed-loop callers that schedule nothing
        else at the current instant after this call returns -- eligible
        for the controller's wake-event elision (bit-identical; see
        :meth:`MemoryController.submit_tail`)."""
        return self.controller.submit_tail(addr, callback,
                                           is_write=is_write)

    def run_until(self, predicate: Callable[[], bool], step: int,
                  hard_limit: int) -> None:
        """Advance the simulation in ``step``-sized chunks until the
        predicate holds (or ``hard_limit`` picoseconds pass)."""
        while not predicate():
            if self.sim.now >= hard_limit:
                raise RuntimeError(
                    f"simulation exceeded hard limit ({hard_limit} ps) "
                    "before the stop condition held")
            self.sim.run(until=min(self.sim.now + step, hard_limit))

    # Convenience accessors ---------------------------------------------
    @property
    def now(self) -> int:
        return self.sim.now
