"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA'14).

Included for the paper's Section 12 analysis: PARA's trigger algorithm
is *stateless and random*, so an attacker cannot reliably trigger or
observe preventive actions -- which is why random trigger algorithms
resist LeakyHammer (at higher performance cost for equivalent
protection).  On every activation, with probability ``p`` the
controller refreshes the aggressor's neighbors, blocking the bank for
the victim-refresh latency.
"""

from __future__ import annotations

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind

from repro.defenses.base import Defense


class ParaDefense(Defense):
    """Stateless probabilistic neighbor refresh."""

    kind = DefenseKind.PARA

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.refresh_log: list[tuple[int, int, int]] = []

    def on_activate(self, rank: int, bank: int, row: int, t: int) -> None:
        if self.rng.random() >= self.params.para_probability:
            return
        self.refresh_log.append((rank, bank, t))
        self.sim.schedule_at(max(t, self.sim.now),
                             lambda: self._refresh_neighbors(rank, bank))

    def _refresh_neighbors(self, rank: int, bank: int) -> None:
        self.controller.block_banks(
            rank, frozenset((bank,)), self.sim.now,
            self.params.para_refresh_latency, BlockKind.PARA)

    def describe(self) -> dict:
        return {"kind": self.kind.value,
                "probability": self.params.para_probability,
                "refresh_latency_ps": self.params.para_refresh_latency}
