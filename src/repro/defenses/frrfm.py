"""FR-RFM: Fixed-Rate RFM, the paper's fundamental countermeasure.

FR-RFM decouples preventive actions from application memory access
patterns by issuing an all-bank RFM at a *fixed wall-clock period*
``T_FRRFM = T_RFM x tRC`` -- the shortest time in which ``T_RFM``
activations can be performed -- so (1) RowHammer safety at the same
``N_RH`` as PRFM is preserved (no more than ``T_RFM`` ACTs can fit
between two RFMs) and (2) the RFM schedule carries *zero* information
about any process's accesses (Section 11.1's security argument).
"""

from __future__ import annotations

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind

from repro.defenses.base import Defense


class FixedRateRfmDefense(Defense):
    """All-bank RFM on a fixed time grid, independent of traffic."""

    kind = DefenseKind.FRRFM

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.period = self.params.trfm * self.timing.tRC
        if self.period <= self.timing.tRFM_AB:
            raise ValueError(
                "FR-RFM period must exceed the RFM latency, or the fixed "
                f"schedule starves memory entirely (period {self.period} ps"
                f" <= tRFM {self.timing.tRFM_AB} ps)")

    def on_boot(self) -> None:
        for rank in range(self.org.ranks):
            self.sim.schedule_call_at(self.period, self._tick, rank)

    def _tick(self, rank: int) -> None:
        """Issue the RFM exactly on the grid point.

        The scheduler is modified (paper Section 11.1) so that all
        scheduled requests complete and banks precharge before the slot;
        we model that by *not* aligning the block to in-flight work --
        the blocking interval begins at the grid time unconditionally.
        """
        now = self.sim.now
        self.controller.block_banks(
            rank, None, now, self.timing.tRFM_AB, BlockKind.RFM,
            align_to_busy=False)
        self.sim.schedule_call_at(now + self.period, self._tick, rank)

    def describe(self) -> dict:
        return {"kind": self.kind.value, "trfm": self.params.trfm,
                "period_ps": self.period,
                "rfm_latency_ps": self.timing.tRFM_AB}
