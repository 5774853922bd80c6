"""Periodic RFM (PRFM): memory-controller-side bank activation counting.

The controller counts activations per DRAM bank; when a bank's counter
reaches ``T_RFM`` it issues a same-bank RFM command, which blocks the
same bank *in every bank group* for ``tRFM_SB`` (~295 ns) -- the
bank-group-granularity observability the RFM-based covert channel
exploits (Section 7).
"""

from __future__ import annotations

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind

from repro.defenses.base import Defense


class PrfmDefense(Defense):
    """Periodic RFM driven by per-bank activation counters."""

    kind = DefenseKind.PRFM

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: bank_counters[rank][flat_bank] -> activations since last RFM
        self.bank_counters: list[list[int]] = [
            [0] * self.org.banks_per_rank for _ in range(self.org.ranks)
        ]
        #: ground truth for tests: (rank, flat_bank, issue_time).
        self.rfm_log: list[tuple[int, int, int]] = []

    def on_activate(self, rank: int, bank: int, row: int, t: int) -> None:
        counters = self.bank_counters[rank]
        counters[bank] += 1
        if counters[bank] >= self.params.trfm:
            counters[bank] = 0
            self.rfm_log.append((rank, bank, t))
            self.sim.schedule_at(max(t, self.sim.now),
                                 lambda: self._issue_rfm(rank, bank))

    def _issue_rfm(self, rank: int, bank: int) -> None:
        """Block the addressed bank in every bank group for tRFM_SB."""
        self.controller.block_banks(
            rank, self._same_bank_set(bank), self.sim.now,
            self.timing.tRFM_SB, BlockKind.RFM)

    def _same_bank_set(self, flat_bank: int) -> frozenset[int]:
        per_group = self.org.banks_per_group
        within = flat_bank % per_group
        return frozenset(g * per_group + within
                         for g in range(self.org.bankgroups))

    def describe(self) -> dict:
        return {"kind": self.kind.value, "trfm": self.params.trfm,
                "rfm_latency_ps": self.timing.tRFM_SB}
