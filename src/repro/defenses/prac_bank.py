"""Bank-Level PRAC (Section 11.3): per-bank ABO back-off signals.

Identical trigger algorithm to PRAC, but a back-off blocks only the
bank whose counter crossed the threshold, so an attacker whose data
lives in any *other* bank cannot observe the preventive action.  This
reduces LeakyHammer's scope to that of same-bank attacks (DRAMA-class)
without eliminating it within a bank.
"""

from __future__ import annotations

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind

from repro.defenses.prac import PracDefense


class BankLevelPracDefense(PracDefense):
    """PRAC whose preventive action is visible only within one bank."""

    kind = DefenseKind.PRAC_BANK

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n_banks = self.org.banks_per_rank
        self._bank_pending = [[False] * n_banks
                              for _ in range(self.org.ranks)]
        self._bank_cooldown = [[0] * n_banks
                               for _ in range(self.org.ranks)]

    # Per-bank ABO bookkeeping replaces the rank-level one.
    def on_precharge(self, rank: int, bank: int, row: int, t: int) -> None:
        if self._count(rank, bank, row) >= self.params.nbo:
            self._maybe_assert_bank_abo(rank, bank, t)

    def _maybe_assert_bank_abo(self, rank: int, bank: int, t: int) -> None:
        if self._bank_pending[rank][bank]:
            return
        assert_time = t + self.timing.tABO_DELAY
        if assert_time < self._bank_cooldown[rank][bank]:
            return
        self._bank_pending[rank][bank] = True
        self.abo_log.append((rank, assert_time))
        recovery_due = assert_time + self.timing.tABO_ACT
        self.sim.schedule_at(max(recovery_due, self.sim.now),
                             lambda: self._recover_bank(rank, bank))

    def _recover_bank(self, rank: int, bank: int) -> None:
        banks = frozenset((bank,))
        end = self.controller.block_banks(
            rank, banks, self.sim.now, self._backoff_duration(),
            BlockKind.BACKOFF)
        self.sim.schedule_at(end, lambda: self._finish_bank(rank, bank))

    def _finish_bank(self, rank: int, bank: int) -> None:
        self._reset_top_counters(rank, bank, self.params.n_rfms)
        self._bank_cooldown[rank][bank] = (
            self.sim.now + self.timing.tABO_COOLDOWN)
        self._bank_pending[rank][bank] = False

    def describe(self) -> dict:
        info = super().describe()
        info["kind"] = self.kind.value
        info["scope"] = "per-bank"
        return info
