"""PRAC: Per Row Activation Counting with the alert-back-off protocol.

Follows the paper's PRAC model (Section 6.1):

* every DRAM row has an activation counter, incremented *while the row
  is being closed* (i.e., at PRE time);
* when a counter reaches the back-off threshold ``N_BO``, the DRAM chip
  asserts ABO ~5 ns after the PRE;
* the memory controller serves normal traffic for ``tABOACT`` (180 ns),
  then enters a recovery period of ``n_rfms`` back-to-back RFM commands
  (350 ns each; 4 RFMs = the 1400 ns back-off latency of the paper);
* each RFM lets the chip refresh the victims of its highest-count row
  in every bank, so a recovery with ``n_rfms`` RFMs resets the top
  ``n_rfms`` counters per bank;
* after recovery the chip respects a cool-down window before asserting
  ABO again.

Back-offs block the *whole rank* (the paper: "PRAC blocks all accesses
to an entire channel") -- the channel-granularity observability that
LeakyHammer exploits.
"""

from __future__ import annotations

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind

from repro.defenses.base import Defense

#: Rows whose counters a single periodic REF covers per bank (128K rows
#: refreshed over 8192 REFs per tREFW).
_ROWS_PER_REF = 16


class PracDefense(Defense):
    """PRAC with rank-level ABO back-off."""

    kind = DefenseKind.PRAC

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: counters[rank][flat_bank] -> {row: activation count}
        self.counters: list[list[dict[int, int]]] = [
            [dict() for _ in range(self.org.banks_per_rank)]
            for _ in range(self.org.ranks)
        ]
        self._abo_pending = [False] * self.org.ranks
        self._cooldown_end = [0] * self.org.ranks
        # The distributed-refresh sweep position at attack time is
        # arbitrary; start mid-bank so low-numbered rows (where the
        # attacks and workloads live) are not swept immediately.
        self._ref_cursor = [self.org.rows_per_bank // 2] * self.org.ranks
        #: ground truth for tests: (rank, assert_time) tuples.
        self.abo_log: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Counter management
    # ------------------------------------------------------------------
    def _initial_count(self) -> int:
        """Counter value after boot / after a preventive reset.

        PRAC starts at zero; RIAC overrides this with a random value.
        """
        return 0

    def counter_value(self, rank: int, bank: int, row: int) -> int:
        """Current activation count of a row (test/experiment hook)."""
        counters = self.counters[rank][bank]
        if row not in counters:
            counters[row] = self._initial_count()
        return counters[row]

    # ------------------------------------------------------------------
    # Trigger algorithm
    # ------------------------------------------------------------------
    def on_precharge(self, rank: int, bank: int, row: int, t: int) -> None:
        counters = self.counters[rank][bank]
        count = counters.get(row)
        if count is None:
            count = self._initial_count()
        count += 1
        counters[row] = count
        if count >= self.params.nbo:
            self._maybe_assert_abo(rank, t)

    def _maybe_assert_abo(self, rank: int, t: int) -> None:
        if self._abo_pending[rank]:
            return
        assert_time = t + self.timing.tABO_DELAY
        if assert_time < self._cooldown_end[rank]:
            return
        self._abo_pending[rank] = True
        self.abo_log.append((rank, assert_time))
        recovery_due = assert_time + self.timing.tABO_ACT
        self.sim.schedule_at(max(recovery_due, self.sim.now),
                             lambda: self._recover(rank))

    # ------------------------------------------------------------------
    # Preventive action
    # ------------------------------------------------------------------
    def _blocked_banks(self, rank: int) -> frozenset[int] | None:
        """Which banks the back-off blocks (``None`` = whole rank)."""
        return None

    def _backoff_duration(self) -> int:
        override = self.params.backoff_latency_override
        if override is not None:
            return override
        return self.params.n_rfms * self.timing.tRFM_AB

    def _recover(self, rank: int) -> None:
        banks = self._blocked_banks(rank)
        end = self.controller.block_banks(
            rank, banks, self.sim.now, self._backoff_duration(),
            BlockKind.BACKOFF, close=True)
        self.sim.schedule_at(end, lambda: self._finish(rank, banks))

    def _finish(self, rank: int, banks: frozenset[int] | None) -> None:
        bank_ids = (range(self.org.banks_per_rank) if banks is None
                    else banks)
        for bank in bank_ids:
            self._reset_top_counters(rank, bank, self.params.n_rfms)
        self._cooldown_end[rank] = self.sim.now + self.timing.tABO_COOLDOWN
        self._abo_pending[rank] = False

    def _reset_top_counters(self, rank: int, bank: int, k: int) -> None:
        """Refresh the victims of the ``k`` highest-count rows: reset."""
        counters = self.counters[rank][bank]
        if not counters:
            return
        top = sorted(counters, key=counters.__getitem__, reverse=True)[:k]
        reset = self._initial_count
        for row in top:
            counters[row] = reset()

    # ------------------------------------------------------------------
    # Periodic-refresh hygiene: REF-covered rows get their counters
    # cleared as their victims are refreshed anyway.
    # ------------------------------------------------------------------
    def on_refresh(self, rank: int, t: int) -> None:
        cursor = self._ref_cursor[rank]
        lo = cursor
        hi = cursor + _ROWS_PER_REF
        for counters in self.counters[rank]:
            for row in [r for r in counters if lo <= r < hi]:
                del counters[row]
        self._ref_cursor[rank] = hi % self.org.rows_per_bank

    def describe(self) -> dict:
        return {
            "kind": self.kind.value,
            "nbo": self.params.nbo,
            "n_rfms": self.params.n_rfms,
            "backoff_latency_ps": self._backoff_duration(),
        }
