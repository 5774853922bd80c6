"""Periodic-refresh scheduling.

Implements the two policies the paper discusses: a REF every tREFI, and
the postpone-by-one policy (footnote 3) where the controller defers one
refresh interval and issues two back-to-back REFs every 2 x tREFI --
the behaviour that makes periodic refreshes the "next-highest latency
event" after PRAC back-offs in Fig. 2.
"""

from __future__ import annotations

from repro.controller.controller import MemoryController
from repro.sim.config import RefreshPolicy, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import BlockKind


class RefreshScheduler:
    """Drives periodic REF commands for every rank of the channel."""

    def __init__(self, sim: Simulator, controller: MemoryController,
                 config: SystemConfig) -> None:
        self.sim = sim
        self.controller = controller
        self.config = config
        self.policy = config.refresh_policy
        self._started = False
        #: Each rank's REF period, read by its pending grid-point event.
        self._periods = [0] * config.org.ranks

    def start(self) -> None:
        """Arm the per-rank refresh timers (idempotent)."""
        if self._started or self.policy is RefreshPolicy.NONE:
            self._started = True
            return
        self._started = True
        trefi = self.config.timing.tREFI
        period = trefi if self.policy is RefreshPolicy.EVERY_TREFI else 2 * trefi
        for rank in range(self.config.org.ranks):
            self._periods[rank] = period
            self.sim.schedule_call_at(period, self._grid_point, rank)

    def _grid_point(self, rank: int) -> None:
        self._tick(rank, self._periods[rank])

    def _tick(self, rank: int, period: int) -> None:
        """Handle the refresh due at this grid point and re-arm.

        REF needs every bank of the rank precharged, so if any bank is
        mid-preventive-action the REF is *delayed* until the rank
        drains (``RankState.drain``) -- other banks keep serving until
        then (a controller blocks the rank only for the REF itself)."""
        now = self.sim.now
        drain = self.controller.ranks[rank].drain
        if drain > now:
            self.sim.schedule_call_at(drain, self._issue, rank)
        else:
            self._issue(rank)
        self._periods[rank] = period
        self.sim.schedule_call_at(now + period, self._grid_point, rank)

    def _issue(self, rank: int) -> None:
        trfc = self.config.timing.tRFC
        duration = (trfc if self.policy is RefreshPolicy.EVERY_TREFI
                    else 2 * trfc)
        self.controller.block_banks(
            rank, None, self.sim.now, duration, BlockKind.REF,
            align_to_busy=False)
        self.controller.defense.on_refresh(rank, self.sim.now)

    def refreshes_required(self, horizon_ps: int) -> int:
        """How many REF commands the policy issues within ``horizon_ps``
        per rank (used by invariants tests)."""
        trefi = self.config.timing.tREFI
        if self.policy is RefreshPolicy.NONE:
            return 0
        if self.policy is RefreshPolicy.EVERY_TREFI:
            return horizon_ps // trefi
        return 2 * (horizon_ps // (2 * trefi))
