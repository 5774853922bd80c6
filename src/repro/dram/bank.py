"""Per-bank and per-rank state tracked by the memory controller.

A whole-rank block (periodic REF, an all-bank RFM, a PRAC back-off)
closes every bank of the rank and holds them all busy until it ends.
Applying that to each bank eagerly costs one write per bank per block,
so the rank keeps it instead (:class:`RankState`), and a bank folds the
rank's blocks into its own fields only when someone next reads it
(:meth:`BankState.sync`).  A bank whose ``epoch`` equals its rank's has
seen every whole-rank block; one whose epoch lags is *stale*, and its
``open_row``, ``hit_streak`` and ``busy_until`` must not be read before
a sync.
"""

from __future__ import annotations


class RankState:
    """Whole-rank horizons shared by the banks of one rank.

    ``busy_until`` is the latest end of any whole-rank block, and
    ``epoch`` counts those blocks (each closes every bank).  ``drain``
    is the highest ``busy_until`` any bank of the rank has reached,
    whole-rank blocks included: banks' horizons only ever rise, so it
    is exactly the time at which every bank of the rank is idle.
    """

    __slots__ = ("busy_until", "epoch", "drain")

    def __init__(self) -> None:
        self.busy_until = 0
        self.epoch = 0
        self.drain = 0


class BankState:
    """Mutable state of one DRAM bank.

    ``busy_until`` is the earliest time any new command sequence may
    start on this bank (it absorbs blocking intervals from refreshes,
    RFMs and back-off recovery).  ``act_time`` is the timestamp of the
    most recent ACT, needed to honor tRAS before the next PRE.
    ``open_row``, ``hit_streak`` and ``busy_until`` are current only
    while ``epoch`` equals ``rank_state.epoch`` (see the module
    docstring); every writer of ``busy_until`` also raises
    ``rank_state.drain``.
    """

    __slots__ = ("rank", "flat_id", "rank_state", "epoch", "open_row",
                 "busy_until", "act_time", "hit_streak")

    #: Sentinel "long ago" ACT time so a fresh bank owes no tRC/tRAS.
    NEVER = -(1 << 60)

    def __init__(self, rank: int, flat_id: int,
                 rank_state: RankState) -> None:
        self.rank = rank
        self.flat_id = flat_id
        self.rank_state = rank_state
        self.epoch = rank_state.epoch
        self.open_row: int | None = None
        self.busy_until: int = 0
        self.act_time: int = self.NEVER
        #: Consecutive row-hit requests served (FR-FCFS column cap).
        self.hit_streak: int = 0

    def sync(self) -> None:
        """Apply the whole-rank blocks this bank has not yet seen: each
        closed the bank, and the latest of them ended at the rank's
        ``busy_until``.  Callers check ``epoch`` first (inline, on the
        hot paths)."""
        rank = self.rank_state
        self.epoch = rank.epoch
        self.open_row = None
        self.hit_streak = 0
        if self.busy_until < rank.busy_until:
            self.busy_until = rank.busy_until

    def close(self) -> None:
        """Precharge bookkeeping: forget the open row."""
        self.open_row = None
        self.hit_streak = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BankState(rank={self.rank}, bank={self.flat_id}, "
                f"open_row={self.open_row}, busy_until={self.busy_until}, "
                f"epoch={self.epoch})")
