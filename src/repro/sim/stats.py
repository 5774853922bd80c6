"""Ground-truth statistics collected by the memory system.

Tests and experiments use this log to validate that attacker-*observed*
events (back-offs, RFMs, refreshes inferred from latency) line up with
what the memory system actually did.

``blocks`` is a plain append-only list in record order.  Every REF, RFM
and back-off appends one interval, while the window queries
(:meth:`MemoryStats.blocks_in`, :meth:`MemoryStats.blocks_of`) run about
once per covert transmission, so they filter the list instead of
keeping an index up to date on every block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class BlockKind(enum.Enum):
    """Why a set of banks was blocked."""

    REF = "ref"  #: periodic refresh
    RFM = "rfm"  #: refresh-management command (PRFM / FR-RFM)
    BACKOFF = "backoff"  #: PRAC ABO recovery period
    PARA = "para"  #: PARA probabilistic neighbor refresh


class BlockInterval(NamedTuple):
    """One blocking interval on a set of banks of one rank.

    A ``NamedTuple`` rather than a frozen dataclass: one of these is
    recorded per REF/RFM/back-off, and tuple construction skips the
    frozen dataclass's ``object.__setattr__`` chain.
    """

    kind: BlockKind
    start: int  #: ps
    end: int  #: ps
    rank: int
    #: Bank ids within the rank that were blocked; ``None`` = whole rank.
    banks: "frozenset[int] | None" = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def blocks_bank(self, bank_id: int) -> bool:
        """Whether the given flat bank id (within the rank) was blocked."""
        return self.banks is None or bank_id in self.banks


@dataclass(slots=True)
class MemoryStats:
    """Aggregate counters plus the blocking-event log."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0  #: bank was closed
    row_conflicts: int = 0  #: a different row was open
    refreshes: int = 0
    rfm_commands: int = 0
    backoffs: int = 0
    para_refreshes: int = 0
    requests_served: int = 0
    blocks: list[BlockInterval] = field(default_factory=list)

    def record_block(self, interval: BlockInterval) -> None:
        self.blocks.append(interval)
        kind = interval.kind
        if kind is BlockKind.REF:
            self.refreshes += 1
        elif kind is BlockKind.RFM:
            self.rfm_commands += 1
        elif kind is BlockKind.BACKOFF:
            self.backoffs += 1
        elif kind is BlockKind.PARA:
            self.para_refreshes += 1

    def blocks_of(self, kind: BlockKind) -> list[BlockInterval]:
        """All blocking intervals of one kind, in record order."""
        return [b for b in self.blocks if b.kind is kind]

    def blocks_in(self, start: int, end: int,
                  kind: BlockKind | None = None) -> list[BlockInterval]:
        """Blocking intervals overlapping the half-open window [start,
        end), of one kind if ``kind`` is given, in record order."""
        return [b for b in self.blocks
                if b.start < end and b.end > start
                and (kind is None or b.kind is kind)]

    @property
    def act_rate_summary(self) -> dict[str, int]:
        """Compact dict summary used by reports."""
        return {
            "activations": self.activations,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "refreshes": self.refreshes,
            "rfm_commands": self.rfm_commands,
            "backoffs": self.backoffs,
            "requests": self.requests_served,
        }
