"""Whole-rank blocks in O(1) against the per-bank model they replaced.

A whole-rank block (REF, an all-bank RFM, a PRAC back-off) raises only
the rank's horizons and bumps its close epoch; each bank folds the
rank's blocks in when it is next read, and REF reads the rank's drain
horizon instead of visiting every bank.  The reference below keeps the
per-bank model: ``block_banks`` visiting and closing every affected
bank, and a REF drain loop over every bank of the rank.

Hypothesis interleaves submits, subset blocks (a PRFM same-bank set, a
PARA single bank), whole-rank blocks with and without alignment, REF
ticks and time advances on three systems: the reference, a lazy system
read through ``controller.bank()`` after every step, and a lazy system
read only at the end -- so its banks go stale between steps and the
controller's own lazy reads (wake elision, both selection paths of the
scheduler, subset blocks) are what sync them.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.controller import MemoryController
from repro.controller.refresh import RefreshScheduler
from repro.sim.config import DramOrg, RefreshPolicy, SystemConfig
from repro.sim.stats import BlockInterval, BlockKind
from repro.system import MemorySystem

RANKS = 2
ORG = DramOrg(ranks=RANKS)
BANKS = ORG.banks_per_rank
#: Re-arm period of a REF tick step: far beyond any example's horizon,
#: so each tick step issues exactly one REF.
NEVER_AGAIN = 1 << 50


class PerBankController(MemoryController):
    """Reference: every block visits each affected bank."""

    def block_banks(self, rank, bank_ids, start, duration, kind,
                    align_to_busy=True):
        bank_list = self.banks[rank]
        affected = (bank_list if bank_ids is None
                    else [bank_list[b] for b in bank_ids])
        if align_to_busy:
            for b in affected:
                if b.busy_until > start:
                    start = b.busy_until
        end = start + duration
        for b in affected:
            if end > b.busy_until:
                b.busy_until = end
            b.close()
        self.stats.record_block(
            BlockInterval(kind=kind, start=start, end=end, rank=rank,
                          banks=bank_ids))
        self._schedule_wake(end)
        return end


class PerBankRefresh(RefreshScheduler):
    """Reference: the REF drain time is a loop over every bank."""

    def _tick(self, rank, period):
        drain = self.sim.now
        for bank in self.controller.banks[rank]:
            if bank.busy_until > drain:
                drain = bank.busy_until
        if drain > self.sim.now:
            self.sim.schedule_at(drain, lambda: self._issue(rank))
        else:
            self._issue(rank)
        self.sim.schedule(period, lambda: self._tick(rank, period))


def build(per_bank: bool, elide: bool) -> tuple[MemorySystem, list]:
    """A system and the list its requests complete into."""
    system = MemorySystem(SystemConfig(org=ORG,
                                       refresh_policy=RefreshPolicy.NONE))
    if per_bank:
        system.controller.__class__ = PerBankController
        system.refresh.__class__ = PerBankRefresh
    system.controller.ff_elide = elide
    return system, []


def apply(system: MemorySystem, done: list, step: tuple):
    """Run one step; returns a block's end, else None."""
    kind, rank, *args = step
    controller = system.controller
    now = system.sim.now
    timing = system.config.timing
    if kind == "submit":
        bankgroup, bank, row, tail = args
        addr = system.mapper.encode(rank=rank, bankgroup=bankgroup,
                                    bank=bank, row=row)
        submit = controller.submit_tail if tail else controller.submit
        submit(addr, lambda req: done.append(
            (req.seq, req.kind, req.start_service, req.complete)))
        return None
    if kind == "prfm":
        same_bank = frozenset(g * ORG.banks_per_group + args[0]
                              for g in range(ORG.bankgroups))
        return controller.block_banks(rank, same_bank, now,
                                      timing.tRFM_SB, BlockKind.RFM)
    if kind == "para":
        return controller.block_banks(
            rank, frozenset((args[0],)), now,
            system.config.defense.para_refresh_latency, BlockKind.PARA)
    if kind == "rank":
        align, duration = args
        return controller.block_banks(rank, None, now, duration,
                                      BlockKind.BACKOFF,
                                      align_to_busy=align)
    if kind == "ref":
        system.refresh._tick(rank, NEVER_AGAIN)
        return None
    system.sim.run(until=now + args[0])  # "run"
    return None


def bank_states(system: MemorySystem) -> list:
    controller = system.controller
    return [(b.open_row, b.busy_until, b.hit_streak, b.act_time)
            for rank in range(RANKS)
            for b in (controller.bank(rank, flat) for flat in range(BANKS))]


_rank = st.integers(0, RANKS - 1)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), _rank, st.integers(0, ORG.bankgroups - 1),
              st.integers(0, ORG.banks_per_group - 1), st.integers(0, 3),
              st.booleans()),
    st.tuples(st.just("prfm"), _rank,
              st.integers(0, ORG.banks_per_group - 1)),
    st.tuples(st.just("para"), _rank, st.integers(0, BANKS - 1)),
    st.tuples(st.just("rank"), _rank, st.booleans(),
              st.sampled_from((0, 45_000, 350_000, 1_400_000))),
    st.tuples(st.just("ref"), _rank),
    st.tuples(st.just("run"), st.just(0), st.integers(0, 400_000)),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, elide=st.booleans())
def test_matches_per_bank_model(steps, elide):
    reference, ref_done = build(per_bank=True, elide=elide)
    seen, seen_done = build(per_bank=False, elide=elide)
    unseen, unseen_done = build(per_bank=False, elide=elide)
    for step in steps:
        end = apply(reference, ref_done, step)
        assert apply(seen, seen_done, step) == end
        assert apply(unseen, unseen_done, step) == end
        assert bank_states(seen) == bank_states(reference)
        for system, done in ((seen, seen_done), (unseen, unseen_done)):
            assert system.sim.now == reference.sim.now
            assert system.stats.blocks == reference.stats.blocks
            assert done == ref_done
    unseen.sim.run(until=unseen.sim.now + 2_000_000)
    reference.sim.run(until=reference.sim.now + 2_000_000)
    assert unseen_done == ref_done
    assert unseen.stats.blocks == reference.stats.blocks
    assert bank_states(unseen) == bank_states(reference)


def test_whole_rank_block_touches_no_bank():
    """The O(1) claim itself: a whole-rank block, aligned or not, and a
    REF tick write the rank's state and leave every bank object as it
    was; the banks catch up when read."""
    system, done = build(per_bank=False, elide=False)
    controller = system.controller
    addr = system.mapper.encode(bankgroup=3, bank=1, row=7)
    controller.submit(addr, done.append)
    system.sim.run(until=0)
    assert done == [] and controller.bank(0, 13).open_row == 7
    raw = [(b.open_row, b.busy_until, b.hit_streak, b.epoch)
           for b in controller.banks[0]]
    busy = controller.banks[0][13].busy_until
    end = controller.block_banks(0, None, 0, 1_000, BlockKind.RFM)
    assert end == busy + 1_000  # aligned to the drain horizon
    controller.block_banks(0, None, 0, 1_000, BlockKind.RFM,
                           align_to_busy=False)
    system.refresh._tick(0, NEVER_AGAIN)
    assert [(b.open_row, b.busy_until, b.hit_streak, b.epoch)
            for b in controller.banks[0]] == raw
    rank = controller.ranks[0]
    assert rank.epoch == 2 and rank.busy_until == end
    assert rank.drain == end
    bank = controller.bank(0, 13)
    assert bank.open_row is None and bank.busy_until == end
    assert bank.epoch == rank.epoch
