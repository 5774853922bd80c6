"""Tests for PRAC: counters, the ABO protocol, and the security bound."""

import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import (
    DefenseKind,
    DefenseParams,
    DramOrg,
    RefreshPolicy,
    SystemConfig,
)
from repro.sim.stats import BlockKind
from repro.system import MemorySystem

from tests.conftest import make_system, single_read


def prac_system(nbo=8, n_rfms=4, refresh=RefreshPolicy.NONE,
                **kwargs) -> MemorySystem:
    return make_system(DefenseKind.PRAC, refresh=refresh, nbo=nbo,
                       n_rfms=n_rfms, **kwargs)


def hammer(system, addrs, n):
    """n interleaved single reads over the address list."""
    for i in range(n):
        single_read(system, addrs[i % len(addrs)])


class TestCounters:
    def test_counter_increments_on_row_close(self):
        system = prac_system(nbo=100)
        a, b = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        defense = system.defense
        single_read(system, a)  # opens row 64 -- not yet counted
        assert defense.counter_value(0, 0, 64) is None
        single_read(system, b)  # closes row 64 -> counted
        assert defense.counter_value(0, 0, 64) == 1

    def test_alternating_rows_count_together(self):
        system = prac_system(nbo=1000)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 21)
        assert system.defense.counter_value(0, 0, 64) == 10
        assert system.defense.counter_value(0, 0, 72) == 10

    def test_row_hits_do_not_count(self):
        system = prac_system(nbo=4)
        addr = system.mapper.encode(row=64)
        for _ in range(20):
            single_read(system, addr)
        assert system.stats.backoffs == 0


class TestAboProtocol:
    def test_backoff_fires_at_threshold(self):
        system = prac_system(nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 2 * 8 + 2)
        system.sim.run(until=system.sim.now + 3_000_000)
        assert system.stats.backoffs == 1

    def test_no_backoff_below_threshold(self):
        system = prac_system(nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 10)
        system.sim.run(until=system.sim.now + 3_000_000)
        assert system.stats.backoffs == 0

    def test_backoff_duration_is_n_rfms_times_trfm(self):
        for n_rfms in (1, 2, 4):
            system = prac_system(nbo=8, n_rfms=n_rfms)
            addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
            hammer(system, addrs, 20)
            system.sim.run(until=system.sim.now + 5_000_000)
            backoff = system.stats.blocks_of(BlockKind.BACKOFF)[0]
            assert backoff.duration == n_rfms * system.config.timing.tRFM_AB

    def test_backoff_latency_override(self):
        system = prac_system(nbo=8, backoff_latency_override=77_000)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 20)
        system.sim.run(until=system.sim.now + 5_000_000)
        assert system.stats.blocks_of(BlockKind.BACKOFF)[0].duration == 77_000

    def test_recovery_starts_after_tabo_act_window(self):
        system = prac_system(nbo=8)
        t = system.config.timing
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 17)
        system.sim.run(until=system.sim.now + 5_000_000)
        (rank, assert_time), = system.defense.abo_log[:1]
        backoff = system.stats.blocks_of(BlockKind.BACKOFF)[0]
        assert backoff.start >= assert_time + t.tABO_ACT

    def test_backoff_blocks_whole_rank(self):
        system = prac_system(nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 20)
        system.sim.run(until=system.sim.now + 5_000_000)
        assert system.stats.blocks_of(BlockKind.BACKOFF)[0].banks is None

    def test_recovery_resets_top_counters(self):
        system = prac_system(nbo=8, n_rfms=4)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 20)
        system.sim.run(until=system.sim.now + 5_000_000)
        assert system.defense.counter_value(0, 0, 64) <= 2
        assert system.defense.counter_value(0, 0, 72) <= 2

    def test_repeated_backoffs_with_continued_hammering(self):
        system = prac_system(nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 80)
        system.sim.run(until=system.sim.now + 10_000_000)
        assert system.stats.backoffs >= 3

    def test_cooldown_spaces_backoffs(self):
        system = prac_system(nbo=8)
        t = system.config.timing
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 80)
        system.sim.run(until=system.sim.now + 10_000_000)
        backoffs = system.stats.blocks_of(BlockKind.BACKOFF)
        for first, second in zip(backoffs, backoffs[1:]):
            assert second.start - first.end >= t.tABO_COOLDOWN


class TestRefreshHygiene:
    def test_refresh_hook_clears_swept_counters(self):
        system = prac_system(nbo=10 ** 6)
        defense = system.defense
        cursor = defense._ref_cursor[0]
        addrs = [system.mapper.encode(row=cursor),
                 system.mapper.encode(row=cursor + 1)]
        hammer(system, addrs, 10)
        assert defense.counter_value(0, 0, cursor) > 0
        defense.on_refresh(0, system.sim.now)
        assert defense.counter_value(0, 0, cursor) is None

    def test_refresh_hook_leaves_unswept_rows_alone(self):
        system = prac_system(nbo=10 ** 6)
        defense = system.defense
        addrs = system.mapper.same_bank_rows(2, stride=8, first_row=64)
        hammer(system, addrs, 10)
        before = defense.counter_value(0, 0, 64)
        defense.on_refresh(0, system.sim.now)  # sweeps mid-bank rows
        assert defense.counter_value(0, 0, 64) == before

    def test_refresh_cursor_advances(self):
        system = prac_system(nbo=10 ** 6)
        defense = system.defense
        start = defense._ref_cursor[0]
        defense.on_refresh(0, 0)
        defense.on_refresh(0, 1)
        assert defense._ref_cursor[0] == (start + 32) % \
            system.config.org.rows_per_bank


def full_scan_on_refresh(self, rank, t):
    """Reference sweep: scan every bank's counters for the window."""
    cursor = self._ref_cursor[rank]
    lo = cursor
    hi = cursor + 16
    for counters in self.counters[rank]:
        for row in [r for r in counters if lo <= r < hi]:
            del counters[row]
    self._ref_cursor[rank] = hi % self.org.rows_per_bank


def sweep_pair(kind, rows_per_bank):
    """The defense under test and a twin that sweeps by full scan."""
    def build():
        return MemorySystem(SystemConfig(
            org=DramOrg(rows_per_bank=rows_per_bank),
            defense=DefenseParams(kind=kind, nbo=1000, seed=11),
            refresh_policy=RefreshPolicy.NONE)).defense

    defense, reference = build(), build()
    reference.on_refresh = types.MethodType(full_scan_on_refresh,
                                            reference)
    return defense, reference


def counter_items(defense):
    """Every counter dict in insertion order (back-off resets break
    count ties by it)."""
    return [list(c.items()) for rank in defense.counters for c in rank]


SWEPT_KINDS = (DefenseKind.PRAC, DefenseKind.PRAC_RIAC,
               DefenseKind.PRAC_BANK)


class TestRefreshSweeps:
    """Sweeps skip refresh groups no counter lives in; what they leave
    must equal a full scan of every bank's counters."""

    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    @pytest.mark.parametrize("rows_per_bank", [16, 64, 1 << 17])
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("pre", "pre", "value", "ref")),
        st.integers(0, 3), st.integers(-24, 72)), max_size=60))
    def test_matches_full_scan(self, kind, rows_per_bank, ops):
        defense, reference = sweep_pair(kind, rows_per_bank)
        first = rows_per_bank // 2
        for op, bank, offset in ops:
            row = (first + offset) % rows_per_bank
            for d in (defense, reference):
                if op == "pre":
                    d.on_precharge(0, bank, row, 0)
                elif op == "value":
                    before = counter_items(d)
                    d.counter_value(0, bank, row)
                    assert counter_items(d) == before
                else:
                    d.on_refresh(0, 0)
            assert counter_items(defense) == counter_items(reference)
            assert defense._ref_cursor == reference._ref_cursor

    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    def test_cursor_wraps_around_the_bank(self, kind):
        """Enough sweeps to wrap the default 128K-row cursor, with
        counters in two banks in the first and last groups."""
        defense, reference = sweep_pair(kind, 1 << 17)
        n_sweeps = (1 << 17) // 16 + 3
        for d in (defense, reference):
            for row in (0, 15, 16, (1 << 17) - 1, 1 << 16):
                d.on_precharge(0, 1, row, 0)
                d.on_precharge(0, 2, row + 1, 0)
        for i in range(n_sweeps):
            defense.on_refresh(0, i)
            reference.on_refresh(0, i)
            if i % 1000 == 0 or i > n_sweeps - 8:
                assert counter_items(defense) == counter_items(reference)
        assert counter_items(defense) == counter_items(reference)
        assert defense._ref_cursor == reference._ref_cursor

    def test_small_bank_never_sweeps_its_lower_half(self):
        """At 16 rows per bank the cursor never moves: rows below 8
        keep their counters across sweeps, and rows 8-15 lose theirs to
        every sweep after they are created."""
        defense, _ = sweep_pair(DefenseKind.PRAC, 16)
        for row in range(16):
            defense.on_precharge(0, 0, row, 0)
        defense.on_refresh(0, 0)
        defense.on_refresh(0, 1)
        defense.on_precharge(0, 1, 12, 0)
        defense.on_refresh(0, 2)
        assert sorted(defense.counters[0][0]) == list(range(8))
        assert defense.counters[0][1] == {}
        assert defense._ref_cursor == [8]

    def test_reset_breaks_count_ties_by_insertion_order(self):
        system = prac_system(nbo=10 ** 6, n_rfms=2)
        defense = system.defense
        for row, count in ((50, 2), (30, 3), (90, 2), (10, 2)):
            for _ in range(count):
                defense.on_precharge(0, 0, row, 0)
        defense._reset_top_counters(0, 0, 2)
        assert defense.counters[0][0] == {50: 0, 30: 0, 90: 2, 10: 2}
        defense._reset_top_counters(0, 0, 1)
        assert defense.counters[0][0] == {50: 0, 30: 0, 90: 0, 10: 2}


class TestSecurityInvariant:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_no_row_exceeds_bound_under_random_patterns(self, seed):
        """PRAC's purpose: under arbitrary (random) access patterns, no
        counter value observed at any PRE exceeds N_BO plus the
        overshoot possible while an ABO is pending/cooling down."""
        nbo = 6
        system = prac_system(nbo=nbo)
        rng = random.Random(seed)
        rows = [system.mapper.encode(row=r, bankgroup=rng.randrange(2))
                for r in range(0, 24, 8)]
        max_seen = 0
        defense = system.defense
        original = defense.on_precharge

        def spy(rank, bank, row, t):
            nonlocal max_seen
            original(rank, bank, row, t)
            counters = defense.counters[rank][bank]
            max_seen = max(max_seen, max(counters.values(), default=0))

        defense.on_precharge = spy
        system.controller.defense = defense
        for _ in range(150):
            single_read(system, rng.choice(rows))
        system.sim.run(until=system.sim.now + 10_000_000)
        # Overshoot bound: ACTs that fit in ABO delay + tABOACT +
        # recovery + cool-down at one ACT per tRC, plus the rows beyond
        # the top-n_rfms mitigation budget cannot accumulate unboundedly
        # because the hammering set is small.
        t = system.config.timing
        window = (t.tABO_DELAY + t.tABO_ACT + 4 * t.tRFM_AB
                  + t.tABO_COOLDOWN)
        overshoot = window // t.tRC + 1
        assert max_seen <= nbo + overshoot

    def test_describe_reports_parameters(self):
        system = prac_system(nbo=32)
        info = system.defense.describe()
        assert info["kind"] == "prac"
        assert info["nbo"] == 32
