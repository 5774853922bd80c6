"""Tests for PRAC-RIAC, Bank-Level PRAC, and PARA."""

import random

from repro.sim.config import DefenseKind
from repro.sim.stats import BlockKind
from repro.system import MemorySystem

from tests.conftest import make_system, single_read


def hammer(system, addrs, n):
    for i in range(n):
        single_read(system, addrs[i % len(addrs)])


class TestRiac:
    def test_initial_counts_randomized_in_range(self):
        system = make_system(DefenseKind.PRAC_RIAC, nbo=64)
        defense = system.defense
        values = [defense._initial_count() for _ in range(100)]
        assert all(0 <= v < 64 for v in values)
        assert len(set(values)) > 5  # not all equal

    def test_different_seeds_give_different_inits(self):
        a = make_system(DefenseKind.PRAC_RIAC, nbo=64, seed=1)
        b = make_system(DefenseKind.PRAC_RIAC, nbo=64, seed=2)
        va = [a.defense._initial_count() for _ in range(40)]
        vb = [b.defense._initial_count() for _ in range(40)]
        assert va != vb

    def test_same_seed_reproducible(self):
        a = make_system(DefenseKind.PRAC_RIAC, nbo=64, seed=9)
        b = make_system(DefenseKind.PRAC_RIAC, nbo=64, seed=9)
        va = [a.defense._initial_count() for _ in range(40)]
        vb = [b.defense._initial_count() for _ in range(40)]
        assert va == vb

    def test_init_distribution_roughly_uniform(self):
        system = make_system(DefenseKind.PRAC_RIAC, nbo=64)
        values = [system.defense._initial_count() for _ in range(2000)]
        mean = sum(values) / len(values)
        assert 24 < mean < 40  # uniform mean would be 31.5

    def test_backoffs_fire_earlier_than_plain_prac(self):
        """Random inits make the threshold crossing come sooner on
        average -- RIAC's channel-noise mechanism."""
        def acts_to_first_backoff(kind, seed):
            system = make_system(kind, nbo=64, seed=seed)
            addrs = system.mapper.same_bank_rows(2, stride=8)
            count = 0
            while system.stats.backoffs == 0 and count < 400:
                single_read(system, addrs[count % 2])
                count += 1
            system.sim.run(until=system.sim.now + 3_000_000)
            return count

        prac = acts_to_first_backoff(DefenseKind.PRAC, 3)
        riac = [acts_to_first_backoff(DefenseKind.PRAC_RIAC, s)
                for s in range(6)]
        assert sum(riac) / len(riac) < prac

    def test_reset_rerandomizes(self):
        system = make_system(DefenseKind.PRAC_RIAC, nbo=16, seed=4)
        addrs = system.mapper.same_bank_rows(2, stride=8)
        hammer(system, addrs, 64)
        system.sim.run(until=system.sim.now + 10_000_000)
        assert system.stats.backoffs >= 1
        # After resets the counters are re-randomized, not zeroed; with
        # several resets at least one non-zero re-init is overwhelming.
        values = [system.defense.counters[0][0].get(r)
                  for r in (0, 8)]
        assert any(v not in (None, 0) for v in values) or \
            system.stats.backoffs > 2

    def test_reading_a_counter_moves_no_backoff(self):
        """``counter_value`` is a pure read: reading an untouched row
        creates no counter and draws no random initial count, so a
        hammered RIAC system backs off at the same times with or
        without a read at boot."""
        def backoff_starts(read_at_boot):
            system = make_system(DefenseKind.PRAC_RIAC, nbo=16, seed=3)
            defense = system.defense
            if read_at_boot:
                rng_state = defense.rng.getstate()
                assert defense.counter_value(0, 0, 999) is None
                assert defense.rng.getstate() == rng_state
                assert defense.counters[0][0] == {}
                assert not any(defense._touched)
            addrs = [system.mapper.encode(row=r) for r in (64, 72, 80)]
            hammer(system, addrs, 600)
            return [b.start
                    for b in system.stats.blocks_of(BlockKind.BACKOFF)]

        unread = backoff_starts(False)
        assert unread  # the comparison below is not vacuous
        assert backoff_starts(True) == unread

    def test_describe_mentions_random_init(self):
        info = make_system(DefenseKind.PRAC_RIAC, nbo=32).defense.describe()
        assert "uniform" in info["counter_init"]


class TestBankLevelPrac:
    def test_backoff_blocks_only_triggering_bank(self):
        system = make_system(DefenseKind.PRAC_BANK, nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8, bankgroup=2,
                                             bank=1)
        hammer(system, addrs, 20)
        system.sim.run(until=system.sim.now + 5_000_000)
        backoff = system.stats.blocks_of(BlockKind.BACKOFF)[0]
        flat = 2 * system.config.org.banks_per_group + 1
        assert backoff.banks == frozenset((flat,))

    def test_other_banks_unaffected_during_backoff(self):
        system = make_system(DefenseKind.PRAC_BANK, nbo=8)
        addrs = system.mapper.same_bank_rows(2, stride=8)
        hammer(system, addrs, 17)  # trigger pending ABO on bank 0
        req = single_read(system, system.mapper.encode(bankgroup=5, row=3))
        assert req.latency < 200_000

    def test_independent_banks_can_back_off_concurrently(self):
        system = make_system(DefenseKind.PRAC_BANK, nbo=8)
        a = system.mapper.same_bank_rows(2, stride=8, bankgroup=0)
        b = system.mapper.same_bank_rows(2, stride=8, bankgroup=3)
        for i in range(20):
            single_read(system, a[i % 2])
            single_read(system, b[i % 2])
        system.sim.run(until=system.sim.now + 10_000_000)
        backoffs = system.stats.blocks_of(BlockKind.BACKOFF)
        banks = {next(iter(x.banks)) for x in backoffs}
        assert len(banks) == 2

    def test_describe_scope(self):
        info = make_system(DefenseKind.PRAC_BANK, nbo=8).defense.describe()
        assert info["scope"] == "per-bank"


class TestPara:
    def test_no_refreshes_with_zero_probability(self):
        system = make_system(DefenseKind.PARA, para_probability=0.0)
        addrs = system.mapper.same_bank_rows(2, stride=8)
        hammer(system, addrs, 50)
        system.sim.run(until=system.sim.now + 5_000_000)
        assert system.stats.para_refreshes == 0

    def test_always_refreshes_with_probability_one(self):
        system = make_system(DefenseKind.PARA, para_probability=1.0)
        addrs = system.mapper.same_bank_rows(2, stride=8)
        hammer(system, addrs, 10)
        system.sim.run(until=system.sim.now + 5_000_000)
        assert system.stats.para_refreshes == 10

    def test_refresh_rate_tracks_probability(self):
        system = make_system(DefenseKind.PARA, para_probability=0.3,
                             seed=42)
        addrs = system.mapper.same_bank_rows(2, stride=8)
        hammer(system, addrs, 300)
        system.sim.run(until=system.sim.now + 20_000_000)
        rate = system.stats.para_refreshes / 300
        assert 0.15 < rate < 0.45

    def test_attacker_cannot_predict_timing(self):
        """PARA is stateless: identical hammering with different seeds
        produces different preventive-action timings (Section 12)."""
        def timing(seed):
            system = make_system(DefenseKind.PARA, para_probability=0.2,
                                 seed=seed)
            addrs = system.mapper.same_bank_rows(2, stride=8)
            hammer(system, addrs, 100)
            system.sim.run(until=system.sim.now + 10_000_000)
            return [b.start for b in
                    system.stats.blocks_of(BlockKind.PARA)]
        assert timing(1) != timing(2)

    def test_para_blocks_single_bank(self):
        system = make_system(DefenseKind.PARA, para_probability=1.0)
        addrs = system.mapper.same_bank_rows(2, stride=8, bankgroup=1)
        hammer(system, addrs, 4)
        system.sim.run(until=system.sim.now + 5_000_000)
        block = system.stats.blocks_of(BlockKind.PARA)[0]
        flat = 1 * system.config.org.banks_per_group
        assert block.banks == frozenset((flat,))
