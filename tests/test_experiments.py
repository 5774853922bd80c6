"""Smoke tests for the experiment drivers (small scales).

The full-scale versions run in benchmarks/; these verify each driver
produces well-formed results with the expected qualitative shape.
"""

import pytest

from repro.exp.drivers.ablations import (
    ablation_refresh_postponing,
    ablation_trecv,
    ablation_window_size,
)
from repro.exp.drivers.leak import sec91_counter_leak
from repro.exp.drivers.perf import (
    fig13_performance,
    sec12_para_resistance,
    sec114_capacity_reduction,
)
from repro.exp.drivers.prac import (
    fig2_latency_observability,
    fig3_prac_message,
    fig4_prac_noise_sweep,
    fig5_prac_app_noise,
    fig12_preventive_latency,
    sec63_multibit,
)
from repro.exp.drivers.rfm import fig6_rfm_message, fig7_rfm_noise_sweep
from repro.sim.engine import US


class TestFig2:
    def test_levels_and_backoff_position(self):
        out = fig2_latency_observability(n_samples=300, nbo=64)
        events = out["table"].column("event")
        assert "conflict" in events and "backoff" in events
        # First back-off after ~2 * N_BO requests.
        assert abs(out["first_backoff_index"] - 2 * 64) < 24

    def test_backoff_is_highest_latency(self):
        out = fig2_latency_observability(n_samples=300, nbo=64)
        table = out["table"]
        means = dict(zip(table.column("event"),
                         table.column("mean latency (ns)")))
        assert means["backoff"] > means["refresh"] > means["conflict"]


class TestMessages:
    def test_fig3_decodes_micro(self):
        out = fig3_prac_message(text="MI", pattern_bits=8)
        assert out["result"].sent == out["result"].decoded
        assert 35_000 < out["rates"]["raw_bit_rate_bps"] < 45_000

    def test_fig6_decodes_micro(self):
        out = fig6_rfm_message(text="MI", pattern_bits=8)
        assert out["result"].sent == out["result"].decoded
        assert 45_000 < out["rates"]["raw_bit_rate_bps"] < 55_000


class TestSweeps:
    def test_fig4_capacity_degrades_with_noise(self):
        table = fig4_prac_noise_sweep(intensities=(1, 100), n_bits=8)
        caps = table.column("capacity (Kbps)")
        assert caps[0] > caps[-1]

    def test_fig7_capacity_degrades_with_noise(self):
        table = fig7_rfm_noise_sweep(intensities=(1, 100), n_bits=8)
        caps = table.column("capacity (Kbps)")
        assert caps[0] > caps[-1]

    def test_fig5_channel_survives_interference(self):
        table = fig5_prac_app_noise(n_bits=8)
        caps = table.column("capacity (Kbps)")
        assert min(caps) > 15.0

    def test_fig12_dies_below_resolution(self):
        table = fig12_preventive_latency(latencies_ns=(0, 96), n_bits=8)
        caps = table.column("capacity (Kbps)")
        assert caps[0] < 1.0  # 0 ns: no channel
        assert caps[1] > 30.0  # 96 ns: alive


class TestMultibitAndLeak:
    def test_sec63_rates_scale_with_levels(self):
        table = sec63_multibit(n_symbols=8, noise_intensity=None)
        raw = table.column("raw bit rate (Kbps)")
        assert raw[0] < raw[1] < raw[2]

    def test_sec91_counter_leak_shape(self):
        out = sec91_counter_leak(secrets=[10, 70])
        metrics = dict(zip(out["table"].column("metric"),
                           out["table"].column("value")))
        assert metrics["bits per value"] == 7.0
        assert metrics["throughput (Kbps)"] > 100


class TestCountermeasures:
    def test_sec114_frrfm_eliminates_channel(self):
        table = sec114_capacity_reduction(n_bits=8, noise_intensity=30.0)
        rows = {(r[0], r[1]): r for r in table.rows}
        frrfm = rows[("FR-RFM", "none")]
        assert frrfm[4] >= 99.0  # reduction vs insecure baseline (%)

    def test_fig13_small_scale_shape(self):
        out = fig13_performance(nrh_values=(1024, 64), n_mixes=1,
                                  n_requests=2500)
        table = out["table"]
        frrfm = table.column("FR-RFM")
        assert frrfm[0] > 0.9  # near-baseline at N_RH = 1024
        assert frrfm[1] < 0.6  # collapse at N_RH = 64
        riac = table.column("PRAC-RIAC")
        assert riac[1] > frrfm[1]


class TestExtensions:
    def test_para_resistance_reduces_reliability(self):
        table = sec12_para_resistance(n_bits=8)
        metrics = dict(zip(table.column("metric"), table.column("value")))
        assert metrics["decode error probability"] >= 0.0
        assert metrics["capacity (Kbps)"] <= 40.0

    def test_ablation_refresh_postponing_levels(self):
        table = ablation_refresh_postponing()
        assert len(table.rows) == 2
        for row in table.rows:
            assert row[2] > row[1]  # backoff above refresh either way

    def test_ablation_trecv_shape(self):
        table = ablation_trecv(trecv_values=(1, 3), n_bits=8)
        caps = dict(zip(table.column("T_recv"),
                        table.column("capacity (Kbps)")))
        assert caps[3] >= caps[1]

    def test_ablation_window_rates(self):
        table = ablation_window_size(windows_us=(20, 40), n_bits=8)
        raw = table.column("raw rate (Kbps)")
        assert raw[0] == 2 * raw[1]
