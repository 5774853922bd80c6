"""Golden-output pinning: the optimized hot path must be bit-identical
to the seed implementation.

The expected values live in ``tests/golden/golden_identity.json``,
captured from the *seed* (pre-optimization) simulator on fixed-seed
covert-channel trials.  Any change to the event engine, controller
scheduling, wake elision, bus arbitration, address mapping or
statistics bookkeeping that alters simulation physics -- even a
reordered tie-break -- fails here with a readable per-field diff and
the exact regeneration command.

If a test fails after an intentional *physics* change (e.g. a modeling
fix), regenerate the goldens with::

    PYTHONPATH=src python -m pytest tests/test_golden_identity.py --regen-golden

review the resulting diff of the JSON file, and say so loudly in the
commit; a perf-only PR must never need to.
"""

import pytest

from repro.core.prac_channel import PracChannelConfig, PracCovertChannel
from repro.core.rfm_channel import RfmChannelConfig, RfmCovertChannel
from repro.cpu.agent import run_agents
from repro.sim.engine import US

#: Fixed message used by every golden trial.
MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0]

RFM_MESSAGE = [0, 1, 1, 0, 1, 0, 0, 1]


def run_prac_system(noise):
    cfg = PracChannelConfig(noise_intensity=noise)
    channel = PracCovertChannel(cfg)
    system, _, _, receiver, agents, end = channel._build(
        MESSAGE, cfg.noise_intensity, cfg.spec_class)
    run_agents(system, agents, hard_limit=end + 200 * US)
    return system, receiver


def prac_trial_capture(noise) -> dict:
    """The golden-relevant observables of one fixed-seed PRAC trial,
    in the exact shape of ``golden_identity.json``."""
    system, receiver = run_prac_system(noise)
    stats = system.stats
    first, last = stats.blocks[0], stats.blocks[-1]
    return {
        "counters": dict(stats.act_rate_summary),
        "precharges": stats.precharges,
        "n_blocks": len(stats.blocks),
        "first_block": [first.kind.value, first.start, first.end,
                        first.rank],
        "last_block": [last.kind.value, last.start, last.end, last.rank],
        "final_now": system.sim.now,
        "n_samples": len(receiver.samples),
        "delta_checksum": sum(s.delta for s in receiver.samples) % (1 << 31),
        "end_checksum": sum(s.end_time for s in receiver.samples) % (1 << 31),
    }


def transmission_capture(result) -> dict:
    return {
        "sent": list(result.sent),
        "decoded": list(result.decoded),
        "ground_truth_backoffs": result.ground_truth_backoffs,
        "ground_truth_rfms": result.ground_truth_rfms,
        "window_samples": [w.samples for w in result.windows],
    }


@pytest.mark.parametrize("noise", [None, 50.0])
def test_prac_trial_bit_identical_to_seed(noise, golden_store):
    key = "none" if noise is None else str(noise)
    golden_store.check(("prac_trial", key), prac_trial_capture(noise))


def test_prac_transmission_bit_identical_to_seed(golden_store):
    channel = PracCovertChannel(PracChannelConfig(noise_intensity=30.0))
    result = channel.transmit(list(MESSAGE))
    golden_store.check(("transmissions", "prac"),
                       transmission_capture(result))


def test_rfm_transmission_bit_identical_to_seed(golden_store):
    channel = RfmCovertChannel(RfmChannelConfig(noise_intensity=30.0))
    result = channel.transmit(list(RFM_MESSAGE))
    golden_store.check(("transmissions", "rfm"),
                       transmission_capture(result))


def test_golden_file_is_complete(golden_store):
    """Guard: the goldens file itself must cover every pinned trial --
    a missing key means someone regenerated with a subset of the tests
    selected, which would silently unpin physics."""
    golden_store.require_keys([
        ("prac_trial", "none"),
        ("prac_trial", "50.0"),
        ("transmissions", "prac"),
        ("transmissions", "rfm"),
    ])
