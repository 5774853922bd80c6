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

Later families were captured the same way, before the change they
guard: ``fingerprint`` pins browser-trace replay captures (the
side-channel path, before the replay kept one pending wake),
``trees`` pins the exact structure of every fitted CART tree (before
each fit presorted its features once), and ``countermeasure`` pins a
four-core Fig. 13 mix under every countermeasure (before whole-rank
blocks became O(1) and PRAC sweeps skipped untouched row groups), so
no optimization may move a back-off, a split or a block.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.analysis.speedup import mix_scenario
from repro.cache.hierarchy import HierarchyConfig
from repro.core.fingerprint import FingerprintConfig, WebsiteFingerprinter
from repro.core.prac_channel import PracChannelConfig, PracCovertChannel
from repro.core.rfm_channel import RfmChannelConfig, RfmCovertChannel
from repro.cpu.agent import run_agents
from repro.exp.drivers.perf import FIG13_MECHANISMS
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    cross_validate,
    paper_model_zoo,
)
from repro.sim.config import DefenseKind, DefenseParams, SystemConfig
from repro.sim.engine import US
from repro.sim.stats import BlockKind
from repro.workloads.spec import apps_for_mix, make_workload_mixes
from repro.workloads.websites import WebsiteCatalog

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


#: Capture configurations of the browser-replay goldens.
FINGERPRINT_CONFIGS = {
    "plain": {},
    "spec-H": {"spec_noise": "H"},
    "large-hierarchy": {"hierarchy": HierarchyConfig.large()},
}

#: Sites and trace seeds of every fingerprint configuration.
FINGERPRINT_SITES = WebsiteCatalog(2, seed=1)
FINGERPRINT_SEEDS = (1, 2)


@pytest.mark.parametrize("config", sorted(FINGERPRINT_CONFIGS))
def test_fingerprint_captures_bit_identical_to_seed(config, golden_store):
    """Probe + browser trace replay (+ SPEC noise or a cache hierarchy
    in front of the browser): the probe's observed back-offs."""
    fingerprinter = WebsiteFingerprinter(FingerprintConfig(
        duration_ps=250 * US, **FINGERPRINT_CONFIGS[config]))
    for profile in FINGERPRINT_SITES:
        for trace_seed in FINGERPRINT_SEEDS:
            trace = fingerprinter.capture(profile, trace_seed)
            golden_store.check(
                ("fingerprint", config, f"{profile.name}-{trace_seed}"), {
                    "backoff_times": list(trace.backoff_times),
                    "n_samples": trace.n_samples,
                    "ground_truth_backoffs": trace.ground_truth_backoffs,
                })


def tree_datasets() -> dict:
    """Seeded (X, y, sample_weight) sets that reach the CART split
    search's tie paths: integer-valued columns, repeated rows with
    conflicting labels and zero weights."""
    rng = np.random.default_rng(1234)
    blobs_x = np.vstack([rng.normal(loc=1.5 * k, size=(10, 6))
                         for k in range(4)])
    blobs_y = np.repeat(np.arange(4), 10)

    ties_x = np.hstack([rng.integers(0, 3, size=(40, 5)).astype(float),
                        rng.normal(size=(40, 3))])
    ties_y = (ties_x[:, 0] + ties_x[:, 1] + (ties_x[:, 5] > 0)) % 3
    flip = rng.random(40) < 0.15
    ties_y[flip] = rng.integers(0, 3, size=int(flip.sum()))

    base_x = np.hstack([rng.integers(0, 4, size=(20, 3)).astype(float),
                        rng.normal(size=(20, 2))])
    base_y = (base_x[:, 0] > 1).astype(int) + (base_x[:, 3] > 0)
    idx = rng.integers(0, 20, size=36)
    repeats_y = base_y[idx].copy()
    repeats_y[::7] = (repeats_y[::7] + 1) % 3

    # The bench fingerprint shape: 16 rows of 8 sites, window counts
    # (small integers), -1.0 fills and continuous statistics.
    counts = rng.poisson(2.0, size=(16, 16)).astype(float)
    pairs = np.where(rng.random((16, 18)) < 0.3, -1.0,
                     np.round(rng.uniform(0, 80, size=(16, 18)), 1))
    stats = rng.normal(loc=20.0, scale=5.0, size=(16, 5))
    fp_x = np.hstack([counts, pairs, stats])
    fp_y = np.repeat(np.arange(8), 2)

    def weights(n):
        w = rng.uniform(0.1, 2.0, size=n)
        w[rng.random(n) < 0.25] = 0.0
        return w

    sets = {
        "blobs": (blobs_x, blobs_y, weights(40)),
        "ties": (ties_x, ties_y.astype(int), weights(40)),
        "repeats": (base_x[idx], repeats_y, weights(36)),
        "fingerprint-shape": (fp_x, fp_y, weights(16)),
    }

    # Constant columns at the root, as in the bench fingerprint data
    # (19 of its 39 features): six constant columns interleaved with
    # six varying ones, and a last column constant but for one row.
    constant = np.tile(rng.integers(-1, 3, size=6).astype(float), (30, 1))
    varying = np.hstack([rng.integers(0, 3, size=(30, 3)).astype(float),
                         rng.normal(size=(30, 3))])
    one_off = np.zeros(30)
    one_off[rng.integers(30)] = 1.0
    const_x = np.column_stack(
        [col for pair in zip(constant.T, varying.T) for col in pair]
        + [one_off])
    const_y = (varying[:, 0] + (varying[:, 4] > 0) + one_off) % 3
    flip = rng.random(30) < 0.15
    const_y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    sets["constant-columns"] = (const_x, const_y.astype(int), weights(30))
    return sets


def _node_bytes(node, out: list) -> None:
    if node.feature is None:
        out.append(b"L" + np.asarray(node.value, dtype=float).tobytes())
        return
    out.append(f"N{node.feature}:{float(node.threshold).hex()}".encode())
    _node_bytes(node.left, out)
    _node_bytes(node.right, out)


def trees_digest(trees) -> dict:
    """Digest of fitted trees: each split's feature and exact threshold
    bits, each leaf's value bytes, in pre-order."""
    parts: list = []
    for tree in trees:
        _node_bytes(tree._root, parts)
    return {"trees": len(trees),
            "nodes": len(parts),
            "sha256": hashlib.sha256(b"|".join(parts)).hexdigest()}


def fitted_trees(model) -> list:
    if isinstance(model, (DecisionTreeClassifier, DecisionTreeRegressor)):
        return [model]
    if isinstance(model, RandomForestClassifier):
        return model.trees_
    if hasattr(model, "stages_"):
        return [tree for stage in model.stages_ for tree in stage]
    return model.estimators_


@pytest.mark.parametrize("dataset", sorted(tree_datasets()))
def test_tree_structures_bit_identical_to_seed(dataset, golden_store):
    """Every CART user -- the model zoo's tree models, seeded variants
    with ``max_features``/``min_samples_leaf``, weighted trees and
    regressors -- grows exactly the pinned trees."""
    X, y, w = tree_datasets()[dataset]
    zoo = paper_model_zoo(seed=3)
    models = {name: zoo[name] for name in
              ("Decision Tree", "Random Forest", "Gradient Boosting",
               "AdaBoost")}
    models["tree-sqrt-leaf2"] = DecisionTreeClassifier(
        max_features="sqrt", min_samples_leaf=2, seed=5)
    models["tree-depth4-leaf3"] = DecisionTreeClassifier(
        max_depth=4, min_samples_leaf=3, seed=1)
    models["forest-sqrt-leaf2"] = RandomForestClassifier(
        n_estimators=8, min_samples_leaf=2, seed=4)
    captured = {}
    for name, model in models.items():
        model.fit(X, y)
        captured[name] = trees_digest(fitted_trees(model))
    for name, tree in (
            ("weighted", DecisionTreeClassifier(seed=2)),
            ("weighted-sqrt-leaf2", DecisionTreeClassifier(
                max_features="sqrt", min_samples_leaf=2, seed=6))):
        tree.fit(X, y, sample_weight=w)
        captured[name] = trees_digest([tree])
    target = X @ np.linspace(-1.0, 1.0, X.shape[1])
    for name, tree, values in (
            ("regressor", DecisionTreeRegressor(max_depth=4), target),
            ("regressor-ties-leaf2", DecisionTreeRegressor(
                max_depth=None, min_samples_leaf=2), y.astype(float)),
            ("regressor-sqrt-leaf3", DecisionTreeRegressor(
                max_features="sqrt", min_samples_leaf=3, seed=9), target)):
        tree.fit(X, values)
        captured[name] = trees_digest([tree])
    captured["cv"] = cross_validate(
        lambda: DecisionTreeClassifier(seed=3), X, y, n_splits=2, seed=7)
    golden_store.check(("trees", dataset), captured)


#: Fig. 13's countermeasures plus the unprotected baseline, by name.
COUNTERMEASURES = {"none": DefenseKind.NONE, **dict(FIG13_MECHANISMS)}


def blocks_digest(blocks) -> str:
    """sha256 over every blocking interval, in record order."""
    text = "|".join(
        f"{b.kind.value},{b.start},{b.end},{b.rank},"
        f"{'all' if b.banks is None else sorted(b.banks)}"
        for b in blocks)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mechanism", sorted(COUNTERMEASURES))
def test_countermeasure_mix_bit_identical_to_seed(mechanism, golden_store):
    """Fig. 13's four-core mix at N_RH 64: REF, FR-RFM's all-bank RFMs,
    PRFM's same-bank sets and the PRAC/RIAC/PRAC-Bank back-offs."""
    config = SystemConfig()
    kind = COUNTERMEASURES[mechanism]
    if kind is not DefenseKind.NONE:
        config = config.with_defense(DefenseParams.for_nrh(kind, 64))
    mix = make_workload_mixes(1, seed=0)[0]
    apps = apps_for_mix(mix, config.org, 300, seed=0)
    result = mix_scenario(config, apps).run()  # every app starts at 0
    stats = result.system.stats
    per_kind = Counter(b.kind for b in stats.blocks)
    golden_store.check(("countermeasure", mechanism), {
        "counters": dict(stats.act_rate_summary),
        "finish": {agent.name: agent.finish_time
                   for agent in result.agents},
        "blocks": {k.value: per_kind[k] for k in BlockKind},
        "blocks_sha256": blocks_digest(stats.blocks),
    })


def test_golden_file_is_complete(golden_store):
    """Guard: the goldens file itself must cover every pinned trial --
    a missing key means someone regenerated with a subset of the tests
    selected, which would silently unpin physics."""
    golden_store.require_keys([
        ("prac_trial", "none"),
        ("prac_trial", "50.0"),
        ("transmissions", "prac"),
        ("transmissions", "rfm"),
        *[("fingerprint", config, f"{site}-{seed}")
          for config in FINGERPRINT_CONFIGS
          for site in FINGERPRINT_SITES.names
          for seed in FINGERPRINT_SEEDS],
        *[("trees", dataset) for dataset in tree_datasets()],
        *[("countermeasure", name) for name in COUNTERMEASURES],
    ])
