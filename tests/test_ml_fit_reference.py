"""Every CART fit against the per-tree reference it must reproduce.

The tree builder drops, at each node, the features that are constant
over the node's rows (unless the tree draws random subspaces), and the
boosters presort ``X`` once per fit and read their training-set
predictions from the leaves they grow.  The references below keep the
straightforward algorithm: every feature scanned at every node, each
tree fitted through its public ``fit`` and each boosting round reading
``predict``.  Hypothesis draws small datasets that reach the shortcuts'
edges -- constant columns (some or all of them), columns constant but
for one row, integer-valued and tied columns, duplicated rows with
conflicting labels, zero sample weights -- and every fitted tree must
match its reference in feature, threshold bits and leaf value bytes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.ml.base import check_xy
from repro.ml.boosting import _softmax
from repro.ml.tree import _Node

from tests.test_golden_identity import fitted_trees, trees_digest


class _EveryFeatureBuilder:
    """The builder without feature dropping or shared presorts: every
    node scans every feature (or draws its random subspace)."""

    def _grow(self, X, y, w, order=None, fitted=None):
        self._rng = np.random.default_rng(self.seed)
        order = np.argsort(X.T, axis=1, kind="stable")
        self._root = self._reference_build(X, y, w, np.arange(len(X)),
                                           order, 0)

    def _reference_build(self, X, y, w, rows, order, depth):
        y_node = y[rows]
        node = _Node(self._leaf_value(y_node, w[rows]))
        n_features = X.shape[1]
        if (len(rows) < self.min_samples_split or n_features == 0
                or self._is_pure(y_node)
                or (self.max_depth is not None and depth >= self.max_depth)):
            return node
        k = self._n_candidate_features(n_features)
        if k < n_features:
            candidates = self._rng.choice(n_features, size=k, replace=False)
            split = self._best_split(X, y, w, order[candidates], candidates)
        else:
            split = self._best_split(X, y, w, order, np.arange(n_features))
        if split is None:
            return node
        node.feature, node.threshold = split
        go_left = X[:, node.feature] <= node.threshold
        in_left = go_left[rows]
        sel = go_left[order]
        node.left = self._reference_build(
            X, y, w, rows[in_left], order[sel].reshape(n_features, -1),
            depth + 1)
        node.right = self._reference_build(
            X, y, w, rows[~in_left], order[~sel].reshape(n_features, -1),
            depth + 1)
        return node


class ReferenceTreeClassifier(_EveryFeatureBuilder, DecisionTreeClassifier):
    pass


class ReferenceTreeRegressor(_EveryFeatureBuilder, DecisionTreeRegressor):
    def _leaf_value(self, y, w):
        return float(np.average(y, weights=w))


class ReferenceGradientBoosting(GradientBoostingClassifier):
    """One tree ``fit`` and ``predict`` per class per stage."""

    def fit(self, X, y):
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        n, n_classes = len(X), len(self.classes_)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), encoded] = 1.0
        priors = onehot.mean(axis=0).clip(1e-9, 1.0)
        self._init_scores = np.log(priors)
        scores = np.tile(self._init_scores, (n, 1))
        self.stages_ = []
        for stage in range(self.n_estimators):
            residual = onehot - _softmax(scores)
            stage_trees = []
            for k in range(n_classes):
                tree = ReferenceTreeRegressor(
                    max_depth=self.max_depth,
                    seed=self.seed * 7919 + stage * n_classes + k)
                tree.fit(X, residual[:, k])
                scores[:, k] += self.learning_rate * tree.predict(X)
                stage_trees.append(tree)
            self.stages_.append(stage_trees)
        return self


class ReferenceAdaBoost(AdaBoostClassifier):
    """One stump ``fit`` and ``predict`` per round."""

    def fit(self, X, y):
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        n, n_classes = len(X), len(self.classes_)
        weights = np.full(n, 1.0 / n)
        self.estimators_ = []
        self.alphas_ = []
        for i in range(self.n_estimators):
            stump = ReferenceTreeClassifier(max_depth=self.max_depth,
                                            seed=self.seed * 31 + i)
            stump.fit(X, encoded, sample_weight=weights)
            miss = stump.predict(X) != encoded
            err = float(np.sum(weights * miss) / np.sum(weights))
            if err >= 1.0 - 1.0 / n_classes:
                break
            err = max(err, 1e-12)
            alpha = np.log((1.0 - err) / err) + np.log(n_classes - 1.0)
            self.estimators_.append(stump)
            self.alphas_.append(alpha)
            weights *= np.exp(alpha * miss)
            weights /= weights.sum()
            if err < 1e-10:
                break
        if not self.estimators_:
            stump = ReferenceTreeClassifier(max_depth=self.max_depth,
                                            seed=self.seed)
            stump.fit(X, encoded, sample_weight=weights)
            self.estimators_.append(stump)
            self.alphas_.append(1.0)
        return self


class ReferenceRandomForest(RandomForestClassifier):
    def fit(self, X, y):
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        n = len(X)
        self.trees_ = []
        for i in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            tree = ReferenceTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=self.seed * 1013 + i)
            tree.fit(X[idx], encoded[idx])
            self.trees_.append(tree)
        return self


#: How a drawn column is filled: continuous, small integers (ties),
#: constant, or constant but for one row.
COLUMN_KINDS = ("normal", "integer", "constant", "one-off")


@st.composite
def datasets(draw):
    """``(X, y, sample_weight)``: 1-60 rows, 0-40 columns, 2-8 label
    values."""
    n = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), max_size=40))
    if draw(st.integers(0, 4)) == 0:
        kinds = ["constant"] * len(kinds)
    n_classes = draw(st.integers(2, 8))
    duplicates = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "normal":
            X[:, j] = rng.normal(size=n)
        elif kind == "integer":
            X[:, j] = rng.integers(0, 3, size=n)
        elif kind == "constant":
            X[:, j] = rng.integers(-2, 3)
        else:
            X[:, j] = 1.0
            X[rng.integers(n), j] = rng.choice((-1.0, 2.0))
    y = rng.integers(0, n_classes, size=n)
    if duplicates and n > 1:
        # Copy some rows over others and give the copies other labels.
        src = rng.integers(0, n, size=n // 2)
        X[:n // 2] = X[src]
        y[:n // 2] = (y[src] + 1) % n_classes
    w = rng.uniform(0.1, 2.0, size=n)
    w[rng.random(n) < 0.25] = 0.0
    return X, y, w


def assert_same_trees(model, reference) -> None:
    assert (trees_digest(fitted_trees(model))
            == trees_digest(fitted_trees(reference)))


@settings(max_examples=120, deadline=None)
@given(data=datasets(), leaf=st.integers(1, 3),
       depth=st.sampled_from((None, 1, 3)))
def test_single_trees_match_reference(data, leaf, depth):
    X, y, w = data
    for max_features in (None, "sqrt"):
        for weights in (None, w):
            tree, reference = (
                cls(max_depth=depth, min_samples_leaf=leaf,
                    max_features=max_features, seed=7).fit(
                        X, y, sample_weight=weights)
                for cls in (DecisionTreeClassifier, ReferenceTreeClassifier))
            assert_same_trees(tree, reference)
            assert (tree.predict_proba(X).tobytes()
                    == reference.predict_proba(X).tobytes())
        for target in (X.sum(axis=1) + y, y.astype(float)):
            tree, reference = (
                cls(max_depth=depth, min_samples_leaf=leaf,
                    max_features=max_features, seed=7).fit(X, target)
                for cls in (DecisionTreeRegressor, ReferenceTreeRegressor))
            assert_same_trees(tree, reference)
            assert tree.predict(X).tobytes() == reference.predict(X).tobytes()


@settings(max_examples=80, deadline=None)
@given(data=datasets(), n_estimators=st.integers(1, 4),
       learning_rate=st.sampled_from((0.1, 0.5)),
       depth=st.sampled_from((1, 3)), seed=st.integers(0, 9))
def test_gradient_boosting_matches_reference(data, n_estimators,
                                             learning_rate, depth, seed):
    X, y, _ = data
    model, reference = (
        cls(n_estimators=n_estimators, learning_rate=learning_rate,
            max_depth=depth, seed=seed).fit(X, y)
        for cls in (GradientBoostingClassifier, ReferenceGradientBoosting))
    assert_same_trees(model, reference)
    assert (model.decision_function(X).tobytes()
            == reference.decision_function(X).tobytes())
    assert (model.predict(X) == reference.predict(X)).all()


@settings(max_examples=80, deadline=None)
@given(data=datasets(), n_estimators=st.integers(1, 8),
       depth=st.sampled_from((1, 2)), seed=st.integers(0, 9))
def test_adaboost_matches_reference(data, n_estimators, depth, seed):
    X, y, _ = data
    model, reference = (
        cls(n_estimators=n_estimators, max_depth=depth, seed=seed).fit(X, y)
        for cls in (AdaBoostClassifier, ReferenceAdaBoost))
    assert_same_trees(model, reference)
    assert model.alphas_ == reference.alphas_
    assert (model.predict(X) == reference.predict(X)).all()


@settings(max_examples=50, deadline=None)
@given(data=datasets(), leaf=st.integers(1, 2), seed=st.integers(0, 9))
def test_random_forest_matches_reference(data, leaf, seed):
    X, y, _ = data
    model, reference = (
        cls(n_estimators=4, min_samples_leaf=leaf, seed=seed).fit(X, y)
        for cls in (RandomForestClassifier, ReferenceRandomForest))
    assert_same_trees(model, reference)
    assert (model.predict_proba(X).tobytes()
            == reference.predict_proba(X).tobytes())
