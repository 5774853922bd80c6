"""Boosted ensembles: gradient boosting (softmax) and AdaBoost (SAMME).

Every tree of a boosted fit sees the same rows, so a fit validates and
presorts ``X`` once and grows each tree on that order; the training-set
predictions a boosting round needs come from the leaves the tree just
grew (``fitted``), not from ``predict``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_x, check_xy
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostingClassifier(Classifier):
    """Multiclass gradient boosting with regression trees on the
    softmax negative gradient (Friedman 2001)."""

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.1,
                 max_depth: int = 3, seed: int = 0) -> None:
        super().__init__()
        if n_estimators < 1 or learning_rate <= 0:
            raise ValueError("bad boosting parameters")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed
        self.stages_: list[list[DecisionTreeRegressor]] = []
        self._init_scores: np.ndarray | None = None

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        n, n_classes = len(X), len(self.classes_)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), encoded] = 1.0
        priors = onehot.mean(axis=0).clip(1e-9, 1.0)
        self._init_scores = np.log(priors)
        scores = np.tile(self._init_scores, (n, 1))
        order = np.argsort(X.T, axis=1, kind="stable")
        ones = np.ones(n)
        fitted = np.empty(n)
        self.stages_ = []
        for stage in range(self.n_estimators):
            residual = onehot - _softmax(scores)
            stage_trees = []
            for k in range(n_classes):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    seed=self.seed * 7919 + stage * n_classes + k)
                tree.n_features_ = self.n_features_
                tree._grow(X, residual[:, k], ones, order, fitted)
                scores[:, k] += self.learning_rate * fitted
                stage_trees.append(tree)
            self.stages_.append(stage_trees)
        return self

    def decision_function(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_x(X, self.n_features_)
        scores = np.tile(self._init_scores, (len(X), 1))
        for stage_trees in self.stages_:
            for k, tree in enumerate(stage_trees):
                scores[:, k] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return self._decode_labels(
            np.argmax(self.decision_function(X), axis=1))


class AdaBoostClassifier(Classifier):
    """SAMME AdaBoost over decision stumps (Freund & Schapire 1997;
    multiclass extension of Zhu et al.)."""

    def __init__(self, n_estimators: int = 50, max_depth: int = 1,
                 seed: int = 0) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self.estimators_: list[DecisionTreeClassifier] = []
        self.alphas_: list[float] = []

    def fit(self, X, y) -> "AdaBoostClassifier":
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        n, n_classes = len(X), len(self.classes_)
        weights = np.full(n, 1.0 / n)
        order = np.argsort(X.T, axis=1, kind="stable")
        fitted = np.empty((n, n_classes))
        self.estimators_ = []
        self.alphas_ = []
        for i in range(self.n_estimators):
            stump = DecisionTreeClassifier(max_depth=self.max_depth,
                                           seed=self.seed * 31 + i)
            # What ``stump.fit(X, encoded, sample_weight=weights)`` sets:
            # ``encoded`` holds every class code.
            stump.classes_ = np.arange(n_classes)
            stump._n_classes = n_classes
            stump.n_features_ = self.n_features_
            stump._grow(X, encoded, weights, order, fitted)
            pred = np.argmax(fitted, axis=1)
            miss = pred != encoded
            err = float(np.sum(weights * miss) / np.sum(weights))
            if err >= 1.0 - 1.0 / n_classes:
                break  # weak learner no better than chance; stop
            err = max(err, 1e-12)
            alpha = np.log((1.0 - err) / err) + np.log(n_classes - 1.0)
            self.estimators_.append(stump)
            self.alphas_.append(alpha)
            weights *= np.exp(alpha * miss)
            weights /= weights.sum()
            if err < 1e-10:
                break  # perfect stump; further rounds are redundant
        if not self.estimators_:
            # Degenerate data: keep a single stump as fallback.
            stump = DecisionTreeClassifier(max_depth=self.max_depth,
                                           seed=self.seed)
            stump.fit(X, encoded, sample_weight=weights)
            self.estimators_.append(stump)
            self.alphas_.append(1.0)
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_x(X, self.n_features_)
        n_classes = len(self.classes_)
        scores = np.zeros((len(X), n_classes))
        for alpha, stump in zip(self.alphas_, self.estimators_):
            pred = stump.predict(X)
            for k in range(n_classes):
                scores[pred == k, k] += alpha
        return self._decode_labels(np.argmax(scores, axis=1))
