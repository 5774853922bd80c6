"""CART decision trees (classification: Gini; regression: variance).

The textbook CART split search, vectorized: every fit sorts each
feature once (a stable argsort of ``X``), and each node gets its
per-feature row order by filtering its parent's order to its own rows.
Filtering keeps tied values in row order, which is exactly the order a
stable sort of the node's rows would give.  A node then scores all of
its candidate features in one pass: prefix class counts (Gini) or
prefix sums (variance) taken along the sample axis, one row per
feature.  ``max_features`` enables the random-subspace behaviour
random forests need, and ``sample_weight`` support enables boosting.

Without random subspaces, a node drops the features that are constant
over its rows before it searches: such a feature has no valid cut
there or anywhere below, and dropping it keeps the others in candidate
order, so the first least-impurity split does not move.  A boosted fit
hands every tree the same presort and reads its training predictions
from the leaves as they are grown (``_grow``'s ``order`` and
``fitted``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_x, check_xy


class _Node:
    """One tree node (leaf if ``feature`` is None)."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value) -> None:
        self.feature: int | None = None
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value = value  # class-probability vector or mean target


def _gini_impurity(ys: np.ndarray, ws: np.ndarray,
                   n_classes: int) -> np.ndarray:
    """Weighted Gini impurity after each split position.

    ``ys``/``ws`` hold labels/weights as (features, n) rows, each in
    that feature's sorted order; returns (features, n - 1), with inf
    where a side would carry no weight.
    """
    onehot = np.where(ys[:, :, None] == np.arange(n_classes),
                      ws[:, :, None], 0.0)
    prefix = np.cumsum(onehot, axis=1)
    w_prefix = np.cumsum(ws, axis=1)
    w_total = w_prefix[:, -1:]

    left = prefix[:, :-1]
    right = prefix[:, -1:] - left
    wl = w_prefix[:, :-1]
    wr = w_total - wl
    with np.errstate(divide="ignore", invalid="ignore"):
        # Sum classes over the last, contiguous axis: each position's
        # float reduction then groups exactly as a one-feature scan's
        # does, so split choices do not move in the last bits.
        gini_l = 1.0 - np.sum((left / wl[:, :, None]) ** 2, axis=2)
        gini_r = 1.0 - np.sum((right / wr[:, :, None]) ** 2, axis=2)
        impurity = (wl * gini_l + wr * gini_r) / w_total
    return np.where((wl <= 0) | (wr <= 0), np.inf, impurity)


def _sse(ys: np.ndarray) -> np.ndarray:
    """Summed squared error of both sides after each split position,
    (features, n) sorted targets -> (features, n - 1)."""
    n = ys.shape[1]
    prefix = np.cumsum(ys, axis=1)
    prefix_sq = np.cumsum(ys ** 2, axis=1)
    n_l = np.arange(1, n)
    sum_l = prefix[:, :-1]
    sum_r = prefix[:, -1:] - sum_l
    sq_l = prefix_sq[:, :-1]
    sq_r = prefix_sq[:, -1:] - sq_l
    return (sq_l - sum_l ** 2 / n_l) + (sq_r - sum_r ** 2 / (n - n_l))


class _BaseTree:
    """Shared recursive builder."""

    def __init__(self, max_depth: int | None, min_samples_split: int,
                 min_samples_leaf: int, max_features: int | str | None,
                 seed: int) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not (max_features is None or max_features == "sqrt"
                or (isinstance(max_features, int)
                    and not isinstance(max_features, bool)
                    and max_features >= 1)):
            raise ValueError(f"bad max_features: {max_features!r}; "
                             "expected None, 'sqrt' or an int >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._rng: np.random.Generator | None = None

    # Subclass hooks ----------------------------------------------------
    def _leaf_value(self, y: np.ndarray, w: np.ndarray):
        raise NotImplementedError

    def _is_pure(self, y: np.ndarray) -> bool:
        raise NotImplementedError

    def _split_scores(self, y: np.ndarray, w: np.ndarray,
                      sorted_rows: np.ndarray) -> np.ndarray:
        """Impurity after each split position of each feature's row
        order in ``sorted_rows`` (features, n) -> (features, n - 1)."""
        raise NotImplementedError

    # Builder -----------------------------------------------------------
    def _n_candidate_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(mf, n_features)

    def _grow(self, X: np.ndarray, y: np.ndarray, w: np.ndarray,
              order: np.ndarray | None = None,
              fitted: np.ndarray | None = None) -> None:
        """Grow the tree over every row of ``X``.

        ``order`` is ``np.argsort(X.T, axis=1, kind="stable")`` when the
        caller already holds it.  If ``fitted`` is given, each leaf
        writes its value into it at its rows; splits route rows with
        the ``<=`` test ``predict`` uses, so ``fitted`` ends equal to
        the tree's predictions on ``X``.
        """
        if order is None:
            order = np.argsort(X.T, axis=1, kind="stable")
        if self.max_features is not None:
            self._rng = np.random.default_rng(self.seed)
        self._root = self._build(X, y, w, np.arange(len(X)), order,
                                 np.arange(X.shape[1]), 0, fitted)

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray,
               rows: np.ndarray, order: np.ndarray, features: np.ndarray,
               depth: int, fitted: np.ndarray | None) -> _Node:
        """Grow the subtree over ``rows`` (ascending); ``order[i]``
        lists the same rows sorted by feature ``features[i]``."""
        y_node = y[rows]
        node = _Node(self._leaf_value(y_node, w[rows]))
        split = None
        if not (len(rows) < self.min_samples_split or len(features) == 0
                or self._is_pure(y_node)
                or (self.max_depth is not None and depth >= self.max_depth)):
            n_features = X.shape[1]
            k = self._n_candidate_features(n_features)
            if k < n_features:
                # Random subspaces draw from every feature, so none is
                # dropped on this path.
                candidates = self._rng.choice(n_features, size=k,
                                              replace=False)
                split = self._best_split(X, y, w, order[candidates],
                                         candidates)
            else:
                # Drop the features constant over these rows, here and
                # in the whole subtree (see the module docstring).
                varies = X[order[:, 0], features] != X[order[:, -1], features]
                order, features = order[varies], features[varies]
                if len(features):
                    split = self._best_split(X, y, w, order, features)
        if split is None:
            if fitted is not None:
                fitted[rows] = node.value
            return node
        node.feature, node.threshold = split
        go_left = X[:, node.feature] <= node.threshold
        in_left = go_left[rows]
        sel = go_left[order]
        n_lanes = len(order)
        node.left = self._build(X, y, w, rows[in_left],
                                order[sel].reshape(n_lanes, -1), features,
                                depth + 1, fitted)
        node.right = self._build(X, y, w, rows[~in_left],
                                 order[~sel].reshape(n_lanes, -1), features,
                                 depth + 1, fitted)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray, w: np.ndarray,
                    sorted_rows: np.ndarray, candidates: np.ndarray
                    ) -> tuple[int, float] | None:
        """``(feature, threshold)`` of the least-impurity split, the
        first in candidate order on equal impurity, or None.
        ``sorted_rows[i]`` lists the node's rows sorted by feature
        ``candidates[i]``."""
        n = sorted_rows.shape[1]
        xs = X[sorted_rows, candidates[:, None]]
        impurity = self._split_scores(y, w, sorted_rows)
        lanes = np.arange(len(candidates))
        pos = np.argmin(impurity, axis=1)
        best = impurity[lanes, pos]
        # Move each split to the last index sharing its value so the
        # threshold separates distinct feature values (a constant
        # feature has no such index).
        cuts = xs[:, 1:] != xs[:, :-1]
        cuts &= np.arange(n - 1) >= pos[:, None]
        pos = np.argmax(cuts, axis=1)
        leaf = self.min_samples_leaf
        valid = (cuts[lanes, pos] & (pos + 1 >= leaf) & (n - pos - 1 >= leaf)
                 & (best < np.inf))
        if not valid.any():
            return None
        j = int(np.argmin(np.where(valid, best, np.inf)))
        p = pos[j]
        return int(candidates[j]), (xs[j, p] + xs[j, p + 1]) / 2.0

    def _predict_node(self, x: np.ndarray) -> _Node:
        node = self._root
        assert node is not None
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold \
                else node.right
            assert node is not None
        return node

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        def walk(node: _Node | None) -> int:
            if node is None or node.feature is None:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self._root)


class DecisionTreeClassifier(_BaseTree, Classifier):
    """CART classifier with Gini impurity."""

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 seed: int = 0) -> None:
        _BaseTree.__init__(self, max_depth, min_samples_split,
                           min_samples_leaf, max_features, seed)
        Classifier.__init__(self)
        self._n_classes = 0

    def _leaf_value(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        probs = np.bincount(y, weights=w, minlength=self._n_classes)
        total = probs.sum()
        return probs / total if total > 0 else probs

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool((y == y[0]).all())

    def _split_scores(self, y, w, sorted_rows) -> np.ndarray:
        return _gini_impurity(y[sorted_rows], w[sorted_rows],
                              self._n_classes)

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = check_xy(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        if sample_weight is None:
            w = np.ones(len(y))
        else:
            w = np.asarray(sample_weight, dtype=float)
            if (len(w) != len(y) or not np.isfinite(w).all()
                    or (w < 0).any()):
                raise ValueError("bad sample_weight")
        self._grow(X, encoded, w)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_x(X, self.n_features_)
        return np.vstack([self._predict_node(x).value for x in X])

    def predict(self, X) -> np.ndarray:
        probs = self.predict_proba(X)
        return self._decode_labels(np.argmax(probs, axis=1))


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with variance (SSE) splitting."""

    def __init__(self, max_depth: int | None = 3,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 seed: int = 0) -> None:
        super().__init__(max_depth, min_samples_split, min_samples_leaf,
                         max_features, seed)
        self.n_features_: int | None = None

    def _leaf_value(self, y: np.ndarray, w: np.ndarray) -> float:
        # Regression trees grow on unit weights, so the mean is the
        # weighted average, bit for bit.
        return float(y.mean())

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0]))

    def _split_scores(self, y, w, sorted_rows) -> np.ndarray:
        return _sse(y[sorted_rows])

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_xy(X, y)
        y = y.astype(float)
        self.n_features_ = X.shape[1]
        self._grow(X, y, np.ones(len(y)))
        return self

    def predict(self, X) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("regressor is not fitted")
        X = check_x(X, self.n_features_)
        return np.array([self._predict_node(x).value for x in X])
