"""Tests for random forest, gradient boosting, and AdaBoost."""

import numpy as np
import pytest

from repro.ml.boosting import AdaBoostClassifier, GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier

from tests.test_ml_tree import blobs


class TestRandomForest:
    def test_fits_blobs(self):
        X, y = blobs()
        forest = RandomForestClassifier(n_estimators=15, seed=1).fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_reproducible_with_seed(self):
        X, y = blobs(spread=2.0)
        a = RandomForestClassifier(n_estimators=8, seed=5).fit(X, y)
        b = RandomForestClassifier(n_estimators=8, seed=5).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()

    def test_probability_output(self):
        X, y = blobs()
        forest = RandomForestClassifier(n_estimators=9, seed=1).fit(X, y)
        probs = forest.predict_proba(X)
        assert probs.shape == (len(X), 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_generalizes_better_than_single_tree_on_noise(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 6))
        y = ((X[:, 0] + X[:, 1] + 0.8 * rng.normal(size=200)) > 0).astype(int)
        X_test = rng.normal(size=(200, 6))
        y_test = ((X_test[:, 0] + X_test[:, 1]) > 0).astype(int)
        from repro.ml.tree import DecisionTreeClassifier
        tree = DecisionTreeClassifier(seed=1).fit(X, y)
        forest = RandomForestClassifier(n_estimators=30, seed=1).fit(X, y)
        assert forest.score(X_test, y_test) >= tree.score(X_test, y_test)

    def test_rejects_zero_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_string_labels(self):
        X, y = blobs(k=2)
        labels = np.where(y == 0, "a", "b")
        forest = RandomForestClassifier(n_estimators=5, seed=2).fit(X, labels)
        assert set(forest.predict(X)) <= {"a", "b"}


class TestGradientBoosting:
    def test_fits_blobs(self):
        X, y = blobs()
        gbm = GradientBoostingClassifier(n_estimators=15, seed=1).fit(X, y)
        assert gbm.score(X, y) > 0.95

    def test_learns_xor(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        gbm = GradientBoostingClassifier(n_estimators=40, max_depth=3,
                                         seed=1).fit(X, y)
        assert gbm.score(X, y) > 0.95

    def test_more_stages_reduce_training_error(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 4))
        y = ((X[:, 0] - X[:, 1] + 0.6 * rng.normal(size=150)) > 0).astype(int)
        few = GradientBoostingClassifier(n_estimators=2, seed=1).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=40, seed=1).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_predict_proba_valid(self):
        X, y = blobs()
        gbm = GradientBoostingClassifier(n_estimators=5, seed=1).fit(X, y)
        probs = gbm.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=2).fit(
                [[1.0], [bad], [3.0]], [0, 1, 0])


class TestAdaBoost:
    def test_fits_blobs(self):
        X, y = blobs(k=2)
        ada = AdaBoostClassifier(n_estimators=10, seed=1).fit(X, y)
        assert ada.score(X, y) > 0.95

    def test_boosting_beats_single_stump(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)  # stump-hard
        from repro.ml.tree import DecisionTreeClassifier
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        ada = AdaBoostClassifier(n_estimators=40, max_depth=2,
                                 seed=1).fit(X, y)
        assert ada.score(X, y) > stump.score(X, y)

    def test_multiclass_support(self):
        X, y = blobs(k=4)
        ada = AdaBoostClassifier(n_estimators=40, max_depth=2,
                                 seed=1).fit(X, y)
        assert ada.score(X, y) > 0.8

    def test_early_stop_on_perfect_stump(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        ada = AdaBoostClassifier(n_estimators=50, seed=1).fit(X, y)
        assert len(ada.estimators_) < 50

    def test_alphas_positive(self):
        X, y = blobs(k=2, spread=2.0)
        ada = AdaBoostClassifier(n_estimators=10, seed=1).fit(X, y)
        assert all(a > 0 for a in ada.alphas_)
