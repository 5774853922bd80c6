"""Shared estimator plumbing."""

from __future__ import annotations

import numpy as np


def check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a dataset to float features / int labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if y.ndim != 1:
        raise ValueError("y must be 1-dimensional")
    if len(X) != len(y):
        raise ValueError("X and y must have equal length")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite (no NaN or inf)")
    return X, y


def check_x(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"X must have shape (n, {n_features})")
    return X


class Classifier:
    """Base class: label encoding + the fit/predict contract."""

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded

    def _decode_labels(self, indices: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        return self.classes_[indices]

    def _require_fitted(self) -> None:
        if self.classes_ is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before predicting")

    def fit(self, X, y) -> "Classifier":
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def score(self, X, y) -> float:
        """Mean accuracy on the given data."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
