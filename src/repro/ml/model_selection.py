"""Dataset splitting and cross-validation (Table 2 uses 10-fold CV)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    precision_score,
    recall_score,
)


def train_test_split(X, y, test_size: float = 0.25, seed: int = 0,
                     stratify: bool = True):
    """Split into train/test, optionally preserving class proportions."""
    X = np.asarray(X)
    y = np.asarray(y)
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be within (0, 1)")
    rng = np.random.default_rng(seed)
    n = len(y)
    if stratify:
        test_idx: list[int] = []
        for cls in np.unique(y):
            members = np.flatnonzero(y == cls)
            rng.shuffle(members)
            k = max(1, round(len(members) * test_size))
            test_idx.extend(members[:k].tolist())
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
    else:
        order = rng.permutation(n)
        k = max(1, round(n * test_size))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:k]] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


class StratifiedKFold:
    """K folds with (approximately) preserved class proportions."""

    def __init__(self, n_splits: int = 10, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, y) -> list[tuple[np.ndarray, np.ndarray]]:
        """Returns (train_indices, test_indices) per fold."""
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        fold_of = np.empty(len(y), dtype=int)
        for cls in np.unique(y):
            members = np.flatnonzero(y == cls)
            rng.shuffle(members)
            for i, idx in enumerate(members):
                fold_of[idx] = i % self.n_splits
        folds = []
        for fold in range(self.n_splits):
            test = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            if len(test) == 0 or len(train) == 0:
                raise ValueError(
                    f"fold {fold} is empty; reduce n_splits")
            folds.append((train, test))
        return folds


def cross_validate(model_factory: Callable[[], object], X, y,
                   n_splits: int = 10, seed: int = 0) -> dict:
    """Fit a fresh model per fold; report mean/std of the Table 2
    metrics (accuracy, and F1/precision/recall averaged over classes
    weighted by their support)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    folds = StratifiedKFold(n_splits=n_splits, seed=seed).split(y)
    scores: dict[str, list[float]] = {
        "accuracy": [], "f1": [], "precision": [], "recall": []}
    for train, test in folds:
        model = model_factory()
        model.fit(X[train], y[train])
        pred = model.predict(X[test])
        scores["accuracy"].append(accuracy_score(y[test], pred))
        scores["f1"].append(f1_score(y[test], pred, average="weighted"))
        scores["precision"].append(
            precision_score(y[test], pred, average="weighted"))
        scores["recall"].append(
            recall_score(y[test], pred, average="weighted"))
    out = {}
    for name, values in scores.items():
        arr = np.asarray(values)
        out[f"{name}_mean"] = float(arr.mean())
        out[f"{name}_std"] = float(arr.std())
    out["n_splits"] = n_splits
    return out
