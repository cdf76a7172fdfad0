"""Random-forest classifier built on the from-scratch CART trees.

Used by the SC20-RF and Myopic-RF baselines.  Bootstrap sampling plus √d
feature subsampling per split, probability output as the mean of the trees'
leaf probabilities — the same recipe as the scikit-learn model used in the
original SC20 study.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.decision_tree import DecisionTreeClassifier
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive


class RandomForestClassifier:
    """Bagged ensemble of CART trees with probability averaging."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 10,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features="sqrt",
        bootstrap: bool = True,
        seed=0,
    ) -> None:
        check_positive("n_estimators", n_estimators)
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self._seed = seed
        self._rng = as_generator(seed, "forest")
        self.trees_: List[DecisionTreeClassifier] = []
        self.n_features_: Optional[int] = None
        self._stacked: Optional[tuple] = None
        #: Bulk trace predictions shared across the SC20-family policies
        #: (written by ``SC20RandomForestPolicy.prepare_traces``).
        self._shared_trace_predictions: Optional[tuple] = None

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees_)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on features ``X`` and binary labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be 2-D and aligned with y")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a forest on an empty dataset")
        self.n_features_ = X.shape[1]
        self.trees_ = []
        self._stacked = None
        self._shared_trace_predictions = None
        n = X.shape[0]
        for i in range(self.n_estimators):
            if self.bootstrap:
                sample = self._rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample], y[sample])
            self.trees_.append(tree)
        return self

    def _stacked_arrays(self) -> tuple:
        """All trees' flat node arrays concatenated, children re-offset.

        Lets one level-synchronous walk advance every (tree, row) pair at
        once instead of paying per-tree Python overhead; built lazily and
        cached until the next :meth:`fit`.
        """
        if self._stacked is None:
            features, thresholds, lefts, rights, probabilities = [], [], [], [], []
            roots = []
            offset = 0
            max_depth = 0
            for tree in self.trees_:
                feature, threshold, left, right, probability, depth = (
                    tree._flat_arrays()
                )
                roots.append(offset)
                features.append(feature)
                thresholds.append(threshold)
                # Re-offset children; leaf self-loops stay self-loops.
                lefts.append(left + offset)
                rights.append(right + offset)
                probabilities.append(probability)
                offset += len(feature)
                max_depth = max(max_depth, depth)
            self._stacked = (
                np.concatenate(features),
                np.concatenate(thresholds),
                np.concatenate(lefts),
                np.concatenate(rights),
                np.concatenate(probabilities),
                np.asarray(roots, dtype=np.int64),
                max_depth,
            )
        return self._stacked

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean positive-class probability across the ensemble.

        All (tree, row) pairs descend their tree together; each pair still
        performs exactly the comparisons a per-tree, per-row walk would, and
        the probability averaging folds the trees in fitting order — so the
        output is bitwise identical to the historical per-tree loop.
        """
        if not self.is_fitted:
            raise RuntimeError("the forest has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        feature, threshold, left, right, probability, roots, depth = (
            self._stacked_arrays()
        )
        n_rows = X.shape[0]
        n_trees = len(self.trees_)
        flat_x = np.ascontiguousarray(X).ravel()
        row_base = np.tile(
            np.arange(n_rows, dtype=np.int64) * X.shape[1], n_trees
        )
        node = np.repeat(roots, n_rows)
        for _ in range(depth):
            values = flat_x[row_base + feature[node]]
            node = np.where(values <= threshold[node], left[node], right[node])
        per_tree = probability[node].reshape(n_trees, n_rows)
        total = np.zeros(n_rows, dtype=float)
        for k in range(n_trees):  # sequential fold: matches the per-tree loop
            total += per_tree[k]
        return total / n_trees

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Explicit batched probability prediction for a feature matrix.

        One ensemble pass per call: every tree routes all rows at once and
        the per-row probability averaging folds the trees in a fixed order,
        so predictions are bitwise identical to single-row calls — the
        property the vectorized evaluation runner relies on when it asks
        for one forest prediction per trace.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("predict_batch expects a 2-D feature matrix")
        return self.predict_proba(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)
