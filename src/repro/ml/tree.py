"""CART regression tree (squared-error criterion).

This is the ResModel learner StaticTRR uses (the paper tried every Table-4
model and found the decision tree best for residual prediction) and the base
learner for the forest/boosting ensembles.

Split search is vectorised: for each feature the candidate thresholds are
scanned with cumulative sums, so finding the best split of a node costs
O(d · n log n) with no Python-level inner loop over samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import as_generator
from ..utils.validation import check_2d, check_positive
from .base import Regressor


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "int" = -1
    right: "int" = -1


def _best_split_for_feature(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[float, float]:
    """Best (score gain proxy, threshold) splitting on one feature.

    Returns ``(weighted_sse, threshold)`` where weighted_sse is the sum of
    child SSEs (lower is better), or ``(inf, nan)`` when no valid split
    exists. Reference implementation: :func:`_best_split` scans all
    candidate features in one vectorised pass with identical arithmetic;
    this single-feature form is kept as the ground truth it is verified
    against (tests/test_ml_tree.py).
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = xs.shape[0]
    # Candidate split positions: between distinct consecutive x values,
    # respecting the minimum leaf size.
    csum = np.cumsum(ys)
    csum_sq = np.cumsum(ys**2)
    total, total_sq = csum[-1], csum_sq[-1]
    k = np.arange(1, n)  # left child sizes
    valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & ((n - k) >= min_leaf)
    if not valid.any():
        return np.inf, np.nan
    left_sum, left_sq = csum[:-1], csum_sq[:-1]
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    sse = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (n - k))
    sse = np.where(valid, sse, np.inf)
    best = int(np.argmin(sse))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return float(sse[best]), float(threshold)


def _best_split(
    X_node: np.ndarray, y: np.ndarray, feats: np.ndarray, min_leaf: int
) -> tuple[float, int, float]:
    """Best ``(weighted_sse, feature, threshold)`` over candidate features.

    One vectorised pass: every candidate feature's column is sorted and
    prefix-summed side by side, so a node's whole split search is a handful
    of ``(n, d)`` array ops instead of ``d`` Python-level scans. Column
    ``j`` sees exactly the arithmetic of
    ``_best_split_for_feature(X_node[:, feats[j]], y, min_leaf)`` — same
    stable sort, same prefix sums, same SSE identity — and ties across
    features resolve to the earliest candidate, matching the sequential
    strict-``<`` scan. Returns ``(inf, -1, nan)`` when no feature splits.
    """
    Xf = X_node[:, feats]
    n = Xf.shape[0]
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csum_sq = np.cumsum(ys * ys, axis=0)
    total, total_sq = csum[-1], csum_sq[-1]
    k = np.arange(1, n)[:, None]
    valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & ((n - k) >= min_leaf)
    left_sum, left_sq = csum[:-1], csum_sq[:-1]
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    sse = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (n - k))
    sse = np.where(valid, sse, np.inf)
    best_rows = np.argmin(sse, axis=0)
    best_vals = sse[best_rows, np.arange(sse.shape[1])]
    # NaN scores (degenerate labels) lose to every finite split, exactly as
    # the sequential scan's strict < comparison skipped them.
    best_vals = np.where(np.isnan(best_vals), np.inf, best_vals)
    j = int(np.argmin(best_vals))
    if not best_vals[j] < np.inf:
        return np.inf, -1, np.nan
    row = int(best_rows[j])
    threshold = 0.5 * (xs[row, j] + xs[row + 1, j])
    return float(best_vals[j]), int(feats[j]), float(threshold)


class DecisionTreeRegressor(Regressor):
    """Binary regression tree grown depth-first with squared-error splits.

    Parameters mirror the scikit-learn names used in Table 4. When
    ``max_features`` is set, each split considers a random feature subset
    (used by :class:`repro.ml.ensemble.RandomForestRegressor`).
    """

    def __init__(
        self,
        max_depth: "int | None" = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | None" = None,
        random_state: "int | None" = None,
    ) -> None:
        if max_depth is not None:
            check_positive(max_depth, "max_depth")
        check_positive(min_samples_split, "min_samples_split")
        check_positive(min_samples_leaf, "min_samples_leaf")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: "list[_Node] | None" = None
        self._compiled = None  # flat-array predictor, built lazily (repro.perf)
        self.n_features_: int = 0

    # `coef_`-style fitted marker for _check_fitted
    @property
    def nodes_(self):
        return self._nodes

    def _n_split_features(self, d: int, rng) -> np.ndarray:
        if self.max_features is None:
            return np.arange(d)
        if isinstance(self.max_features, float):
            k = max(1, int(round(self.max_features * d)))
        else:
            k = max(1, min(int(self.max_features), d))
        return rng.choice(d, size=k, replace=False)

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = self._validate_xy(X, y)
        self._compiled = None
        # Created on the first feature-subset draw: seeding from None reads
        # OS entropy, and a tree that considers every feature never draws.
        rng = None
        self.n_features_ = X.shape[1]
        nodes: list[_Node] = []
        max_depth = self.max_depth if self.max_depth is not None else np.inf

        def grow(indices: np.ndarray, depth: int) -> int:
            nonlocal rng
            node_id = len(nodes)
            # One gather per node; the per-feature split search below reuses
            # these views instead of re-slicing X[indices, j] / y[indices]
            # for every candidate feature.
            X_node = X[indices]
            y_node = y[indices]
            node = _Node(value=float(y_node.mean()))
            nodes.append(node)
            n_here = indices.shape[0]
            if (
                depth >= max_depth
                or n_here < self.min_samples_split
                or n_here < 2 * self.min_samples_leaf
                or np.ptp(y_node) == 0.0
            ):
                return node_id
            if rng is None and self.max_features is not None:
                rng = as_generator(self.random_state)
            _, best_feat, best_thr = _best_split(
                X_node, y_node,
                self._n_split_features(self.n_features_, rng),
                self.min_samples_leaf,
            )
            if best_feat < 0:
                return node_id
            mask = X_node[:, best_feat] <= best_thr
            node.feature = best_feat
            node.threshold = best_thr
            node.left = grow(indices[mask], depth + 1)
            node.right = grow(indices[~mask], depth + 1)
            return node_id

        grow(np.arange(X.shape[0]), 0)
        self._nodes = nodes
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("_nodes")
        X = check_2d(X, "X")
        if self._compiled is None:
            from ..perf import compile_tree  # lazy: perf and ml are peers

            self._compiled = compile_tree(self)
        return self._compiled.predict(X)

    def _predict_walk(self, X) -> np.ndarray:
        """Reference object-walk descent (per-sample Python loop).

        Kept as the ground truth the compiled flat-array path is verified
        against (tests/test_perf_compiled.py) and as the "before" arm of the
        benchmark trajectory.
        """
        self._check_fitted("_nodes")
        X = check_2d(X, "X")
        from ..perf.telemetry import record_predict  # lazy: perf and ml are peers

        record_predict("tree", "walk", X.shape[0])
        nodes = self._nodes
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            node = nodes[0]
            while node.feature >= 0:
                node = nodes[node.left if X[i, node.feature] <= node.threshold else node.right]
            out[i] = node.value
        return out

    @property
    def depth_(self) -> int:
        """Realised depth of the fitted tree."""
        self._check_fitted("_nodes")

        def depth_of(nid: int) -> int:
            node = self._nodes[nid]
            if node.feature < 0:
                return 0
            return 1 + max(depth_of(node.left), depth_of(node.right))

        return depth_of(0)

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("_nodes")
        return sum(1 for n in self._nodes if n.feature < 0)
