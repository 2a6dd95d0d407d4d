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

from ..errors import ValidationError
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


def _threshold(below, above):
    """The split point between two consecutive distinct sorted values: their
    midpoint, or ``below`` where the midpoint rounds up to ``above`` (two
    adjacent doubles) or overflows, so that ``x <= threshold`` always
    separates them. Elementwise on arrays."""
    mid = 0.5 * (below + above)
    if np.ndim(mid):
        return np.where(mid < above, mid, below)
    return float(mid) if mid < above else float(below)


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
    return float(sse[best]), _threshold(xs[best], xs[best + 1])


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
    return float(best_vals[j]), int(feats[j]), _threshold(xs[row, j],
                                                          xs[row + 1, j])


def _check_tree_xy(X, y) -> "tuple[np.ndarray, np.ndarray]":
    """A tree's training set: ``(n, d)`` finite features and ``n`` finite
    targets, ``n >= 1``. A NaN feature would split at threshold ``nan``
    and leave an empty leaf whose value is ``nan``."""
    X, y = Regressor._validate_xy(X, y)
    if X.shape[0] == 0:
        raise ValidationError("a tree needs at least one training row")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("tree inputs must be finite")
    return X, y


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
        X, y = _check_tree_xy(X, y)
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


def fit_trees(Xs, ys, *, max_depth: "int | None" = None,
              min_samples_split: int = 2, min_samples_leaf: int = 1
              ) -> "list[DecisionTreeRegressor]":
    """Fit one tree per ``(X, y)`` training set, every set in one
    level-synchronous pass.

    Returns each set's fitted :class:`DecisionTreeRegressor` (every
    feature considered at every split), its compiled predictor already
    built. Sets of one width fit together, and their trees are compiled
    together into one pool (:func:`~repro.perf.compile_pool`): a
    :class:`~repro.perf.TreeStack` of a width's trees, in input order,
    reads the pool instead of concatenating the trees.

    Each level of the pass takes every node of every tree at that depth:
    one array pass resolves the leaf tests (depth, size, constant target),
    one split search — the arithmetic of :func:`_best_split` with a node
    axis, over prefix sums that restart at each node — scores every
    splittable node, and one stable partition hands each child its rows,
    already in every feature's sorted order (each set's columns are
    sorted once, at its root). The nodes come out in level order.

    Each tree equals ``DecisionTreeRegressor(max_depth, min_samples_split,
    min_samples_leaf).fit(X, y)`` bitwise: the same split features,
    thresholds and node values, so the same predictions; only the node
    numbering differs (level order, not preorder). Raises
    :class:`~repro.errors.ValidationError` before fitting anything if a
    set is malformed or not finite.
    """
    template = DecisionTreeRegressor(max_depth, min_samples_split,
                                     min_samples_leaf)
    Xs, ys = list(Xs), list(ys)
    if len(Xs) != len(ys):
        raise ValidationError(
            f"fit_trees needs one target per training set: got {len(Xs)} "
            f"feature sets and {len(ys)} target sets"
        )
    groups: "dict[int, list[int]]" = {}
    for i, (X, y) in enumerate(zip(Xs, ys)):
        Xs[i] = X = np.asarray(X, dtype=np.float64)
        ys[i] = y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != X.shape[:1] or not X.shape[0]:
            raise ValidationError(
                f"training set {i}: fit_trees needs an (n, d) X and an (n,) "
                f"y with n >= 1, got {X.shape} and {y.shape}"
            )
        groups.setdefault(X.shape[1], []).append(i)
    trees: list = [None] * len(Xs)
    for members in groups.values():
        X = np.concatenate([Xs[i] for i in members])
        y = np.concatenate([ys[i] for i in members])
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValidationError("tree inputs must be finite")
        counts = np.array([ys[i].shape[0] for i in members], dtype=np.intp)
        for i, tree in zip(members, _fit_level_order(X, y, counts, template)):
            trees[i] = tree
    return trees


def _fit_level_order(X, y, counts, template) -> "list[DecisionTreeRegressor]":
    """:func:`fit_trees` for sets of one width, laid end to end in ``X``
    and ``y`` (``counts[r]`` rows each)."""
    n_sets, d = counts.shape[0], X.shape[1]
    max_depth = np.inf if template.max_depth is None else template.max_depth
    min_size = max(template.min_samples_split, 2 * template.min_samples_leaf)
    xt = np.ascontiguousarray(X.T)  # (d, rows): a feature's values contiguous
    row0 = np.zeros(n_sets, dtype=np.intp)
    np.cumsum(counts[:-1], out=row0[1:])
    # The frontier: each node's set, size and first column in ``order``,
    # whose rows hold every node's row ids (into X) contiguously: sorted by
    # feature j in row j, in row order in row d. At the root no set is
    # sorted yet, and row order is X's own.
    run, size, start = np.arange(n_sets), counts, row0
    order = None
    levels = []
    depth = 0
    while True:
        y_rows = y if order is None else y[order[-1]]
        value = _means(y_rows, start, size)
        cand = np.flatnonzero(size >= min_size) if depth < max_depth else run[:0]
        if cand.shape[0]:
            cand = cand[~_constant(y_rows, start)[cand]]
        feature = np.full(run.shape[0], -1, dtype=np.intp)
        threshold = np.zeros(run.shape[0])
        levels.append((run, feature, threshold, value))
        if not cand.shape[0]:
            break
        if order is None:  # the root level: sort the sets that may split
            order = _sorted_rows(xt, row0[cand], counts[cand])
            start = start.copy()
            start[cand] = 0  # their places in ``order``
            start[cand[1:]] = np.cumsum(counts[cand[:-1]])
        split, feat, thr = _split_level(xt, y, order, start[cand], size[cand],
                                        template.min_samples_leaf)
        split = cand[split]
        if not split.shape[0]:
            break
        feature[split] = feat
        threshold[split] = thr
        if depth + 1 >= max_depth:  # the children are leaves
            order = order[d:]
        order, start, size = _partition(xt, order, start[split], size[split],
                                        feat, thr)
        run = run[split].repeat(2)  # children: left then right
        depth += 1
    return _assemble(levels, n_sets, d, template)


def _assemble(levels, n_sets, d, template) -> "list[DecisionTreeRegressor]":
    """The fitted trees from the pass's levels: each level's ``(set,
    feature, threshold, value)`` per node, the nodes of a set in order,
    and the children of a level's split nodes the next level's nodes, in
    order."""
    from ..perf import compile_pool  # lazy: perf and ml are peers

    node_set, feature, threshold, value = (
        np.concatenate([lv[i] for lv in levels]) for i in range(4))
    depth = np.repeat(np.arange(len(levels)),
                      [lv[0].shape[0] for lv in levels])
    if n_sets > 1:  # each set's nodes together, each set's levels in order
        by_set = np.argsort(node_set, kind="stable")
        feature, threshold, value, depth = (
            a[by_set] for a in (feature, threshold, value, depth))
    counts = np.bincount(node_set, minlength=n_sets)
    # Numbered in level order, a tree's q-th split node has the children
    # 2q + 1 and 2q + 2: every split adds two nodes, in its parent's turn.
    split = feature >= 0
    q = np.cumsum(split) - split
    if n_sets > 1:
        first = np.zeros(n_sets, dtype=np.intp)
        np.cumsum(counts[:-1], out=first[1:])
        q -= q[first].repeat(counts)
    left = np.where(split, 2 * q + 1, -1)
    right = np.where(split, 2 * q + 2, -1)
    compiled = compile_pool(feature, threshold, left, right, value, depth,
                            counts)
    nodes = [_Node(*fields) for fields in zip(
        feature.tolist(), threshold.tolist(), value.tolist(), left.tolist(),
        right.tolist())]
    out = []
    at = 0
    for tree_compiled, k in zip(compiled, counts.tolist()):
        tree = DecisionTreeRegressor.__new__(DecisionTreeRegressor)
        tree.__dict__.update(template.__dict__)
        tree._nodes = nodes[at:at + k]
        tree._compiled = tree_compiled
        tree.n_features_ = d
        out.append(tree)
        at += k
    return out


#: Up to this many nodes a level takes each node's mean on its own; above
#: it, nodes of one size share one 2-D reduction.
_PER_NODE_MEANS = 64


def _means(y_rows, start, size) -> np.ndarray:
    """Each node's mean target, from the nodes' targets in row order (node
    ``i`` at ``y_rows[start[i]:start[i] + size[i]]``).

    Bitwise the per-node ``y_node.mean()``: that is ``np.add.reduce`` of
    the node's targets over their count, and numpy sums a row of a
    contiguous 2-D block pairwise exactly as it sums the same values as a
    1-D array. Padding nodes to a common length would change the
    summation tree, so many nodes are gathered one block per size."""
    m = size.shape[0]
    value = np.empty(m)
    if m <= _PER_NODE_MEANS:
        for i, (a, k) in enumerate(zip(start.tolist(), size.tolist())):
            value[i] = np.add.reduce(y_rows[a:a + k]) / k
        return value
    for k in np.unique(size).tolist():
        at = np.flatnonzero(size == k)
        value[at] = np.add.reduce(
            y_rows[start[at][:, None] + np.arange(k)], axis=1) / k
    return value


def _constant(y_rows, start) -> np.ndarray:
    """Whether each node's targets are all equal (``np.ptp == 0`` on finite
    targets). The nodes' rows tile ``y_rows`` in order, so one segmented
    max and min serve every node."""
    return np.maximum.reduceat(y_rows, start) == np.minimum.reduceat(y_rows, start)


def _sorted_rows(xt, row0, counts) -> np.ndarray:
    """The root ``order`` of the sets that may split: per set, its row ids
    stably sorted by each feature (rows ``0..d-1``) and in row order (row
    ``d``), the sets laid end to end. Shorter sets are padded with
    ``+inf``, which sorts after every finite value."""
    width = int(counts.max())
    d = xt.shape[0]
    rows = row0[:, None] + np.arange(width)
    live = None
    if (counts != width).any():
        live = rows < (row0 + counts)[:, None]
        rows = np.where(live, rows, row0[:, None])
    block = xt[:, rows]  # (d, sets, width)
    if live is not None:
        block[:, ~live] = np.inf
    ids = np.argsort(block.reshape(-1, width), axis=1, kind="stable")
    ids = ids.reshape(block.shape) + row0[:, None]
    if live is None:
        return np.vstack((ids.reshape(d, -1), rows.reshape(1, -1)))
    return np.vstack((ids[:, live], rows[live][None]))


def _split_level(xt, y, order, start, size, min_leaf):
    """:func:`_best_split` of every node at once; returns ``(split,
    feature, threshold)``: the positions of the nodes that split, and
    their split features and thresholds.

    Node ``i``'s rows sorted by feature ``j`` are ``order[j, start[i]:
    start[i] + size[i]]``. The nodes are taken end to end, one row per
    feature; entry ``p`` of a node scores the split after its first
    ``k = p + 1`` rows with :func:`_best_split`'s arithmetic, over prefix
    sums that restart at each node (:func:`_node_cumsums`). A node's best
    split per feature is the first entry holding the segment's minimum
    score, and the earliest feature with the lowest score wins."""
    m = size.shape[0]
    d, n_rows = xt.shape
    seg, n, cols = _columns(start, size)
    ids = order[:d, cols]
    xs = xt.ravel()[ids + (np.arange(d) * n_rows)[:, None]]  # (d, n)
    ys = y[ids]
    left_sum, left_sq = _node_cumsums(ys, seg, size)
    k = np.arange(1, n + 1)  # left sizes
    if m == 1:
        right_sum = left_sum[:, -1:] - left_sum
        right_sq = left_sq[:, -1:] - left_sq
    else:
        last = seg + size - 1
        right_sum = left_sum[:, last].repeat(size, axis=1)
        right_sum -= left_sum
        right_sq = left_sq[:, last].repeat(size, axis=1)
        right_sq -= left_sq
        k -= seg.repeat(size)
    nk = (size.repeat(size) if m > 1 else size) - k
    # A node's last entry leaves no right child (n - k = 0): invalid, so
    # any positive divisor does.
    sse = (left_sq - left_sum**2 / k) \
        + (right_sq - right_sum**2 / np.maximum(nk, 1))
    invalid = np.empty((d, n), dtype=bool)
    np.equal(xs[:, :-1], xs[:, 1:], out=invalid[:, :-1])
    invalid[:, -1] = True
    invalid |= (k < min_leaf) | (nk < min_leaf)
    np.copyto(sse, np.inf, where=invalid)
    # A segment's minimum is NaN if it holds one (as argmin stops at the
    # first NaN); NaN scores lose, as in _best_split.
    best = np.minimum.reduceat(sse, seg, axis=1)  # (d, m)
    best[np.isnan(best)] = np.inf
    j = np.argmin(best, axis=0)  # the earliest best feature per node
    score = best[j, np.arange(m)]
    split = np.flatnonzero(score < np.inf)
    if not split.shape[0]:
        return split, split, np.empty(0)
    if m == 1:
        row = np.argmin(sse[j], axis=1)
    else:
        entry = np.arange(n)
        first = np.where(sse[j.repeat(size), entry] == score.repeat(size),
                         entry, n)
        row = np.minimum.reduceat(first, seg)[split]
    j = j[split]
    return split, j, _threshold(xs[j, row], xs[j, row + 1])


def _columns(start, size):
    """Where a level's nodes lie in ``order`` (node ``i`` at columns
    ``start[i]:start[i] + size[i]``): each node's first column once the
    nodes are taken end to end, their total, and the columns to take (a
    slice when the nodes already lie end to end)."""
    ends = size.cumsum()
    seg = ends - size
    n = int(ends[-1])
    shift = start - seg
    if size.shape[0] == 1 or (shift == shift[0]).all():
        return seg, n, slice(int(shift[0]), int(shift[0]) + n)
    return seg, n, np.arange(n) + shift.repeat(size)


def _node_cumsums(ys, seg, size) -> "tuple[np.ndarray, np.ndarray]":
    """``cumsum`` of ``ys`` and of its squares along each row, restarting
    at each node (node ``i`` at columns ``seg[i]:seg[i] + size[i]``).
    Subtracting a running total would round differently from the node's
    own sums, so each node's slice is summed from zero."""
    both = np.empty((2, *ys.shape))
    both[0] = ys
    np.multiply(ys, ys, out=both[1])
    if size.shape[0] == 1:
        np.add.accumulate(both, axis=2, out=both)
    else:
        for a, b in zip(seg.tolist(), (seg + size).tolist()):
            np.add.accumulate(both[:, :, a:b], axis=2, out=both[:, :, a:b])
    return both[0], both[1]


def _partition(xt, order, start, size, feature, threshold):
    """Split every splitting node's rows into its children: returns the
    next level's ``(order, start, size)``, children left then right per
    parent, parents in order. ``order`` may hold only its row-order row
    (children that will not split need no sorted rows).

    A row goes left when ``X[row, feature] <= threshold``, as in the
    per-tree fit. Each row of ``order`` is partitioned stably, so a
    child's rows stay sorted by every feature and in row order, with no
    float sort below the root: every row of ``order`` holds each node's
    rows, so it holds the same number of lefts per node, and the lefts and
    the rights of all the nodes each come out as one block, in order."""
    m = size.shape[0]
    d, n_rows = xt.shape
    seg, n, cols = _columns(start, size)
    rows = order[:, cols]
    # The side of each row, decided once per row and read in every column.
    nat = rows[-1]
    if m == 1:
        goes_left = xt[feature[0], nat] <= threshold[0]
    else:
        goes_left = xt.ravel()[(feature * n_rows).repeat(size) + nat] \
            <= threshold.repeat(size)
    side = np.zeros(n_rows, dtype=bool)
    side[nat] = goes_left
    go_left = side[rows]
    n_left = np.add.reduceat(goes_left, seg, dtype=np.intp)
    lefts = rows[go_left].reshape(rows.shape[0], -1)
    out = np.concatenate(
        (lefts, rows[~go_left].reshape(rows.shape[0], -1)), axis=1)
    starts = np.empty(2 * m, dtype=np.intp)
    sizes = np.empty(2 * m, dtype=np.intp)
    starts[0::2] = seg
    starts[1::2] = seg + n_left
    sizes[0::2] = n_left
    sizes[1::2] = size - n_left
    if m > 1:  # interleave: node i's lefts, then node i's rights
        before = n_left.cumsum() - n_left
        src = np.empty(2 * m, dtype=np.intp)
        src[0::2] = before
        src[1::2] = lefts.shape[1] + seg - before
        out = out[:, np.arange(n) + (src - starts).repeat(sizes)]
    return out, starts, sizes
