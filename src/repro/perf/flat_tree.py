"""Flat-array decision-tree predictors (the TRR hot path).

The object-walk ``DecisionTreeRegressor.predict`` descends ``_Node``
instances in a per-sample Python loop — ~1 µs *per sample per level* of
interpreter dispatch. Every restore funnels through that loop (StaticTRR's
ResModel, the Table-4/5 tree baselines, the forest/boosting ensembles), so
it is the monitor's dominant inference cost at deployment batch sizes.

This module compiles a fitted tree into parallel numpy arrays (``feature``,
``threshold``, ``left``, ``right``, ``value``) and predicts with a
*vectorised frontier descent*: one numpy step advances every
still-descending sample by one level, so the Python-level work is
O(depth · n_trees), not O(n_samples · depth · n_trees).

Kernel layout (``_descend``): each node owns two consecutive *slots*
(``slot = 2·node + branch``) so the branch decision folds into the child
gather — ``child[slot + (x ≤ t)]`` — with children stored ``[right, left]``
per pair. A NaN feature therefore takes the right branch, exactly as the
object walk's failed ``<=`` does. Leaves self-loop (both child slots point
back at the leaf) with a ``+inf`` threshold, which lets the frontier run
several levels between leaf checks: finished samples spin harmlessly in
place until the next periodic compaction retires them. All per-level
scratch lives in a :class:`_Workspace` cached on the compiled object per
thread, so a warmed predictor allocates nothing but its output and threads
sharing a model never share scratch.

Ensembles descend tree-by-tree rather than over one concatenated node pool:
a single tree's slot arrays are a few hundred KiB and stay cache-resident
for the whole batch, which measures ~30 % faster than the fused frontier
whose working set spills to last-level cache.

Numerical contract: a compiled tree performs exactly the comparisons of the
object walk (same thresholds, same ``<=``), so single-tree predictions are
bit-identical and ensemble reductions replicate the reference accumulation
order (stacked mean for forests, sequential shrinkage sum for boosting).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import NotFittedError
from .telemetry import record_predict

# Levels descended between leaf checks. Checking every level pays a gather
# + count + compaction per level; never checking runs every sample to
# max_depth. Sweeping C on depth-~20 forests put the minimum at 3-4.
_COMPRESS_EVERY = 4


def _node_depths(feature: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Depth of every node. Children are appended after their parent by the
    grower, so one forward pass suffices."""
    depth = np.zeros(feature.shape[0], dtype=np.intp)
    # repro-lint: disable=per-sample-loop — runs once per tree *compile*
    # (O(nodes), not O(samples)); the per-chunk hot path is the vectorised
    # predict below and never re-enters this.
    for i in range(feature.shape[0]):
        if feature[i] >= 0:
            depth[left[i]] = depth[i] + 1
            depth[right[i]] = depth[i] + 1
    return depth


def thread_scratch(cache: dict, n: int, make):
    """The calling thread's scratch for batches of up to ``n`` rows, kept
    in ``cache``; callers use its first ``n`` rows.

    Compiled models are shared by thread-hosted fleet shards, so scratch is
    per thread — one shared buffer would let one thread's forward overwrite
    another's mid-flight. The largest batch seen is kept: rebuilt
    (``make(n)``) only when this thread's batch outgrows it, so a fleet
    whose ticks alternate between full and tail chunk sizes reuses one
    buffer.
    """
    key = threading.get_ident()
    hit = cache.get(key)
    if hit is None or hit[0] < n:
        hit = cache[key] = (n, make(n))
    return hit[1]


class _Workspace:
    """Scratch for the frontier descent of up to ``n`` rows (every use
    slices its first rows).

    Rebuilt only when a batch outgrows it, so steady-state prediction
    (the monitor restoring same-length traces) reuses every buffer.
    """

    __slots__ = ("slot", "pos", "idx", "x", "thr", "slot_c", "pos_c", "keep", "fin")

    def __init__(self, n: int) -> None:
        self.slot = np.empty(n, dtype=np.intp)
        self.pos = np.empty(n, dtype=np.intp)
        self.idx = np.empty(n, dtype=np.intp)
        self.x = np.empty(n)
        self.thr = np.empty(n)
        self.slot_c = np.empty(n, dtype=np.intp)
        self.pos_c = np.empty(n, dtype=np.intp)
        self.keep = np.empty(n, dtype=bool)
        self.fin = np.empty(n, dtype=bool)


#: The arrays a tree's descent reads: each node's value and the doubled
#: slots (see the module docstring).
_ARRAYS = ("value", "_slot_gf", "_slot_thr", "_slot_child", "_slot_live",
           "_slot_value")


def _layout(feature, threshold, left, right, value, ids) -> dict:
    """The kernel arrays of one tree, or of many trees laid end to end.

    ``ids`` is each node's id within its own tree: leaves self-loop (both
    children point back at the leaf) with a ``+inf`` threshold, and the
    doubled slots store children ``[right, left]`` so the branch index is
    the ``<=`` result itself. Child ids stay local to their tree, so a
    tree of a pool is a plain slice.
    """
    is_leaf = feature < 0
    child = np.empty(2 * feature.shape[0], dtype=np.intp)
    child[0::2] = 2 * np.where(is_leaf, ids, right)
    child[1::2] = 2 * np.where(is_leaf, ids, left)
    return dict(
        value=value,
        _slot_gf=np.repeat(np.where(is_leaf, 0, feature), 2),
        _slot_thr=np.repeat(np.where(is_leaf, np.inf, threshold), 2),
        _slot_child=child,
        _slot_live=np.repeat(~is_leaf, 2),
        _slot_value=np.repeat(value, 2),
    )


class CompiledTree:
    """Contiguous-array form of one fitted CART tree.

    Built from per-node arrays (:func:`~repro.perf.compile_tree` reads them
    off a tree's ``_nodes``); the members of a pool
    (:func:`~repro.perf.compile_pool`) are views into the pool's arrays.
    ``predict`` takes a validated ``(n, d)`` float64 matrix — callers (the
    estimators' public ``predict``) own input checking.
    """

    __slots__ = ("value", "max_depth", "min_leaf_depth", "_slot_gf",
                 "_slot_thr", "_slot_child", "_slot_live", "_slot_value",
                 "_ws", "_pool", "_pool_index")

    def __init__(self, feature, threshold, left, right, value) -> None:
        """``feature`` (-1 at leaves), ``threshold``, ``left``/``right``
        (child node ids; ignored at leaves) and ``value`` per node, the root
        first and every child after its parent."""
        feature = np.asarray(feature, dtype=np.intp)
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        n = feature.shape[0]
        arrays = _layout(feature, np.asarray(threshold, dtype=np.float64),
                         left, right, np.asarray(value, dtype=np.float64),
                         np.arange(n, dtype=np.intp))
        depths = _node_depths(feature, left, right)
        self._adopt(arrays, 0, n, int(depths.max()) if n else 0,
                    int(depths[feature < 0].min()) if n else 0)
        self._pool = None
        self._pool_index = -1

    def _adopt(self, arrays: dict, a: int, b: int, max_depth: int,
               min_leaf_depth: int) -> None:
        """Take nodes ``[a, b)`` of ``arrays`` (a :func:`_layout`) as this
        tree's, as views."""
        self.value = arrays["value"][a:b]
        for name in _ARRAYS[1:]:
            setattr(self, name, arrays[name][2 * a:2 * b])
        self.max_depth = max_depth
        self.min_leaf_depth = min_leaf_depth
        self._ws: "dict[int, tuple[int, _Workspace]]" = {}

    @property
    def n_nodes(self) -> int:
        return int(self.value.shape[0])

    def _workspace(self, n: int) -> _Workspace:
        return thread_scratch(self._ws, n, _Workspace)

    def _descend(self, xt: np.ndarray, n: int, ws: _Workspace, out: np.ndarray) -> None:
        """Fill ``out[i]`` with the leaf value of transposed-flat ``xt``.

        ``xt`` is ``X.T.ravel()`` — feature-major, so the per-level value
        gather reads each feature's row in ascending sample order instead of
        striding across rows.
        """
        if self.max_depth == 0:  # root-only tree
            out[:] = self.value[0]
            return
        gather_base = self._slot_gf * n  # feature-row offsets for this batch
        thr2, child = self._slot_thr, self._slot_child
        live, val2 = self._slot_live, self._slot_value
        min_leaf, max_depth = self.min_leaf_depth, self.max_depth
        slot, pos = ws.slot, ws.pos
        slot[:n] = 0  # node 0 is the root; slot 0 is its even half
        pos[:n] = np.arange(n, dtype=np.intp)
        k = n
        level = 0
        while k:
            sk, posk = slot[:k], pos[:k]
            idxk, xk, tk = ws.idx[:k], ws.x[:k], ws.thr[:k]
            np.take(gather_base, sk, out=idxk)
            idxk += posk
            np.take(xt, idxk, out=xk)
            np.take(thr2, sk, out=tk)
            np.less_equal(xk, tk, out=idxk, casting="unsafe")
            idxk += sk  # slot + (x <= t): child pairs are [right, left]
            np.take(child, idxk, out=sk)
            level += 1
            if (level >= min_leaf and level % _COMPRESS_EVERY == 0) or level >= max_depth:
                keepk = ws.keep[:k]
                np.take(live, sk, out=keepk)
                k2 = int(np.count_nonzero(keepk))
                if k2 < k:
                    fink = ws.fin[:k]
                    np.logical_not(keepk, out=fink)
                    out[posk[fink]] = val2[sk[fink]]
                    if k2:
                        np.compress(keepk, sk, out=ws.slot_c[:k2])
                        np.compress(keepk, posk, out=ws.pos_c[:k2])
                        slot[:k2] = ws.slot_c[:k2]
                        pos[:k2] = ws.pos_c[:k2]
                    k = k2

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised frontier descent: one numpy step per tree level."""
        n, _ = X.shape
        record_predict("tree", "compiled", n)
        out = np.empty(n)
        if n == 0:
            return out
        xt = np.ascontiguousarray(X.T).ravel()
        self._descend(xt, n, self._workspace(n), out)
        return out


class CompiledTreeEnsemble:
    """Member trees sharing one descent workspace and one transposed batch.

    Trees descend one at a time: a single tree's slot arrays are small
    enough to stay cache-resident across the whole batch, which beats
    fusing all trees into one concatenated frontier whose node pool and
    per-pair state spill to last-level cache. The transpose of ``X`` and
    the scratch buffers are shared across members, so per-tree overhead is
    just the descent itself.
    """

    def __init__(self, trees: "list[CompiledTree]") -> None:
        if not trees:
            raise NotFittedError("cannot compile an empty ensemble")
        self.trees = trees
        self.n_trees = len(trees)
        self.max_depth = max(t.max_depth for t in trees)
        self._ws: "dict[int, tuple[int, _Workspace]]" = {}

    def _workspace(self, n: int) -> _Workspace:
        return thread_scratch(self._ws, n, _Workspace)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_samples)`` leaf values, one tree-row at a time."""
        n, _ = X.shape
        out = np.empty((self.n_trees, n))
        if n == 0:
            return out
        xt = np.ascontiguousarray(X.T).ravel()
        ws = self._workspace(n)
        for row, tree in zip(out, self.trees):
            tree._descend(xt, n, ws, row)
        return out


class CompiledForest(CompiledTreeEnsemble):
    """Bagged-mean reduction over the stacked leaf values."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        record_predict("forest", "compiled", X.shape[0])
        return self.leaf_values(X).mean(axis=0)


class CompiledBoosting(CompiledTreeEnsemble):
    """Shrinkage-sum reduction; stage accumulation replicates the reference
    (sequential) order so outputs match the object walk bit-for-bit."""

    def __init__(self, trees, init: float, learning_rate: float) -> None:
        super().__init__(trees)
        self.init = float(init)
        self.learning_rate = float(learning_rate)

    def predict(self, X: np.ndarray) -> np.ndarray:
        record_predict("boosting", "compiled", X.shape[0])
        values = self.leaf_values(X)
        out = np.full(X.shape[0], self.init)
        for row in values:
            out += self.learning_rate * row
        return out

    def staged(self, X: np.ndarray):
        """Yield the running prediction after each boosting stage."""
        values = self.leaf_values(X)
        out = np.full(X.shape[0], self.init)
        for row in values:
            out = out + self.learning_rate * row
            yield out.copy()
