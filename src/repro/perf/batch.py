"""Cross-run batched tree inference for the fleet front-end.

A fleet tick holds one pending chunk per node, and every *static* run owns
its own per-run ResModel tree (StaticTRR fits one per observed trace).
Calling ``predict`` once per node pays the frontier-descent setup — the
transpose, the workspace, the per-level Python dispatch — N times on small
batches. :class:`TreeStack` concatenates the trees' slot arrays into one
pool (per-tree root offsets, shifted child indices) and descends the
combined batch in a single frontier, so the per-level Python cost is paid
once for the whole fleet.

Trees fitted together (:func:`repro.ml.tree.fit_trees`) are compiled
together too: :func:`compile_pool` lays every tree's nodes end to end once,
each member is a view of that pool, and a stack of the pool's members in
pool order takes the pool's arrays instead of concatenating its members'.

Numerical contract: the stacked descent performs exactly the comparisons
of each member tree on its own rows, so per-run outputs are bit-identical
to ``tree.predict(rows)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from .compile import compile_tree
from .flat_tree import (
    _COMPRESS_EVERY,
    CompiledTree,
    _layout,
    _Workspace,
    thread_scratch,
)
from .telemetry import record_predict


def single_tree_of(est) -> "CompiledTree | None":
    """The :class:`CompiledTree` form of a fitted estimator, or None.

    Returns the cached compiled predictor when present, building (and
    caching) it for fitted single trees; ensembles and non-tree estimators
    have no single-tree form and yield None — callers fall back to
    per-model ``predict``.
    """
    compiled = getattr(est, "_compiled", None)
    if isinstance(compiled, CompiledTree):
        return compiled
    if getattr(est, "_nodes", None) is not None:
        est._compiled = compile_tree(est)
        return est._compiled
    return None


class _Pool:
    """The kernel arrays of trees laid end to end (see :func:`compile_pool`).

    Members point at their pool; the pool holds no member, so a pool and
    its trees form no reference cycle."""

    __slots__ = ("arrays", "node_offsets", "counts", "max_depth",
                 "min_leaf_depth")

    def __init__(self, arrays, node_offsets, counts, max_depth,
                 min_leaf_depth) -> None:
        self.arrays = arrays
        self.node_offsets = node_offsets
        self.counts = counts
        self.max_depth = max_depth
        self.min_leaf_depth = min_leaf_depth


def compile_pool(feature, threshold, left, right, value, depth, counts
                 ) -> "list[CompiledTree]":
    """Compile many trees at once from their nodes laid end to end.

    Tree ``i`` owns the next ``counts[i]`` entries of the per-node arrays:
    ``feature`` (-1 at leaves), ``threshold``, ``left``/``right`` (child
    ids within the tree, root 0; ignored at leaves), ``value`` and
    ``depth``. Returns one
    :class:`CompiledTree` per tree, each a view into one shared layout, so
    the pass costs a few array operations however many trees it holds; a
    :class:`TreeStack` of the members in this order reuses the layout.
    """
    counts = np.asarray(counts, dtype=np.intp)
    offsets = np.zeros(counts.shape[0], dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    ids = np.arange(feature.shape[0], dtype=np.intp) - np.repeat(offsets, counts)
    arrays = _layout(feature, threshold, left, right, value, ids)
    max_depths = np.maximum.reduceat(depth, offsets).tolist()
    leaf_depth = np.where(feature < 0, depth, np.iinfo(np.intp).max)
    min_leaf_depths = np.minimum.reduceat(leaf_depth, offsets).tolist()
    pool = _Pool(arrays, offsets, counts, max(max_depths), min(min_leaf_depths))
    trees = []
    for i, (a, b) in enumerate(zip(offsets.tolist(),
                                   (offsets + counts).tolist())):
        tree = CompiledTree.__new__(CompiledTree)
        tree._adopt(arrays, a, b, max_depths[i], min_leaf_depths[i])
        tree._pool = pool
        tree._pool_index = i
        trees.append(tree)
    return trees


def _whole_pool(trees) -> "_Pool | None":
    """The pool whose members ``trees`` are, all of them in pool order."""
    pool = trees[0]._pool
    if pool is None or len(trees) != pool.counts.shape[0]:
        return None
    for i, tree in enumerate(trees):
        if tree._pool is not pool or tree._pool_index != i:
            return None
    return pool


class TreeStack:
    """Heterogeneous compiled trees fused into one frontier descent.

    Each member tree predicts its *own* row batch; the stacked descent
    starts every (tree, row) pair at that tree's root slot inside one
    concatenated slot pool. The members of one :func:`compile_pool`, in
    pool order, already lie end to end, so their stack reads the pool.
    """

    def __init__(self, trees: "list[CompiledTree]") -> None:
        if not trees:
            raise NotFittedError("TreeStack needs at least one compiled tree")
        self.trees = list(trees)
        pool = _whole_pool(self.trees)
        if pool is not None:
            slots = pool.arrays
            #: slot index of each member tree's root in the concatenated pool.
            self.root_slots = 2 * pool.node_offsets
            self._slot_gf = slots["_slot_gf"]
            self._slot_thr = slots["_slot_thr"]
            self._slot_live = slots["_slot_live"]
            self._slot_value = slots["_slot_value"]
            # Pool child slots are local to their tree: shift by its root.
            self._slot_child = slots["_slot_child"] + np.repeat(
                self.root_slots, 2 * pool.counts)
            self.max_depth = pool.max_depth
            self.min_leaf_depth = pool.min_leaf_depth
        else:
            n_slots = [t._slot_thr.shape[0] for t in self.trees]
            offsets = np.concatenate([[0], np.cumsum(n_slots)[:-1]]).astype(np.intp)
            self.root_slots = offsets
            self._slot_gf = np.concatenate([t._slot_gf for t in self.trees])
            self._slot_thr = np.concatenate([t._slot_thr for t in self.trees])
            self._slot_live = np.concatenate([t._slot_live for t in self.trees])
            self._slot_value = np.concatenate([t._slot_value for t in self.trees])
            self._slot_child = np.concatenate(
                [t._slot_child + off for t, off in zip(self.trees, offsets)]
            )
            self.max_depth = max(t.max_depth for t in self.trees)
            self.min_leaf_depth = min(t.min_leaf_depth for t in self.trees)
        self._ws: "dict[int, tuple[int, _Workspace]]" = {}

    def _workspace(self, n: int) -> _Workspace:
        return thread_scratch(self._ws, n, _Workspace)

    def predict(self, parts: "list[np.ndarray]") -> "list[np.ndarray]":
        """Per-tree predictions for per-tree row batches, in one descent.

        ``parts[i]`` is the validated ``(n_i, d)`` batch of ``trees[i]``;
        the returned list holds each tree's predictions for its own rows,
        bit-identical to ``trees[i].predict(parts[i])``.
        """
        if len(parts) != len(self.trees):
            raise NotFittedError(
                f"TreeStack.predict got {len(parts)} batches for "
                f"{len(self.trees)} trees"
            )
        ns = [p.shape[0] for p in parts]
        bounds = np.cumsum(ns)[:-1]
        n = int(sum(ns))
        record_predict("tree", "compiled", n)
        out = np.empty(n)
        slices = list(np.split(out, bounds))  # views — filled in place
        if n == 0:
            return slices
        if self.max_depth == 0:  # every member is a root-only tree
            out[:] = self._slot_value[self.root_slots].repeat(ns)
            return slices
        X = np.vstack(parts)
        xt = np.ascontiguousarray(X.T).ravel()
        ws = self._workspace(n)
        self._descend(xt, n, np.repeat(self.root_slots, ns), ws, out)
        return slices

    def _descend(self, xt, n, init_slots, ws: _Workspace, out) -> None:
        """The doubled-slot frontier kernel over the concatenated pool.

        Identical to ``CompiledTree._descend`` except the frontier starts
        at per-pair root slots instead of slot 0; members shallower than
        ``max_depth`` spin harmlessly in their leaf self-loops until the
        next compaction retires them.
        """
        gather_base = self._slot_gf * n
        thr2, child = self._slot_thr, self._slot_child
        live, val2 = self._slot_live, self._slot_value
        min_leaf, max_depth = self.min_leaf_depth, self.max_depth
        slot, pos = ws.slot, ws.pos
        slot[:n] = init_slots
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
