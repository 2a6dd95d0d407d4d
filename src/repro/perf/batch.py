"""Cross-run batched tree inference for the fleet front-end.

A fleet tick holds one pending chunk per node, and every *static* run owns
its own per-run ResModel tree (StaticTRR fits one per observed trace).
Calling ``predict`` once per node pays the frontier-descent setup — the
transpose, the workspace, the per-level Python dispatch — N times on small
batches. :class:`TreeStack` concatenates the trees' slot arrays into one
pool (per-tree root offsets, shifted child indices) and descends the
combined batch in a single frontier, so the per-level Python cost is paid
once for the whole fleet.

Numerical contract: the stacked descent performs exactly the comparisons
of each member tree on its own rows, so per-run outputs are bit-identical
to ``tree.predict(rows)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from .compile import compile_tree
from .flat_tree import _COMPRESS_EVERY, CompiledTree, _Workspace, thread_scratch
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


class TreeStack:
    """Heterogeneous compiled trees fused into one frontier descent.

    Each member tree predicts its *own* row batch; the stacked descent
    starts every (tree, row) pair at that tree's root slot inside one
    concatenated slot pool.
    """

    def __init__(self, trees: "list[CompiledTree]") -> None:
        if not trees:
            raise NotFittedError("TreeStack needs at least one compiled tree")
        self.trees = list(trees)
        n_slots = [t._slot_thr.shape[0] for t in self.trees]
        offsets = np.concatenate([[0], np.cumsum(n_slots)[:-1]]).astype(np.intp)
        #: slot index of each member tree's root in the concatenated pool.
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
            for sl, tree in zip(slices, self.trees):
                sl[:] = tree.value[0]
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
