"""Tests for the CART regression tree and its stacked fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, ValidationError
from repro.ml import DecisionTreeRegressor, rmse
from repro.ml.tree import fit_trees
from repro.perf import TreeStack


class TestDecisionTree:
    def test_memorises_training_data_unbounded(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        m = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(m.predict(X), y, atol=1e-12)

    def test_learns_step_function(self, rng):
        X = rng.uniform(0, 1, size=(400, 1))
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        m = DecisionTreeRegressor(max_depth=2).fit(X, y)
        Xq = np.array([[0.1], [0.9]])
        np.testing.assert_allclose(m.predict(Xq), [0.0, 10.0], atol=0.5)

    def test_max_depth_limits_depth(self, rng):
        X = rng.normal(size=(300, 4))
        y = rng.normal(size=300)
        m = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert m.depth_ <= 3

    def test_min_samples_leaf(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        m = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        # With >= 20 samples per leaf, at most 5 leaves from 100 samples.
        assert m.n_leaves_ <= 5

    def test_constant_target_single_leaf(self, rng):
        X = rng.normal(size=(50, 2))
        m = DecisionTreeRegressor().fit(X, np.full(50, 3.0))
        assert m.n_leaves_ == 1
        np.testing.assert_allclose(m.predict(X), 3.0)

    def test_constant_feature_ignored(self, rng):
        X = np.column_stack([np.ones(80), rng.uniform(0, 1, 80)])
        y = (X[:, 1] > 0.5).astype(float)
        m = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert rmse(y, m.predict(X)) < 0.3

    def test_better_than_mean_on_nonlinear(self, rng):
        X = rng.uniform(-2, 2, size=(500, 1))
        y = np.sin(3 * X[:, 0])
        m = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert rmse(y, m.predict(X)) < rmse(y, np.full(500, y.mean()))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_feature_subset_reproducible(self, rng):
        X = rng.normal(size=(100, 6))
        y = X[:, 0] * 2.0
        a = DecisionTreeRegressor(max_features=3, random_state=5).fit(X, y).predict(X)
        b = DecisionTreeRegressor(max_features=3, random_state=5).fit(X, y).predict(X)
        np.testing.assert_allclose(a, b)

    def test_generator_built_only_for_feature_subsets(self, rng, monkeypatch):
        """A tree over every feature never draws, so it seeds no generator
        (seeding from None reads OS entropy on every fit)."""
        from repro.ml import tree as tree_module

        built = []
        real = tree_module.as_generator

        def spy(seed):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(tree_module, "as_generator", spy)
        X = rng.normal(size=(100, 6))
        y = X[:, 0] * 2.0
        DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert built == []
        subset = DecisionTreeRegressor(max_features=3, random_state=5).fit(X, y)
        assert built == [5]  # once per fit, not once per split
        monkeypatch.setattr(tree_module, "as_generator", real)
        again = DecisionTreeRegressor(max_features=3, random_state=5).fit(X, y)
        np.testing.assert_array_equal(subset.predict(X), again.predict(X))


class TestNonFiniteInputs:
    """A NaN feature used to split at threshold ``nan``, leaving an empty
    left leaf whose value was ``nan``."""

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, rng, where, bad):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        (X if where == "X" else y)[5] = bad
        with pytest.raises(ValidationError, match="finite"):
            DecisionTreeRegressor(min_samples_leaf=1, max_depth=2).fit(X, y)

    @pytest.mark.parametrize("below, above", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        (1e308, 1.5e308),
    ], ids=["adjacent-doubles", "overflowing-midpoint"])
    def test_a_split_always_separates_its_sides(self, below, above):
        """Where the midpoint of two consecutive values rounds onto the
        upper one (or overflows), the threshold is the lower one: the
        per-tree fit used to recurse on the same rows without end, or leave
        an empty leaf whose value was ``nan`` at bounded depth."""
        X = np.array([[below], [above], [-1.0]])
        y = np.array([0.0, 1.0, 5.0])
        for max_depth in (None, 2):
            tree = DecisionTreeRegressor(max_depth=max_depth).fit(X, y)
            (stacked,) = fit_trees([X], [y], max_depth=max_depth)
            assert _preorder(stacked) == _preorder(tree)
            np.testing.assert_array_equal(tree.predict(X), y)
            assert all(np.isfinite(node.value) for node in tree._nodes)

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_stacked_fit_rejects_non_finite(self, rng, where):
        Xs = [rng.normal(size=(20, 3)) for _ in range(3)]
        ys = [rng.normal(size=20) for _ in range(3)]
        (Xs if where == "X" else ys)[1][4] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            fit_trees(Xs, ys, max_depth=2)

    def test_stacked_fit_rejects_malformed_sets(self, rng):
        with pytest.raises(ValidationError):
            fit_trees([rng.normal(size=(5, 2))], [rng.normal(size=4)])
        with pytest.raises(ValidationError):
            fit_trees([np.empty((0, 2))], [np.empty(0)])
        with pytest.raises(ValidationError):
            fit_trees([rng.normal(size=(5, 2))], [])


def _preorder(tree) -> list:
    """A tree's nodes as ``(feature, threshold, value)`` in preorder (the
    stacked fit numbers its nodes in level order)."""
    out = []

    def walk(i):
        node = tree._nodes[i]
        out.append((node.feature, node.threshold if node.feature >= 0 else None,
                    node.value))
        if node.feature >= 0:
            walk(node.left)
            walk(node.right)

    walk(0)
    return out


@st.composite
def tree_sets(draw):
    """Training sets fitted in one pass: 1-200 rows (some fewer than two
    minimum leaves), continuous or heavily tied features, constant or
    rounded targets, and mixed widths."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.one_of(st.integers(1, 8), st.integers(1, 200)))
        d = draw(st.sampled_from([1, 3, 10, 16]))
        kind = draw(st.sampled_from(["normal", "tied", "binary"]))
        if kind == "normal":
            X = rng.normal(size=(n, d))
        elif kind == "tied":
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.integers(0, 2, size=(n, d)) * 1e3
        target = draw(st.sampled_from(["normal", "constant", "rounded"]))
        if target == "constant":
            y = np.full(n, draw(st.floats(-1e3, 1e3)))
        else:
            y = rng.normal(scale=50.0, size=n)
            if target == "rounded":
                y = np.round(y, -1)
        sets.append((X, y))
    return sets


class TestStackedFit:
    @settings(max_examples=60, deadline=None)
    @given(sets=tree_sets(), max_depth=st.sampled_from([None, 1, 4]),
           min_leaf=st.sampled_from([1, 4]),
           min_split=st.sampled_from([2, 9]))
    def test_equals_each_trees_own_fit(self, sets, max_depth, min_leaf,
                                       min_split):
        """Split features, thresholds and node values bitwise, so
        predictions bitwise, both alone and through a stack of each
        width's trees, which reads the width's pool."""
        trees = fit_trees(
            [X for X, _ in sets], [y for _, y in sets], max_depth=max_depth,
            min_samples_split=min_split, min_samples_leaf=min_leaf)
        rng = np.random.default_rng(len(sets))
        queries = []
        for (X, y), tree in zip(sets, trees):
            alone = DecisionTreeRegressor(
                max_depth=max_depth, min_samples_split=min_split,
                min_samples_leaf=min_leaf).fit(X, y)
            assert _preorder(tree) == _preorder(alone)
            assert tree.n_features_ == X.shape[1]
            Xq = np.vstack([X, rng.normal(scale=2.0, size=(9, X.shape[1]))])
            queries.append(Xq)
            want = alone.predict(Xq)
            np.testing.assert_array_equal(tree.predict(Xq), want)
            np.testing.assert_array_equal(tree._predict_walk(Xq), want)
        widths = {}
        for i, (X, _) in enumerate(sets):
            widths.setdefault(X.shape[1], []).append(i)
        for members in widths.values():
            stack = TreeStack([trees[i]._compiled for i in members])
            pool = trees[members[0]]._compiled._pool
            assert stack._slot_thr is pool.arrays["_slot_thr"]  # no copy
            for i, part in zip(members,
                               stack.predict([queries[i] for i in members])):
                np.testing.assert_array_equal(part, trees[i].predict(queries[i]))

    def test_tied_scores_take_the_earliest_split(self):
        """Mirrored targets score the first and the last split of a feature
        bitwise equal, and two equal features score alike: the earliest
        row, then the earliest feature, wins."""
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        trees = fit_trees([X, X[:, :1]], [y, y], min_samples_leaf=1)
        for Xi, tree in zip((X, X[:, :1]), trees):
            alone = DecisionTreeRegressor(min_samples_leaf=1).fit(Xi, y)
            assert _preorder(tree) == _preorder(alone)
            assert (tree._nodes[0].feature, tree._nodes[0].threshold) == (0, 0.5)

    def test_deep_tree_level_order(self, rng):
        """A 179-row depth-4 tree (a long static run's ResModel shape)."""
        X = rng.normal(size=(179, 10))
        y = X[:, 0] * 3.0 + rng.normal(size=179)
        (tree,) = fit_trees([X], [y], max_depth=4, min_samples_leaf=4)
        alone = DecisionTreeRegressor(max_depth=4, min_samples_leaf=4).fit(X, y)
        assert _preorder(tree) == _preorder(alone)
        assert tree.depth_ == alone.depth_ == 4
        assert tree.n_leaves_ == alone.n_leaves_
        depths = {0: 0}
        for i, node in enumerate(tree._nodes):  # children follow parents
            if node.feature >= 0:
                assert i < node.left < node.right
                depths[node.left] = depths[node.right] = depths[i] + 1
        assert list(depths.values()) == sorted(depths.values())

    def test_root_only_sets(self, rng):
        """Sets too small to split (the serve-wide ResModel: five readings
        against two minimum leaves of four) fit as their means."""
        Xs = [rng.normal(size=(n, 10)) for n in (4, 5, 5, 7)]
        ys = [rng.normal(size=X.shape[0]) for X in Xs]
        trees = fit_trees(Xs, ys, max_depth=4, min_samples_leaf=4)
        for X, y, tree in zip(Xs, ys, trees):
            assert len(tree._nodes) == 1
            assert tree._nodes[0].value == y.mean()
            np.testing.assert_array_equal(tree.predict(X), np.full(len(y), y.mean()))
        parts = TreeStack([t._compiled for t in trees]).predict(Xs)
        for y, part in zip(ys, parts):
            np.testing.assert_array_equal(part, np.full(len(y), y.mean()))
