"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import DecisionTreeRegressor, rmse


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
