"""Equivalence suite for the compiled flat-array inference layer.

The compiled predictors are only allowed to be *fast* — every output must
match the reference implementation (the seed's per-sample object walk /
unfused MLP forward). Tree-family paths must be bit-identical; the fused
MLP reassociates its affine folds, so it gets a tight float tolerance.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    RandomForestRegressor,
)
from repro.perf import (
    CompiledForest,
    CompiledLSTM,
    CompiledMLP,
    CompiledTree,
    compile_forest,
    compile_mlp,
    compile_model,
    compile_tree,
    flat_mlp,
    precompile,
)


@st.composite
def tree_problems(draw):
    """A seeded (train, query) regression problem plus tree hyperparameters.

    Queries are drawn wider than the training box so descents exercise
    out-of-range thresholds, and small sizes force degenerate shapes.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(5, 120))
    d = draw(st.integers(1, 6))
    max_depth = draw(st.sampled_from([1, 2, 5, None]))
    min_leaf = draw(st.integers(1, 4))
    n_query = draw(st.integers(1, 80))
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = np.sin(2.0 * X[:, 0]) + rng.normal(0.0, 0.3, size=n)
    Xq = rng.uniform(-1.3, 1.3, size=(n_query, d))
    return X, y, Xq, max_depth, min_leaf


class TestTreeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(tree_problems())
    def test_tree_bit_identical(self, problem):
        X, y, Xq, max_depth, min_leaf = problem
        tree = DecisionTreeRegressor(max_depth=max_depth, min_samples_leaf=min_leaf)
        tree.fit(X, y)
        assert np.array_equal(tree.predict(Xq), tree._predict_walk(Xq))

    @settings(max_examples=15, deadline=None)
    @given(tree_problems())
    def test_forest_bit_identical(self, problem):
        X, y, Xq, max_depth, min_leaf = problem
        forest = RandomForestRegressor(
            n_estimators=4, max_depth=max_depth, min_samples_leaf=min_leaf,
            random_state=0,
        ).fit(X, y)
        assert np.array_equal(forest.predict(Xq), forest._predict_walk(Xq))

    @settings(max_examples=15, deadline=None)
    @given(tree_problems())
    def test_boosting_bit_identical(self, problem):
        X, y, Xq, max_depth, _ = problem
        boost = GradientBoostingRegressor(
            n_estimators=4, max_depth=max_depth or 3, random_state=0,
        ).fit(X, y)
        assert np.array_equal(boost.predict(Xq), boost._predict_walk(Xq))

    def test_root_only_tree(self, rng):
        # Constant target: no split improves SSE, so the tree is one leaf.
        X = rng.uniform(size=(30, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(30, 2.5))
        compiled = compile_tree(tree)
        assert compiled.max_depth == 0
        Xq = rng.uniform(size=(7, 3))
        np.testing.assert_array_equal(tree.predict(Xq), np.full(7, 2.5))
        assert np.array_equal(tree.predict(Xq), tree._predict_walk(Xq))

    def test_single_sample_batch(self, rng):
        X = rng.uniform(size=(60, 2))
        tree = DecisionTreeRegressor().fit(X, X[:, 0])
        q = rng.uniform(size=(1, 2))
        assert np.array_equal(tree.predict(q), tree._predict_walk(q))

    def test_batch_size_change_reuses_estimator(self, rng):
        # The cached workspace is keyed by batch size; switching sizes must
        # rebuild it, not corrupt the frontier.
        X = rng.uniform(size=(100, 3))
        forest = RandomForestRegressor(n_estimators=3, random_state=1).fit(X, X[:, 0])
        for nq in (50, 3, 64, 1, 50):
            Xq = rng.uniform(size=(nq, 3))
            assert np.array_equal(forest.predict(Xq), forest._predict_walk(Xq))

    def test_nan_feature_follows_walk(self, rng):
        # A failed `<=` sends the object walk right; the kernel must agree.
        X = rng.uniform(size=(80, 2))
        tree = DecisionTreeRegressor().fit(X, X[:, 0] + X[:, 1])
        Xq = rng.uniform(size=(10, 2))
        Xq[3, 0] = np.nan
        Xq[7, 1] = np.nan
        assert np.array_equal(tree.predict(Xq), tree._predict_walk(Xq))


class TestEnsembleReductions:
    def test_staged_predict_matches_walk_stages(self, rng):
        X = rng.uniform(size=(150, 4))
        y = X @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(0, 0.1, 150)
        boost = GradientBoostingRegressor(n_estimators=6, random_state=2).fit(X, y)
        Xq = rng.uniform(size=(40, 4))
        # Reference stages: sequential shrinkage accumulation of tree walks.
        expected = np.full(40, boost.init_)
        stages = list(boost.staged_predict(Xq))
        assert len(stages) == 6
        for tree, stage in zip(boost.estimators_, stages):
            expected = expected + boost.learning_rate * tree._predict_walk(Xq)
            assert np.array_equal(stage, expected)

    def test_leaf_values_shape(self, rng):
        X = rng.uniform(size=(80, 3))
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, X[:, 0])
        values = compile_forest(forest).leaf_values(rng.uniform(size=(11, 3)))
        assert values.shape == (5, 11)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(NotFittedError):
            CompiledForest([])


class TestMLPEquivalence:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_fused_forward_close(self, rng, activation):
        X = rng.normal(size=(200, 3)) * np.array([1e6, 1.0, 1e-3])
        y = X[:, 1] + rng.normal(0, 0.1, 200)
        mlp = MLPRegressor(hidden_layer_sizes=(16, 8), activation=activation,
                           max_iter=150, random_state=0).fit(X, y)
        Xq = rng.normal(size=(50, 3)) * np.array([1e6, 1.0, 1e-3])
        ref = mlp._predict_reference(Xq)
        np.testing.assert_allclose(mlp.predict(Xq), ref, rtol=1e-10, atol=1e-9)

    def test_multi_output_shape_and_value(self, rng):
        X = rng.normal(size=(120, 4))
        Y = np.column_stack([X[:, 0], X[:, 1] * 2.0])
        mlp = MLPRegressor(hidden_layer_sizes=8, max_iter=100, random_state=0).fit(X, Y)
        out = mlp.predict(X)
        assert out.shape == (120, 2)
        np.testing.assert_allclose(out, mlp._predict_reference(X), rtol=1e-10, atol=1e-9)

    def test_buffer_reuse_across_batches(self, rng):
        X = rng.normal(size=(100, 2))
        mlp = MLPRegressor(hidden_layer_sizes=8, max_iter=80, random_state=0)
        mlp.fit(X, X[:, 0])
        for nq in (30, 7, 30, 100):
            Xq = rng.normal(size=(nq, 2))
            np.testing.assert_allclose(
                mlp.predict(Xq), mlp._predict_reference(Xq), rtol=1e-10, atol=1e-9
            )

    def test_alternating_batch_sizes_build_scratch_once(self, rng, monkeypatch):
        """A fleet whose ticks alternate full and tail chunks (128 and 32
        rows) builds its hidden-layer scratch once, and the row views
        predict bitwise what a freshly compiled model does."""
        X = rng.normal(size=(100, 3))
        mlp = MLPRegressor(hidden_layer_sizes=(8, 4), max_iter=60,
                           random_state=0).fit(X, X[:, 0])
        batches = [rng.normal(size=(n, 3)) for n in (128, 32, 128, 32)]
        want = [compile_mlp(mlp).predict(Xq) for Xq in batches]
        compiled = compile_mlp(mlp)
        made = []
        real = flat_mlp.thread_scratch

        def counting(cache, n, make):
            return real(cache, n, lambda k: made.append(k) or make(k))

        monkeypatch.setattr(flat_mlp, "thread_scratch", counting)
        got = [compiled.predict(Xq) for Xq in batches]
        assert made == [128]
        for w, g in zip(want, got):
            assert w.tobytes() == g.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "tree", "forest"])
def test_shared_model_is_thread_safe(rng, kind):
    """Thread-hosted fleet shards share one fitted model: concurrent
    same-size predictions must not share scratch buffers."""
    X = rng.normal(size=(600, 6))
    y = X.sum(axis=1) + np.sin(3 * X[:, 0])
    model = {
        "mlp": lambda: MLPRegressor(hidden_layer_sizes=(32, 32), max_iter=20,
                                    random_state=0),
        "tree": lambda: DecisionTreeRegressor(max_depth=10),
        "forest": lambda: RandomForestRegressor(n_estimators=3, random_state=0),
    }[kind]().fit(X, y)
    queries = [rng.normal(size=(200, 6)) for _ in range(4)]
    want = [model.predict(q).copy() for q in queries]
    failures = []

    def hammer(k):
        try:
            for _ in range(100):
                if not np.array_equal(model.predict(queries[k]), want[k]):
                    failures.append(k)
        except Exception as exc:  # a torn workspace can also raise
            failures.append(exc)

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-forward
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


class TestCacheInvalidation:
    def test_refit_clears_compiled_tree(self, rng):
        X = rng.uniform(size=(80, 2))
        tree = DecisionTreeRegressor().fit(X, X[:, 0])
        Xq = rng.uniform(size=(20, 2))
        tree.predict(Xq)  # build + cache
        assert tree._compiled is not None
        tree.fit(X, -X[:, 0])  # retrain on a different target
        assert tree._compiled is None
        assert np.array_equal(tree.predict(Xq), tree._predict_walk(Xq))

    def test_warm_start_clears_compiled_mlp(self, rng):
        X = rng.normal(size=(100, 2))
        mlp = MLPRegressor(hidden_layer_sizes=8, max_iter=60, random_state=0)
        mlp.fit(X, X[:, 0])
        mlp.predict(X)
        assert mlp._compiled is not None
        mlp.partial_fit(X, X[:, 0], n_steps=20)
        np.testing.assert_allclose(
            mlp.predict(X), mlp._predict_reference(X), rtol=1e-10, atol=1e-9
        )


class TestCompileAPI:
    def test_compile_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            compile_tree(DecisionTreeRegressor())
        with pytest.raises(NotFittedError):
            compile_mlp(MLPRegressor())

    def test_compile_model_dispatch(self, rng):
        X = rng.uniform(size=(50, 2))
        y = X[:, 0]
        tree = DecisionTreeRegressor().fit(X, y)
        mlp = MLPRegressor(hidden_layer_sizes=4, max_iter=30, random_state=0).fit(X, y)
        assert isinstance(compile_model(tree), CompiledTree)
        assert isinstance(compile_model(mlp), CompiledMLP)

    def test_compile_model_unsupported_raises(self, rng):
        X = rng.uniform(size=(50, 2))
        lin = LinearRegression().fit(X, X[:, 0])
        with pytest.raises(NotFittedError):
            compile_model(lin)

    def test_precompile_counts_and_skips(self, rng):
        X = rng.uniform(size=(50, 2))
        y = X[:, 0]
        tree = DecisionTreeRegressor().fit(X, y)
        lin = LinearRegression().fit(X, y)
        unfitted = DecisionTreeRegressor()
        assert precompile(tree, lin, unfitted) == 1
        assert tree._compiled is not None


# ------------------------------------------------- chunking-invariance pins
# The compiled kernels are built directly from random parameters (no
# training): the pins are about the forward-pass float ordering, not fits.
def _make_mlp(rng, d, hidden, n_out):
    """A compiled MLP with random folded parameters."""
    dims = [d, *hidden, n_out]
    weights = [rng.normal(0.0, 0.7, size=(a, b))
               for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0.0, 0.3, size=b) for b in dims[1:]]
    return CompiledMLP(
        weights=weights, biases=biases,
        x_mean=rng.normal(0.0, 1.0, size=d),
        x_scale=rng.uniform(0.5, 2.0, size=d),
        y_mean=rng.normal(0.0, 5.0, size=n_out),
        y_scale=rng.uniform(0.5, 3.0, size=n_out),
        activation="relu", single_output=(n_out == 1),
    )


def _make_lstm(rng, d, hidden, layers, window):
    """A compiled LSTM segment kernel with random folded parameters."""
    params = []
    for layer in range(layers):
        d_in = d if layer == 0 else hidden
        params.append({
            "W": rng.normal(0.0, 0.5, size=(d_in, 4 * hidden)),
            "U": rng.normal(0.0, 0.5, size=(hidden, 4 * hidden)),
            "b": rng.normal(0.0, 0.1, size=4 * hidden),
        })
    return CompiledLSTM(
        params=params,
        head_w=rng.normal(0.0, 0.5, size=hidden),
        head_b=float(rng.normal(0.0, 1.0)),
        x_mean=rng.normal(0.0, 1.0, size=d),
        x_scale=rng.uniform(0.5, 2.0, size=d),
        y_mean=float(rng.normal(50.0, 5.0)),
        y_scale=float(rng.uniform(0.5, 3.0)),
        window=window,
    )


@st.composite
def mlp_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    d = draw(st.integers(1, 8))
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    n_out = draw(st.integers(1, 3))
    n = draw(st.integers(1, 64))
    cut = draw(st.integers(0, n))
    return seed, d, hidden, n_out, n, cut


@st.composite
def lstm_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    d = draw(st.integers(1, 6))
    hidden = draw(st.integers(1, 10))
    layers = draw(st.integers(1, 2))
    window = draw(st.integers(2, 8))
    m = draw(st.integers(1, 24))
    cut = draw(st.integers(1, m))
    return seed, d, hidden, layers, window, m, cut


class TestCompiledMLPChunking:
    @settings(max_examples=40, deadline=None)
    @given(mlp_cases())
    def test_default_tier_chunking_bitwise(self, case):
        """Regression pin: the einsum forward keeps chunking bit-identical."""
        seed, d, hidden, n_out, n, cut = case
        rng = np.random.default_rng(seed)
        exact = _make_mlp(rng, d, hidden, n_out)
        X = rng.normal(0.0, 1.5, size=(n, d))
        whole = exact.predict(X)
        parts = [p for p in (X[:cut], X[cut:]) if p.shape[0]]
        chunked = np.concatenate([exact.predict(p) for p in parts])
        assert np.array_equal(whole, chunked)


class TestCompiledLSTMSegments:
    @settings(max_examples=40, deadline=None)
    @given(lstm_cases())
    def test_default_tier_segment_split_bitwise(self, case):
        """Regression pin: the einsum tier is bitwise segment-invariant —
        the property ``run_chunk`` vs ``step`` bit-identity rests on."""
        seed, d, hidden, layers, window, m, cut = case
        rng = np.random.default_rng(seed)
        exact = _make_lstm(rng, d, hidden, layers, window)
        rows = rng.normal(0.0, 1.0, size=(m + window - 1, d))
        whole = exact.forecast(rows, m)
        first = exact.forecast(rows[:cut + window - 1], cut)
        parts = [first]
        if cut < m:
            parts.append(exact.forecast(rows[cut:], m - cut))
        assert np.array_equal(whole, np.concatenate(parts))
