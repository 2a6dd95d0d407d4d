"""Tests for the LSTM/GRU regressors (central-difference gradient check included)."""

import numpy as np
import pytest

from repro.errors import NotFittedError, ValidationError
from repro.ml import GRURegressor, LSTMRegressor, rmse


@pytest.fixture()
def cumsum_sequences(rng):
    """Sequences whose per-step label is the running sum of feature 0 —
    solvable only by carrying state across time."""
    X = rng.normal(size=(300, 6, 3))
    Y = X[:, :, 0].cumsum(axis=1)
    return X, Y


@pytest.mark.parametrize("cls", [LSTMRegressor, GRURegressor])
class TestRecurrentCommon:
    def test_learns_temporal_dependency(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=8, num_layers=1, max_iter=400, random_state=0)
        m.fit(X[:220], Y[:220])
        pred = m.predict(X[220:], return_sequences=True)
        trivial = rmse(Y[220:].ravel(), np.zeros(Y[220:].size))
        assert rmse(Y[220:].ravel(), pred.ravel()) < trivial * 0.4

    def test_last_step_labels(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=8, num_layers=1, max_iter=300, random_state=0)
        m.fit(X[:200], Y[:200, -1])
        pred = m.predict(X[200:])
        assert pred.shape == (100,)
        trivial = rmse(Y[200:, -1], np.full(100, Y[:200, -1].mean()))
        assert rmse(Y[200:, -1], pred) < trivial

    def test_deterministic_given_seed(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        a = cls(max_iter=50, random_state=3).fit(X[:50], Y[:50]).predict(X[50:60])
        b = cls(max_iter=50, random_state=3).fit(X[:50], Y[:50]).predict(X[50:60])
        np.testing.assert_allclose(a, b)

    def test_rejects_2d_input(self, cls):
        with pytest.raises(ValidationError):
            cls().fit(np.ones((10, 3)), np.ones(10))

    def test_rejects_bad_label_shape(self, cls):
        with pytest.raises(ValidationError):
            cls().fit(np.ones((10, 4, 2)), np.ones((10, 3)))
        with pytest.raises(ValidationError):
            cls().fit(np.ones((10, 4, 2)), np.ones(7))

    @pytest.mark.parametrize("bad", [
        dict(batch_size=0), dict(batch_size=-3), dict(lr=0.0), dict(lr=-1e-3),
        dict(lr=np.nan), dict(clip=0.0), dict(clip=-5.0), dict(alpha=-1e-6),
    ], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
    def test_rejects_bad_hyperparameters(self, cls, bad):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            cls(**bad)

    def test_accepts_zero_alpha(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=4, num_layers=1, max_iter=3, alpha=0.0).fit(X[:8], Y[:8])
        assert np.isfinite(m.loss_curve_).all()

    def test_predict_before_fit(self, cls):
        with pytest.raises(NotFittedError):
            cls().predict(np.ones((1, 4, 2)))

    def test_partial_fit_improves_or_holds(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=8, num_layers=1, max_iter=200, random_state=0)
        m.fit(X[:200], Y[:200])
        before = rmse(Y[200:].ravel(), m.predict(X[200:], return_sequences=True).ravel())
        m.partial_fit(X[:200], Y[:200], n_steps=150)
        after = rmse(Y[200:].ravel(), m.predict(X[200:], return_sequences=True).ravel())
        assert after < before * 1.25  # must not blow up

    def test_masked_labels_supported(self, cls, rng):
        # NaN labels are ignored (DynamicTRR fine-tunes on one labeled step).
        X = rng.normal(size=(60, 5, 2))
        Y = np.full((60, 5), np.nan)
        Y[:, -1] = X[:, :, 0].sum(axis=1)
        m = cls(hidden_size=6, num_layers=1, max_iter=150, random_state=0)
        m.fit(X, Y)
        assert np.isfinite(m.predict(X)).all()

    def test_rejects_labels_without_finite_value(self, cls):
        y = np.full((10, 4), np.nan)
        y[0, 0] = np.inf
        with pytest.raises(ValidationError, match="no finite label"):
            cls().fit(np.ones((10, 4, 2)), y)

    def test_warm_start_rejects_other_width(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=4, num_layers=1, max_iter=5, random_state=0)
        m.fit(X[:20], Y[:20])
        wide = np.ones((5, 6, 4))
        with pytest.raises(ValidationError, match="3 features"):
            m.partial_fit(wide, Y[:5])
        with pytest.raises(ValidationError, match="3 features"):
            m.fit(wide, Y[:5], warm_start=True)
        with pytest.raises(ValidationError, match="3 features"):
            m.predict(wide)
        # A cold refit may change the width.
        assert m.fit(wide, Y[:5]).predict(wide).shape == (5,)

    def test_two_layer_stack_runs(self, cls, cumsum_sequences):
        X, Y = cumsum_sequences
        m = cls(hidden_size=6, num_layers=2, max_iter=80, random_state=0)
        m.fit(X[:80], Y[:80])
        assert len(m.params_) == 2


def _central_difference_check(cls, tol):
    """Every entry of every parameter tensor's analytic gradient (from the
    public ``loss_gradient``) against a central difference of the loss."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 3, 2))
    Y = rng.normal(size=(4, 3))
    Y[:2, 0] = np.nan  # masked steps take part in the check too
    m = cls(hidden_size=3, num_layers=2, max_iter=5, random_state=0)
    m.fit(X, Y)
    _, grads = m.loss_gradient(X, Y)

    def loss() -> float:
        return m.loss_gradient(X, Y)[0]

    eps = 1e-6
    tensors = [(p[k], g[k]) for p, g in zip(m.params_, grads) for k in "WUb"]
    tensors.append((m.head_w_, grads[-1]["w"]))
    for param, analytic in tensors:
        assert analytic.shape == param.shape
        numeric = np.empty_like(param)
        for idx in np.ndindex(param.shape):
            keep = param[idx]
            param[idx] = keep + eps
            up = loss()
            param[idx] = keep - eps
            down = loss()
            param[idx] = keep
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=tol)
    keep = m.head_b_
    m.head_b_ = keep + eps
    up = loss()
    m.head_b_ = keep - eps
    down = loss()
    m.head_b_ = keep
    assert abs(grads[-1]["b"] - (up - down) / (2 * eps)) <= tol


def test_lstm_gradient_matches_central_difference():
    _central_difference_check(LSTMRegressor, 1e-7)


def test_gru_gradient_matches_central_difference():
    _central_difference_check(GRURegressor, 1e-7)
