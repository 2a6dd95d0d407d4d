"""Pins the time-batched BPTT trainer bit for bit to the reference loop.

``tests/recurrent_oracle.py`` is a frozen copy of the per-timestep,
per-cell trainer. Both are run on the same data and seeds; every fitted
parameter, the head bias, the loss curve and the predictions must agree
to the last bit (compared as raw bytes, so even the sign of a zero
counts).
"""

import numpy as np
import pytest

from repro.ml import GRURegressor, LSTMRegressor

from .recurrent_oracle import ReferenceGRU, ReferenceLSTM

CELLS = [(LSTMRegressor, ReferenceLSTM), (GRURegressor, ReferenceGRU)]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def _assert_same_state(model, ref) -> None:
    assert len(model.params_) == len(ref.params_)
    for layer, (p, q) in enumerate(zip(model.params_, ref.params_)):
        for key in ("W", "U", "b"):
            assert _bits(p[key]) == _bits(q[key]), f"layer {layer} {key}"
    assert _bits(model.head_w_) == _bits(ref.head_w_)
    assert _bits(model.head_b_) == _bits(ref.head_b_)
    assert _bits(model.loss_curve_) == _bits(ref.loss_curve_)


def _data(n: int, one_d: bool, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6, 3))
    Y = X[:, :, 0].cumsum(axis=1) + 0.1 * rng.normal(size=(n, 6))
    if one_d:
        return X, Y[:, -1]
    Y[:, :2] = np.nan  # masked steps, as DynamicTRR's fine-tune labels
    return X, Y


@pytest.mark.parametrize("cls, ref_cls", CELLS, ids=["lstm", "gru"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, 32, 64])
@pytest.mark.parametrize("one_d", [False, True], ids=["2d-labels", "1d-labels"])
def test_fit_and_partial_fit_bitwise(cls, ref_cls, layers, n, one_d):
    X, Y = _data(n, one_d)
    kw = dict(hidden_size=5, num_layers=layers, max_iter=12, random_state=3)
    model, ref = cls(**kw).fit(X, Y), ref_cls(**kw).fit(X, Y)
    _assert_same_state(model, ref)
    # Chained fine-tunes on shrinking replay buffers, then the one-window
    # buffer DynamicTRR starts from.
    for k, steps in ((n, 7), (max(n // 2, 1), 5), (1, 3)):
        model.partial_fit(X[:k], Y[:k], n_steps=steps)
        ref.partial_fit(X[:k], Y[:k], n_steps=steps)
        _assert_same_state(model, ref)
    assert _bits(model.predict(X, return_sequences=True)) == _bits(
        ref.predict(X, return_sequences=True)
    )


@pytest.mark.parametrize("cls, ref_cls", CELLS, ids=["lstm", "gru"])
def test_minibatch_smaller_than_data_bitwise(cls, ref_cls):
    # batch_size < n: every iteration resamples a minibatch.
    X, Y = _data(40, one_d=False, seed=1)
    kw = dict(hidden_size=4, num_layers=2, max_iter=15, batch_size=5,
              random_state=0)
    model, ref = cls(**kw).fit(X, Y), ref_cls(**kw).fit(X, Y)
    _assert_same_state(model, ref)
    model.partial_fit(X, Y, n_steps=6)
    ref.partial_fit(X, Y, n_steps=6)
    _assert_same_state(model, ref)


def test_dynamic_trr_shape_bitwise():
    # The deployed configuration: 16 hidden units, two layers, 10-step
    # windows, fine-tunes on a replay buffer with one label per window.
    rng = np.random.default_rng(7)
    X = rng.normal(size=(48, 10, 9))
    Y = X[:, :, :3].sum(axis=2).cumsum(axis=1)
    model = LSTMRegressor(max_iter=20, random_state=2023).fit(X, Y)
    ref = ReferenceLSTM(max_iter=20, random_state=2023).fit(X, Y)
    _assert_same_state(model, ref)
    labels = np.full((17, 10), np.nan)
    labels[:, -1] = Y[:17, -1]
    for m in (model, ref):
        m.lr = 1e-3
        m.partial_fit(X[:17], labels, n_steps=10)
    _assert_same_state(model, ref)
