"""Pins the time-batched BPTT trainer bit for bit to the reference loop.

``tests/recurrent_oracle.py`` is a frozen copy of the per-timestep,
per-cell trainer. Both are run on the same data and seeds; every fitted
parameter, the head bias, the loss curve and the predictions must agree
to the last bit (compared as raw bytes, so even the sign of a zero
counts). A stack of N models trained together must leave each model
exactly where N separate ``partial_fit`` calls would.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ml import GRURegressor, LSTMRegressor
from repro.ml.recurrent import partial_fit_stack

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


def _node_data(n: int, seed: int):
    """One node's replay buffer: windows of 10 steps over 9 channels with a
    label on the last step only, as DynamicTRR's fine-tunes see them."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 10, 9))
    Y = np.full((n, 10), np.nan)
    Y[:, -1] = X[:, -1, :3].sum(axis=1) + 0.1 * rng.normal(size=n)
    return X, Y


@pytest.mark.parametrize("cls", [LSTMRegressor, GRURegressor], ids=["lstm", "gru"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("nodes", [2, 3, 8])
@pytest.mark.parametrize("n", [1, 5, 11])
def test_stack_equals_separate_partial_fits_bitwise(cls, layers, nodes, n):
    # Every node starts from its own offline fit and fine-tunes on its own
    # buffer at its own learning rate and clip norm (every other node
    # clips every step); two chained rounds, as a session's model goes
    # through consecutive readings.
    kw = dict(hidden_size=6, num_layers=layers, max_iter=8)
    stacked, separate = [], []
    for i in range(nodes):
        X, Y = _node_data(24, seed=100 + i)
        for models in (stacked, separate):
            model = cls(random_state=7 + i, **kw).fit(X, Y)
            model.lr = 1e-3 * (1 + i)
            model.clip = 0.05 if i % 2 else 5.0
            models.append(model)
    for round_ in range(2):
        data = [_node_data(n, seed=1000 * round_ + i) for i in range(nodes)]
        partial_fit_stack(stacked, [X for X, _ in data], [Y for _, Y in data],
                          n_steps=5 + 2 * round_)
        for model, (X, Y) in zip(separate, data):
            model.partial_fit(X, Y, n_steps=5 + 2 * round_)
        for a, b in zip(stacked, separate):
            _assert_same_state(a, b)


def test_stack_of_one_equals_oracle_partial_fit():
    X, Y = _node_data(9, seed=5)
    model = LSTMRegressor(hidden_size=5, max_iter=6, random_state=1).fit(X, Y)
    ref = ReferenceLSTM(hidden_size=5, max_iter=6, random_state=1).fit(X, Y)
    partial_fit_stack([model], [X], [Y], n_steps=4)
    ref.partial_fit(X, Y, n_steps=4)
    _assert_same_state(model, ref)


def test_stack_rejects_mismatched_members():
    X, Y = _node_data(6, seed=0)
    a = LSTMRegressor(hidden_size=4, max_iter=2).fit(X, Y)
    b = LSTMRegressor(hidden_size=5, max_iter=2).fit(X, Y)
    g = GRURegressor(hidden_size=4, max_iter=2).fit(X, Y)
    with pytest.raises(ValidationError, match="share their class"):
        partial_fit_stack([a, b], [X, X], [Y, Y])
    with pytest.raises(ValidationError, match="share their class"):
        partial_fit_stack([a, g], [X, X], [Y, Y])
    with pytest.raises(ValidationError, match="one shape"):
        partial_fit_stack([a, LSTMRegressor(hidden_size=4, max_iter=2).fit(X, Y)],
                          [X, X[:3]], [Y, Y[:3]])
    with pytest.raises(ValidationError, match="more than once"):
        partial_fit_stack([a, a], [X, X], [Y, Y])
    with pytest.raises(ValidationError, match="one \\(X, y\\) per model"):
        partial_fit_stack([a], [X, X], [Y])
