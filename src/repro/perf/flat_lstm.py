"""Batched sliding-window LSTM forecaster (the DynamicTRR hot path).

``OnlineTRRSession`` forecasts every unmeasured second from a width-``w``
window of recent ``(PMCs, hold)`` rows. The reference path calls
``LSTMRegressor.predict`` once per second with a batch of one window —
validation, standardisation, and ``(1, d)`` GEMMs dominate, not the math.

:class:`CompiledLSTM` compiles a fitted ``LSTMRegressor`` for segments of
*consecutive* windows: because window ``k`` and window ``k+1`` share all
but one row, the ``m`` windows of a segment cover only ``m + w − 1``
distinct rows. The kernel folds input standardisation into the layer-0
input projection (``W0' = W0 / σx``, ``b0' = b0 − (µx/σx)·W0``) and target
de-standardisation into the head, computes the layer-0 input projections
for the distinct rows in **one** product, and leaves only the small
hidden-state product inside the per-timestep recurrence. Higher layers
project their full ``(m, w, H)`` inputs in one product each, and the head
reads just the final timestep.

Bit-identity contract: all products run through unoptimised fixed-order
``np.einsum`` and all gate math is row-local, so window ``k``'s forecast
is the same float no matter how the trace is cut into segments — which is
what keeps ``run_chunk`` outputs bit-identical to ``step``-by-``step``
execution.

The kernel snapshots (and folds) the model parameters at build time;
sessions rebuild it after every online fine-tune (the same invalidation
contract as ``_compiled`` on the batch estimators).
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from ..utils.numeric import sigmoid
from .telemetry import record_predict


class CompiledLSTM:
    """Affine-folded segment forecaster for a fitted ``LSTMRegressor``.

    ``forecast`` takes the ``n = m + w − 1`` distinct **raw** feature rows
    covering ``m`` consecutive width-``w`` windows (callers own window
    construction and padding) and returns the de-standardised final-step
    prediction of each window, shape ``(m,)``.
    """

    __slots__ = ("wx", "wh", "b", "head_w", "head_b", "hidden", "layers",
                 "window")

    def __init__(self, params, head_w, head_b, x_mean, x_scale, y_mean,
                 y_scale, window: int) -> None:
        inv = 1.0 / np.asarray(x_scale, dtype=np.float64)
        self.wx = [np.array(p["W"], dtype=np.float64) for p in params]
        self.wh = [np.array(p["U"], dtype=np.float64) for p in params]
        self.b = [np.array(p["b"], dtype=np.float64) for p in params]
        # repro-lint: disable=bit-identity-matmul — one-shot compile-time
        # constant fold with fixed operand shapes (cannot vary across chunk
        # shapes); every segment forward reuses the identical folded bias.
        self.b[0] = self.b[0] - (np.asarray(x_mean) * inv) @ self.wx[0]
        self.wx[0] = self.wx[0] * inv[:, None]
        y_scale = float(y_scale)
        self.head_w = np.asarray(head_w, dtype=np.float64) * y_scale
        self.head_b = float(head_b) * y_scale + float(y_mean)
        self.hidden = int(self.wh[0].shape[0])
        self.layers = len(self.wx)
        self.window = int(window)

    def forecast(self, rows: np.ndarray, m: int) -> np.ndarray:
        """Final-step predictions for ``m`` consecutive windows over ``rows``.

        ``rows`` is ``(m + window − 1, d)``: window ``k`` spans rows
        ``[k, k + window)``. Everything inside is row-local or fixed-order,
        so the result for window ``k`` is independent of ``m`` — the
        chunking-invariance the streaming contract needs.
        """
        w = self.window
        H = self.hidden
        record_predict("lstm", "compiled", m)
        # Layer 0: one projection over the distinct rows; window k's
        # timestep t reads slice row k + t.
        proj = np.einsum("nk,ko->no", rows, self.wx[0]) + self.b[0]
        h = np.zeros((m, H))
        c = np.zeros((m, H))
        outs = np.empty((m, w, H)) if self.layers > 1 else None
        for t in range(w):
            z = proj[t:t + m] + np.einsum("nk,ko->no", h, self.wh[0])
            h, c = self._gates(z, c, H)
            if outs is not None:
                outs[:, t, :] = h
        # Higher layers: windows no longer share rows (hidden states
        # diverge per window), but the input projection still batches over
        # all m·w positions in one fixed-order product.
        for layer in range(1, self.layers):
            flat = outs.reshape(m * w, H)
            proj = (np.einsum("nk,ko->no", flat, self.wx[layer])
                    + self.b[layer]).reshape(m, w, 4 * H)
            h = np.zeros((m, H))
            c = np.zeros((m, H))
            last = layer == self.layers - 1
            for t in range(w):
                z = proj[:, t, :] + np.einsum("nk,ko->no", h, self.wh[layer])
                h, c = self._gates(z, c, H)
                if not last:
                    outs[:, t, :] = h
        # Head on the final timestep only (the session consumes preds[:, -1]).
        return np.einsum("nk,k->n", h, self.head_w) + self.head_b

    @staticmethod
    def _gates(z: np.ndarray, c_prev: np.ndarray, H: int):
        # One element-local sigmoid over the whole [i, f, g, o] block (its
        # g slot goes unused: g is the tanh), so batch-shape independent.
        s = sigmoid(z)
        g = np.tanh(z[:, 2 * H:3 * H])
        c = s[:, H:2 * H] * c_prev + s[:, :H] * g
        return s[:, 3 * H:] * np.tanh(c), c


def compile_lstm(model, window: int) -> CompiledLSTM:
    """Compile a fitted ``LSTMRegressor`` for width-``window`` segments.

    Duck-typed on the fitted attributes (``params_`` with 4-gate cells,
    ``head_w_``) so this module never imports the model class.
    """
    params = getattr(model, "params_", None)
    if params is None:
        raise NotFittedError("compile_lstm needs a fitted LSTMRegressor")
    return CompiledLSTM(
        params=params,
        head_w=model.head_w_,
        head_b=model.head_b_,
        x_mean=model._x_mean,
        x_scale=model._x_scale,
        y_mean=model._y_mean,
        y_scale=model._y_scale,
        window=window,
    )
