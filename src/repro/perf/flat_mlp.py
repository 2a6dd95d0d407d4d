"""Fused-forward MLP predictor (the SRR hot path).

``MLPRegressor.predict`` runs standardise → matmul chain → de-standardise,
allocating a fresh intermediate at every step. SRR calls it once per
observed run with the same batch shape over and over (one row per monitored
second), so the allocations and the separate standardisation passes are
pure overhead.

:class:`CompiledMLP` folds the input standardisation into the first weight
matrix (``W0' = W0 / σx``, ``b0' = b0 − (µx/σx)·W0``) and the target
de-standardisation into the last (``WL' = WL·σy``, ``bL' = bL·σy + µy``),
then runs the forward pass through preallocated hidden-layer buffers with
in-place activations. Buffers are sized to the largest batch seen and
handed out as row views, so alternating batch sizes reuse them too. The
matmuls run through unoptimised ``np.einsum`` rather than GEMM calls:
einsum reduces the feature axis in fixed index order per output element,
so per-row results are independent of the batch they arrive in —
which the streaming/fleet paths rely on for bit-identical chunked and
cross-node-batched inference (a GEMM's blocking, and therefore its
summation order, varies with batch size).

The output layer always writes to a *fresh* array (callers may keep or
mutate predictions), so only hidden activations are recycled. Folding the
affine maps reassociates a handful of float operations; predictions agree
with the reference forward pass to ~1e-13 relative (the equivalence suite
pins this down).
"""

from __future__ import annotations

import numpy as np

from .flat_tree import thread_scratch
from .telemetry import record_predict


def _relu_inplace(buf: np.ndarray) -> None:
    np.maximum(buf, 0.0, out=buf)


def _tanh_inplace(buf: np.ndarray) -> None:
    np.tanh(buf, out=buf)


_INPLACE_ACTIVATIONS = {"relu": _relu_inplace, "tanh": _tanh_inplace}


class CompiledMLP:
    """Affine-folded, buffer-reusing forward pass of a fitted MLP.

    ``predict`` takes a validated ``(n, d)`` float64 matrix — callers own
    input checking, exactly as with the compiled trees.
    """

    __slots__ = ("weights", "biases", "activation", "single_output", "_bufs")

    def __init__(
        self,
        weights: "list[np.ndarray]",
        biases: "list[np.ndarray]",
        x_mean: np.ndarray,
        x_scale: np.ndarray,
        y_mean: np.ndarray,
        y_scale: np.ndarray,
        activation: str,
        single_output: bool,
    ) -> None:
        inv = 1.0 / np.asarray(x_scale, dtype=np.float64)
        W = [np.array(w, dtype=np.float64) for w in weights]
        b = [np.array(v, dtype=np.float64) for v in biases]
        # repro-lint: disable=bit-identity-matmul — one-shot compile-time
        # constant fold: it runs once with fixed operand shapes, so the BLAS
        # blocking cannot vary across chunk shapes; every chunked forward
        # then reuses the identical folded bias.
        b[0] = b[0] - (np.asarray(x_mean) * inv) @ W[0]
        W[0] = W[0] * inv[:, None]
        W[-1] = W[-1] * np.asarray(y_scale)[None, :]
        b[-1] = b[-1] * np.asarray(y_scale) + np.asarray(y_mean)
        self.weights = W
        self.biases = b
        self.activation = _INPLACE_ACTIVATIONS[activation]
        self.single_output = bool(single_output)
        #: hidden-layer scratch, per thread (see ``thread_scratch``).
        self._bufs: "dict[int, tuple[int, list[np.ndarray]]]" = {}

    def _buffers(self, n: int) -> "list[np.ndarray]":
        """Hidden-layer buffers for ``n`` rows: row views of this thread's
        largest scratch."""
        bufs = thread_scratch(
            self._bufs, n,
            lambda k: [np.empty((k, w.shape[1])) for w in self.weights[:-1]],
        )
        return [buf[:n] for buf in bufs]

    def predict(self, X: np.ndarray) -> np.ndarray:
        record_predict("mlp", "compiled", X.shape[0])
        bufs = self._buffers(X.shape[0])
        a = X
        last = len(self.weights) - 1
        for li, (w, bias) in enumerate(zip(self.weights, self.biases)):
            out = np.empty((X.shape[0], w.shape[1])) if li == last else bufs[li]
            # Unoptimised einsum instead of a GEMM: BLAS picks its blocking
            # (and therefore its summation order) by batch size, so the
            # same row can round differently in a 17-row chunk than in the
            # full trace. einsum's sum-of-products loop reduces k in fixed
            # index order per output element, which makes predictions
            # bit-identical whether a trace is pushed through whole, in
            # chunks, or batched across nodes.
            np.einsum("nk,ko->no", a, w, out=out)
            out += bias
            if li < last:
                self.activation(out)
            a = out
        return a.ravel() if self.single_output else a
