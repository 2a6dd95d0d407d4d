"""Recurrent regressors: LSTM and GRU with full backpropagation through time.

DynamicTRR (paper §4.2.2) is a compact LSTM — an input layer, two hidden
(recurrent) layers, and a fully-connected head — trained on sliding windows
of ``(PMCs, P'_node)`` rows and fine-tuned online whenever a real IM reading
arrives. The GRU variant is the second RNN baseline from Table 4.

Both networks run on one time-batched BPTT trainer: stacked recurrent
layers over sequences shaped ``(batch, time, features)``, a linear head
applied to every timestep, MSE loss averaged over labelled steps,
global-norm gradient clipping, Adam on one flat parameter vector, and
input/target standardisation handled internally.

Node axis. The trainer trains a *stack* of N same-shape models at once,
each on its own data: :func:`partial_fit_stack` fine-tunes N fitted
models in one pass, and ``fit``/``partial_fit`` are the stack of one.
A monitoring fleet uses it to train every node that reached an IM reading
together, so the Python cost of the per-timestep recurrence is paid once
per stack instead of once per node. Parameters, gradients and Adam moments
are ``(N, P)`` — one flat row per model, which that model's
``params_``/``head_w_`` are views of — and each model keeps its own
``lr``, ``clip``, ``alpha``, standardisation and ``random_state``.

Trainer layout. Each training call allocates time-major
``(T, N, batch, ·)`` workspaces once; the forward writes gate activations,
cell states and hidden states into them in place. Only the recurrence
itself walks the ``T`` steps in Python — ``h @ U``, the gate
nonlinearities and the state update forward, the chain through
``(d_h, d_c)`` and ``dz @ Uᵀ`` backward. Everything off the recurrence
runs once over all steps and nodes: the input projections ``x_t @ W``,
the backward's ``1 − s``, ``1 − g²`` and ``1 − tanh²c`` factors, the
weight gradients ``x_tᵀ @ dz`` / ``h_tᵀ @ dz``, and the layer-input
gradients ``dz @ Wᵀ`` (skipped for layer 0, whose input gradient nobody
reads). Inference runs the same forward with single-step scratch, so it
collects nothing.

Numerical contract: every model in a stack ends bit for bit where its own
``partial_fit`` would leave it, and the stack of one reproduces the
per-timestep, per-cell reference loop (``tests/recurrent_oracle.py``) —
``params_``, ``head_b_`` and ``loss_curve_`` — both pinned by
``tests/test_recurrent_trainer.py``. Each stacked ``np.matmul`` issues the
same-shape BLAS GEMM per (timestep, node) slice that the reference issued
per timestep, element-wise expressions keep the reference's association,
weight gradients are accumulated over reversed time in the reference's
sequential ``+=`` order, each node draws its own minibatches from its own
generator, and the per-node scalar reductions (loss, head gradient, clip
norm) run per node in the reference's order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..utils.numeric import sigmoid
from ..utils.rng import as_generator
from ..utils.validation import check_positive
from .base import Regressor


def _check_sequences(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValidationError(
            f"recurrent models need (batch, time, features) input, got shape {X.shape}"
        )
    return X


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``'s last axis with the given shapes; any
    leading (node) axes are kept in front of each view's shape."""
    lead = flat.shape[:-1]
    views, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[..., offset:offset + size].reshape(lead + tuple(shape)))
        offset += size
    return views


def _sum_reversed(terms: np.ndarray, out: np.ndarray) -> None:
    """``out = ((0 + terms[T-1]) + terms[T-2]) + … + terms[0]``.

    The reference loop accumulated each timestep's contribution with ``+=``
    while walking time backwards. A reduction over a non-innermost axis
    adds whole slices one after another in axis order, so reducing the
    reversed view from an initial zero keeps the reference's bits (the
    oracle pin in ``tests/test_recurrent_trainer.py`` enforces it).
    """
    np.add.reduce(terms[::-1], axis=0, out=out, initial=0.0)


def _layers(views) -> list[dict]:
    """``[W, U, b]*`` views grouped into one ``{"W", "U", "b"}`` per layer
    (trailing head views are ignored)."""
    return [dict(zip("WUb", views[k:k + 3])) for k in range(0, len(views) - 2, 3)]


def _pack_stack(models) -> "tuple[np.ndarray, list[np.ndarray]]":
    """Copy every model's parameters into row ``i`` of one ``(N, P)`` block
    laid out ``[W, U, b]*, head_w, head_b`` and rebind each model's
    ``params_``/``head_w_`` as views of its row. Returns the block and its
    stacked views (``head_b``'s is ``(N,)``)."""
    tensors = [m._flat_params() for m in models]
    shapes = [t.shape for t in tensors[0]] + [()]
    theta = np.empty((len(models), sum(t.size for t in tensors[0]) + 1))
    views = _split(theta, shapes)
    for i, (model, own) in enumerate(zip(models, tensors)):
        for view, tensor in zip(views, own):
            view[i] = tensor
        theta[i, -1] = model.head_b_
        row = [view[i] for view in views]
        model.params_ = _layers(row)
        model.head_w_ = row[-2]
    return theta, views


def _clip_by_norm(grad: np.ndarray, g_views, clip) -> None:
    """Scale each node's gradient row to global norm ``clip[i]`` if it is
    longer. The norm is summed per node in the single-model order: each
    tensor's squared sum, added left to right, then ``head_b``'s square."""
    sq = [np.square(g).reshape(len(grad), -1).sum(axis=1) for g in g_views[:-1]]
    for i, limit in enumerate(clip):
        norm = np.sqrt(sum(float(s[i]) for s in sq) + float(grad[i, -1]) ** 2)
        if norm > limit:
            grad[i] *= limit / norm


def _train_stack(models, X, Y, rngs, iters: int) -> None:
    """Run ``iters`` Adam steps on every model of the stack at once.

    ``X[i] (n, T, d)`` and ``Y[i] (n, T)`` are model ``i``'s raw sequences
    and labels, ``rngs[i]`` its minibatch generator; the models share their
    class, width, depth and effective batch size."""
    lead = models[0]
    N = len(models)
    n, T, d = X[0].shape
    bs = min(lead.batch_size, n)
    Xt = np.empty((T, N, n, d))
    Ys = np.empty((N, n, T))
    for i, model in enumerate(models):
        model._standardise(X[i], out=Xt[:, i])
        np.subtract(Y[i], model._y_mean, out=Ys[i])
        Ys[i] /= model._y_scale
    label_mask = np.isfinite(Ys)
    # Each node draws every minibatch from its own generator, in the order
    # sequential per-node calls would have drawn them.
    picks = np.empty((N, iters, bs), dtype=np.intp)
    for i, rng in enumerate(rngs):
        for step in range(iters):
            picks[i, step] = rng.integers(0, n, size=bs)
    lr, alpha = (np.array([[getattr(m, k)] for m in models]) for k in ("lr", "alpha"))

    theta, views = _pack_stack(models)
    params = (_layers(views), views[-2], views[-1])
    grad = np.empty_like(theta)
    g_views = _split(grad, [v.shape[1:] for v in views])
    n_recurrent = theta.shape[1] - lead.hidden_size - 1  # L2 covers W, U, b
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rows = np.arange(N)[:, None]
    workspaces = lead._workspaces(params[0], T, N, bs, train=True)
    try:
        for step in range(1, iters + 1):
            idx = picks[:, step - 1]
            losses = lead._backprop(
                Xt[:, rows, idx], Ys[rows, idx], label_mask[rows, idx],
                params, workspaces, g_views,
            )
            for model, loss in zip(models, losses):
                model.loss_curve_.append(loss)

            # L2 penalty on the recurrent weights.
            grad[:, :n_recurrent] += alpha * theta[:, :n_recurrent]

            # Gradient clipping by global norm.
            _clip_by_norm(grad, g_views, [m.clip for m in models])

            # Adam, over every parameter of every node at once.
            m1 *= beta1
            m1 += (1 - beta1) * grad
            m2 *= beta2
            m2 += (1 - beta2) * grad**2
            theta -= lr * (m1 / (1 - beta1**step)) / (
                np.sqrt(m2 / (1 - beta2**step)) + eps
            )
    finally:
        for model, head_b in zip(models, views[-1]):
            model.head_b_ = float(head_b)


def partial_fit_stack(models, X, y, n_steps: int = 20) -> None:
    """Fine-tune several fitted recurrent models in one BPTT pass.

    ``models[i]`` trains on ``(X[i], y[i])`` for ``n_steps`` Adam steps and
    ends bit for bit where ``models[i].partial_fit(X[i], y[i], n_steps)``
    would leave it, with its own ``lr``, ``clip``, ``alpha``,
    standardisation and ``random_state``. The models must share their
    class, ``hidden_size``, ``num_layers`` and input width, every ``X[i]``
    its shape ``(n, T, d)``, and ``min(batch_size, n)`` must agree.
    """
    models, X, y = list(models), list(X), list(y)
    if not models:
        return
    if not len(models) == len(X) == len(y):
        raise ValidationError(
            f"need one (X, y) per model; got {len(models)} models, "
            f"{len(X)} X and {len(y)} y"
        )
    if len({id(m) for m in models}) != len(models):
        raise ValidationError("a model appears more than once in the stack")
    lead = models[0]
    Xs = [_check_sequences(Xi) for Xi in X]
    n, T, _ = Xs[0].shape
    Ys = []
    for model, Xi, yi in zip(models, Xs, y):
        model._check_fitted("params_")
        if (type(model) is not type(lead)
                or model.hidden_size != lead.hidden_size
                or model.num_layers != lead.num_layers):
            raise ValidationError(
                "stacked models must share their class, hidden_size and num_layers"
            )
        model._check_width(Xi)
        if Xi.shape != Xs[0].shape:
            raise ValidationError(
                f"stacked sequences must share one shape; got {Xi.shape} "
                f"and {Xs[0].shape}"
            )
        if min(model.batch_size, n) != min(lead.batch_size, n):
            raise ValidationError("stacked models must share one batch size")
        Ys.append(model._labels(yi, n, T))
    _train_stack(
        models, Xs, Ys, [as_generator(m.random_state) for m in models],
        int(n_steps),
    )


class _RecurrentBase(Regressor):
    """Shared trainer; subclasses provide the per-layer forward/backward."""

    #: gates per cell (4 for LSTM, 3 for GRU); set by subclass.
    _n_gates: int = 0

    def __init__(
        self,
        hidden_size: int = 16,
        num_layers: int = 2,
        max_iter: int = 400,
        lr: float = 5e-3,
        batch_size: int = 64,
        alpha: float = 1e-6,
        clip: float = 5.0,
        random_state: "int | None" = 0,
    ) -> None:
        check_positive(hidden_size, "hidden_size")
        check_positive(num_layers, "num_layers")
        check_positive(max_iter, "max_iter")
        check_positive(int(batch_size), "batch_size")
        check_positive(lr, "lr")
        check_positive(clip, "clip")
        check_positive(alpha, "alpha", strict=False)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        self.max_iter = int(max_iter)
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.alpha = float(alpha)
        self.clip = float(clip)
        self.random_state = random_state
        self.params_: "list[dict[str, np.ndarray]] | None" = None
        self.head_w_: np.ndarray | None = None
        self.head_b_: float = 0.0
        self.loss_curve_: list[float] = []
        self._x_mean = self._x_scale = None
        self._y_mean = self._y_scale = 1.0

    # -- subclass hooks ------------------------------------------------------
    def _workspace(self, T: int, N: int, batch: int, d_in: int, train: bool,
                   scratch) -> dict:
        """Buffers for one layer of an N-model stack; ``train`` adds the
        per-step history and the backward's scratch, whose buffers come
        from ``scratch(name, shape)``."""
        raise NotImplementedError

    def _layer_forward(self, p: dict, x: np.ndarray, ws: dict) -> np.ndarray:
        """Run one layer (stacked parameters ``p``) over time-major
        ``x (T, N, batch, d_in)``; return its hidden states
        ``(T + 1, N, batch, H)`` with the zero initial state at 0."""
        raise NotImplementedError

    def _layer_backward(self, p, x, ws, d_h, grads, need_dx):
        """Backpropagate ``d_h (T, N, batch, H)`` through one layer, writing
        the stacked ``(W, U, b)`` gradients into ``grads``; return ``d_x``
        if asked."""
        raise NotImplementedError

    # -- parameter management --------------------------------------------------
    def _init_params(self, n_features: int, rng) -> None:
        self.params_ = []
        for layer in range(self.num_layers):
            d_in = n_features if layer == 0 else self.hidden_size
            h = self.hidden_size
            scale_w = 1.0 / np.sqrt(d_in)
            scale_u = 1.0 / np.sqrt(h)
            self.params_.append(
                {
                    "W": rng.uniform(-scale_w, scale_w, size=(d_in, self._n_gates * h)),
                    "U": rng.uniform(-scale_u, scale_u, size=(h, self._n_gates * h)),
                    "b": np.zeros(self._n_gates * h),
                }
            )
        scale = 1.0 / np.sqrt(self.hidden_size)
        self.head_w_ = rng.uniform(-scale, scale, size=self.hidden_size)
        self.head_b_ = 0.0

    def _flat_params(self) -> list[np.ndarray]:
        flat = []
        for p in self.params_:
            flat.extend([p["W"], p["U"], p["b"]])
        flat.append(self.head_w_)
        return flat

    def _stack_of_one(self) -> tuple:
        """This model's parameters as a stack of one: ``(layers, head_w,
        head_b)`` with a leading node axis of length 1 (views, no copy)."""
        layers = [{k: v[None] for k, v in p.items()} for p in self.params_]
        return layers, self.head_w_[None], np.array([self.head_b_])

    def _check_width(self, X: np.ndarray) -> None:
        expected = self.params_[0]["W"].shape[0]
        if X.shape[2] != expected:
            raise ValidationError(
                f"model was fitted on {expected} features per step; "
                f"got {X.shape[2]}"
            )

    # -- forward / backward over a stack of batches of sequences ---------------
    def _forward(self, x: np.ndarray, layers, workspaces) -> np.ndarray:
        """Run the stack over time-major ``x (T, N, batch, d)``; return the
        top layer's hidden states node- and batch-major ``(N, batch, T, H)``."""
        for p, ws in zip(layers, workspaces):
            x = self._layer_forward(p, x, ws)[1:]
        return np.ascontiguousarray(x.transpose(1, 2, 0, 3))

    def _standardise(self, X: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """Standardised inputs, time-major ``(T, n, d)`` (contiguous unless
        ``out`` is given), so every per-step slice is one block."""
        n, T, d = X.shape
        if out is None:
            out = np.empty((T, n, d))
        np.subtract(X.transpose(1, 0, 2), self._x_mean, out=out)
        out /= self._x_scale
        return out

    def _workspaces(self, layers, T: int, N: int, batch: int, train: bool) -> list[dict]:
        # The backward's scratch is live only inside one layer's backward,
        # so the layers share one buffer per (name, shape).
        pool: "dict[tuple, np.ndarray]" = {}

        def scratch(name: str, shape: tuple) -> np.ndarray:
            if (name, shape) not in pool:
                pool[name, shape] = np.empty(shape)
            return pool[name, shape]

        return [
            self._workspace(T, N, batch, p["W"].shape[-2], train, scratch)
            for p in layers
        ]

    def _backprop(self, xb, yb, mb, params, workspaces, g_views) -> list[float]:
        """Per-node losses of one stacked batch (time-major
        ``xb (T, N, batch, d)``, standardised labels ``yb`` and mask ``mb``
        shaped ``(N, batch, T)``) at the stacked ``params = (layers, head_w,
        head_b)``; writes the gradients into ``g_views`` — ``[W, U, b]`` per
        layer, ``head_w``, then ``head_b``, each with a leading node axis."""
        layers, head_w, head_b = params
        h_top = self._forward(xb, layers, workspaces)  # (N, batch, T, H)
        N, B, T, H = h_top.shape
        d_h = np.empty((T, N, B, H))
        losses = []
        for i in range(N):  # the head and its reductions, in per-model order
            mask = mb[i]
            preds = h_top[i] @ head_w[i] + head_b[i]  # (batch, T)
            err = np.where(mask, preds - np.where(mask, yb[i], 0.0), 0.0)
            n_labels = max(int(mask.sum()), 1)
            loss = float((err**2).sum() / n_labels)
            if not np.isfinite(loss):
                raise ConvergenceError("RNN training diverged")
            losses.append(loss)
            d_pred = 2.0 * err / n_labels  # (batch, T)
            g_views[-2][i] = np.einsum("bt,bth->h", d_pred, h_top[i])
            g_views[-1][i] = d_pred.sum()
            np.multiply(d_pred.T[:, :, None], head_w[i], out=d_h[:, i])
        for layer in range(len(layers) - 1, -1, -1):
            x = xb if layer == 0 else workspaces[layer - 1]["h"][1:]
            d_h = self._layer_backward(
                layers[layer], x, workspaces[layer], d_h,
                g_views[3 * layer:3 * layer + 3], need_dx=layer > 0,
            )
        return losses

    @staticmethod
    def _labels(y, n: int, T: int) -> np.ndarray:
        y_arr = np.asarray(y, dtype=np.float64)
        if y_arr.shape == (n,):
            Y = np.full((n, T), np.nan)
            Y[:, -1] = y_arr
            return Y
        if y_arr.shape == (n, T):
            return y_arr.copy()
        raise ValidationError(
            f"y must have shape ({n},) or ({n},{T}); got {y_arr.shape}"
        )

    # -- training ---------------------------------------------------------------
    def fit(self, X, y, warm_start: bool = False, max_iter: "int | None" = None):
        """Train on sequences ``X (n, T, d)``.

        ``y`` may be ``(n,)`` (label = power at the final step) or ``(n, T)``
        (full per-step labels, the DynamicTRR construction from Fig. 4).
        """
        X = _check_sequences(X)
        n, T, d = X.shape
        Y = self._labels(y, n, T)
        warm = warm_start and self.params_ is not None
        if warm:
            self._check_width(X)
        else:
            finite = Y[np.isfinite(Y)]
            if finite.size == 0:
                raise ValidationError("y has no finite label to fit on")
        rng = as_generator(self.random_state)
        if not warm:
            self._x_mean = X.reshape(-1, d).mean(axis=0)
            xs = X.reshape(-1, d).std(axis=0)
            xs[xs == 0.0] = 1.0
            self._x_scale = xs
            self._y_mean = float(finite.mean())
            ysc = float(finite.std())
            self._y_scale = ysc if ysc > 0 else 1.0
            self._init_params(d, rng)
            self.loss_curve_ = []
        iters = self.max_iter if max_iter is None else int(max_iter)
        _train_stack([self], [X], [Y], [rng], iters)
        return self

    def partial_fit(self, X, y, n_steps: int = 20):
        """Online fine-tuning with a small step budget (DynamicTRR §4.2.2)."""
        return self.fit(X, y, warm_start=True, max_iter=n_steps)

    def loss_gradient(self, X, y):
        """Training loss over every sequence of ``(X, y)``, and its gradient.

        The forward and backward pass ``fit`` runs on each minibatch, at the
        current parameters and without the L2 term or clipping. Returns
        ``(loss, grads)``: one ``{"W", "U", "b"}`` dict per layer, as in
        ``params_``, then ``{"w": ∂loss/∂head_w_, "b": ∂loss/∂head_b_}``.
        """
        self._check_fitted("params_")
        X = _check_sequences(X)
        self._check_width(X)
        n, T, _ = X.shape
        Ys = (self._labels(y, n, T) - self._y_mean) / self._y_scale
        params = self._stack_of_one()
        shapes = [t.shape for t in self._flat_params()] + [()]
        stacked = _split(np.empty((1, sum(int(np.prod(s)) for s in shapes))), shapes)
        (loss,) = self._backprop(
            self._standardise(X)[:, None], Ys[None], np.isfinite(Ys)[None],
            params, self._workspaces(params[0], T, 1, n, train=True), stacked,
        )
        g_views = [g[0] for g in stacked]
        grads = [dict(zip("WUb", g_views[3 * k:3 * k + 3]))
                 for k in range(self.num_layers)]
        grads.append({"w": g_views[-2], "b": float(g_views[-1])})
        return loss, grads

    # -- inference ----------------------------------------------------------------
    def predict(self, X, return_sequences: bool = False) -> np.ndarray:
        """Predict power for each window; last step by default."""
        self._check_fitted("params_")
        X = _check_sequences(X)
        self._check_width(X)
        n, T, _ = X.shape
        layers = self._stack_of_one()[0]
        h_top = self._forward(
            self._standardise(X)[:, None], layers,
            self._workspaces(layers, T, 1, n, train=False),
        )[0]
        preds = h_top @ self.head_w_ + self.head_b_
        preds = preds * self._y_scale + self._y_mean
        return preds if return_sequences else preds[:, -1]


class LSTMRegressor(_RecurrentBase):
    """Stacked LSTM (Table 4: ``#units=2`` — two recurrent layers)."""

    _n_gates = 4

    def _workspace(self, T, N, batch, d_in, train, scratch):
        H = self.hidden_size
        steps = T if train else 1  # inference keeps only the current step
        ws = {
            "train": train,
            "z": np.empty((T, N, batch, 4 * H)),      # pre-activations, then dz
            "hu": np.empty((N, batch, 4 * H)),        # h_{t-1} @ U
            "tmp": np.empty((N, batch, 2 * H)),
            "h": np.zeros((T + 1, N, batch, H)),
            "s": np.empty((steps, N, batch, 4 * H)),  # sigmoid of [i, f, ·, o]
            # Per step [g, c_{t-1}, i, tanh c_t]: each gate's partner in the
            # backward's first product (see _layer_backward). Row t's c slot
            # is step t's previous cell state; the extra row holds the last.
            "cell": np.zeros((steps + 1, N, batch, 4 * H)),
        }
        if train:
            ws.update(
                # [1-i, 1-f, 1-g², 1-o]
                one_minus=scratch("one_minus", (T, N, batch, 4 * H)),
                one_minus_tc2=scratch("one_minus_tc2", (T, N, batch, H)),
                **{k: scratch(k, (N, batch, H))
                   for k in ("d_h", "d_c", "d_h_rec", "d_c_rec")},
                # per-step weight-gradient terms, x_tᵀ·dz then h_tᵀ·dz
                g_w=scratch("terms", (T, N, d_in, 4 * H)),
                g_u=scratch("terms", (T, N, H, 4 * H)),
                d_x=np.empty((T, N, batch, d_in)),  # read by the layer below
            )
        return ws

    def _layer_forward(self, p, x, ws):
        U, b = p["U"], p["b"][:, None]
        H = self.hidden_size
        train = ws["train"]
        z, hu, tmp, h, s, cell = (
            ws[k] for k in ("z", "hu", "tmp", "h", "s", "cell")
        )
        np.matmul(x, p["W"], out=z)  # every step's x_t @ W
        for t in range(x.shape[0]):
            k = t if train else 0
            z_t, s_t, cell_t = z[t], s[k], cell[k]
            z_t += np.matmul(h[t], U, out=hu)
            z_t += b
            sigmoid(z_t, out=s_t)
            np.tanh(z_t[..., 2 * H:3 * H], out=cell_t[..., :H])
            # [i·g, f·c_{t-1}] in one product; c_t = f·c_{t-1} + i·g.
            np.multiply(s_t[..., :2 * H], cell_t[..., :2 * H], out=tmp)
            c_t = cell[k + 1][..., H:2 * H]
            np.add(tmp[..., H:], tmp[..., :H], out=c_t)
            np.tanh(c_t, out=cell_t[..., 3 * H:])
            np.multiply(s_t[..., 3 * H:], cell_t[..., 3 * H:], out=h[t + 1])
            if not train:
                cell_t[..., H:2 * H] = c_t
        return h

    def _layer_backward(self, p, x, ws, d_ext, grads, need_dx):
        H = self.hidden_size
        T, N, B, _ = x.shape
        h, s, cell, om = ws["h"], ws["s"], ws["cell"][:T], ws["one_minus"]
        om_tc2 = ws["one_minus_tc2"]
        dz = ws["z"]  # the pre-activations are spent; reuse their buffer
        # Off-recurrence factors for every step at once. With them each
        # gate's dz is ((driver · partner) · act) · one_minus, the reference
        # association: driver is d_c for i, f, g and d_h for o, partner is
        # the cell block [g, c_{t-1}, i, tanh c], act is s with an exact 1
        # in the g slot.
        s4, cell4 = s.reshape(T, N, B, 4, H), cell.reshape(T, N, B, 4, H)
        om4 = om.reshape(T, N, B, 4, H)
        cell4[..., 2, :] = s4[..., 0, :]
        np.subtract(1.0, s, out=om)
        np.square(cell4[..., 0, :], out=om4[..., 2, :])
        np.subtract(1.0, om4[..., 2, :], out=om4[..., 2, :])
        s4[..., 2, :] = 1.0
        np.square(cell4[..., 3, :], out=om_tc2)
        np.subtract(1.0, om_tc2, out=om_tc2)

        d_h, d_c, d_h_rec, d_c_rec = (
            ws[k] for k in ("d_h", "d_c", "d_h_rec", "d_c_rec")
        )
        d_h_rec.fill(0.0)
        d_c_rec.fill(0.0)
        d_c3 = d_c[..., None, :]
        U_T = p["U"].swapaxes(-1, -2)
        for t in range(T - 1, -1, -1):
            s_t, dz_t = s[t], dz[t]
            dz4, cell_t4 = dz_t.reshape(N, B, 4, H), cell4[t]
            np.add(d_ext[t], d_h_rec, out=d_h)
            np.multiply(d_h, s_t[..., 3 * H:], out=d_c)
            d_c *= om_tc2[t]
            d_c += d_c_rec
            np.multiply(d_c3, cell_t4[..., :3, :], out=dz4[..., :3, :])
            np.multiply(d_h, cell_t4[..., 3, :], out=dz4[..., 3, :])
            dz_t *= s_t
            dz_t *= om[t]
            np.multiply(d_c, s_t[..., H:2 * H], out=d_c_rec)
            np.matmul(dz_t, U_T, out=d_h_rec)

        g_W, g_U, g_b = grads
        _sum_reversed(np.matmul(x.swapaxes(-1, -2), dz, out=ws["g_w"]), g_W)
        _sum_reversed(np.matmul(h[:-1].swapaxes(-1, -2), dz, out=ws["g_u"]), g_U)
        _sum_reversed(dz.sum(axis=2), g_b)
        if not need_dx:
            return None
        return np.matmul(dz, p["W"].swapaxes(-1, -2), out=ws["d_x"])


class GRURegressor(_RecurrentBase):
    """Stacked GRU (the second RNN baseline in Table 4)."""

    _n_gates = 3

    def _workspace(self, T, N, batch, d_in, train, scratch):
        H = self.hidden_size
        steps = T if train else 1
        ws = {
            "train": train,
            "z": np.empty((T, N, batch, 3 * H)),        # x_t @ W + b, then dzx
            "zh": np.empty((steps, N, batch, 3 * H)),   # h_{t-1} @ U
            "tmp": np.empty((N, batch, H)),
            "h": np.zeros((T + 1, N, batch, H)),
            "ru": np.empty((steps, N, batch, 2 * H)),   # [r, u]
            "n": np.empty((steps, N, batch, H)),
            "one_minus_u": np.empty((steps, N, batch, H)),
        }
        if train:
            ws.update(
                one_minus_ru=scratch("one_minus_ru", (T, N, batch, 2 * H)),
                **{k: scratch(k, (T, N, batch, H))
                   for k in ("one_minus_n2", "h_minus_n")},
                dzh=scratch("dzh", (T, N, batch, 3 * H)),
                **{k: scratch(k, (N, batch, H)) for k in ("d_h", "d_h_rec")},
                g_w=scratch("terms", (T, N, d_in, 3 * H)),
                g_u=scratch("terms", (T, N, H, 3 * H)),
                d_x=np.empty((T, N, batch, d_in)),  # read by the layer below
            )
        return ws

    def _layer_forward(self, p, x, ws):
        U = p["U"]
        H = self.hidden_size
        train = ws["train"]
        z, zh, tmp, h, ru, n, omu = (
            ws[k] for k in ("z", "zh", "tmp", "h", "ru", "n", "one_minus_u")
        )
        np.matmul(x, p["W"], out=z)
        z += p["b"][:, None]
        for t in range(x.shape[0]):
            k = t if train else 0
            zh_t, ru_t, n_t, omu_t = zh[k], ru[k], n[k], omu[k]
            z_t = z[t]
            np.matmul(h[t], U, out=zh_t)
            np.add(z_t[..., :2 * H], zh_t[..., :2 * H], out=ru_t)
            sigmoid(ru_t, out=ru_t)
            np.multiply(ru_t[..., :H], zh_t[..., 2 * H:], out=n_t)
            np.add(z_t[..., 2 * H:], n_t, out=n_t)
            np.tanh(n_t, out=n_t)
            np.subtract(1.0, ru_t[..., H:], out=omu_t)
            np.multiply(omu_t, n_t, out=h[t + 1])
            h[t + 1] += np.multiply(ru_t[..., H:], h[t], out=tmp)
        return h

    def _layer_backward(self, p, x, ws, d_ext, grads, need_dx):
        H = self.hidden_size
        T = x.shape[0]
        ru, n, zh, h, omu = ws["ru"], ws["n"], ws["zh"], ws["h"], ws["one_minus_u"]
        dzx, dzh, tmp = ws["z"], ws["dzh"], ws["tmp"]  # z is spent: reuse it
        om_ru, om_n2, hmn = ws["one_minus_ru"], ws["one_minus_n2"], ws["h_minus_n"]
        np.subtract(1.0, ru, out=om_ru)
        np.square(n, out=om_n2)
        np.subtract(1.0, om_n2, out=om_n2)
        np.subtract(h[:-1], n, out=hmn)

        d_h, d_h_rec = ws["d_h"], ws["d_h_rec"]
        d_h_rec.fill(0.0)
        U_T = p["U"].swapaxes(-1, -2)
        for t in range(T - 1, -1, -1):
            ru_t, dzx_t, dzh_t = ru[t], dzx[t], dzh[t]
            d_n_pre = dzx_t[..., 2 * H:]
            np.add(d_ext[t], d_h_rec, out=d_h)
            np.multiply(d_h, omu[t], out=d_n_pre)
            d_n_pre *= om_n2[t]
            np.multiply(d_n_pre, zh[t][..., 2 * H:], out=dzx_t[..., :H])  # d_r
            np.multiply(d_h, hmn[t], out=dzx_t[..., H:2 * H])           # d_u
            dzx_t[..., :2 * H] *= ru_t
            dzx_t[..., :2 * H] *= om_ru[t]
            dzh_t[..., :2 * H] = dzx_t[..., :2 * H]
            np.multiply(d_n_pre, ru_t[..., :H], out=dzh_t[..., 2 * H:])
            np.multiply(d_h, ru_t[..., H:], out=d_h_rec)
            d_h_rec += np.matmul(dzh_t, U_T, out=tmp)

        g_W, g_U, g_b = grads
        _sum_reversed(np.matmul(x.swapaxes(-1, -2), dzx, out=ws["g_w"]), g_W)
        _sum_reversed(np.matmul(h[:-1].swapaxes(-1, -2), dzh, out=ws["g_u"]), g_U)
        _sum_reversed(dzx.sum(axis=2), g_b)
        if not need_dx:
            return None
        return np.matmul(dzx, p["W"].swapaxes(-1, -2), out=ws["d_x"])
