"""SRR: spatial-resolution restoration (paper §4.3).

A shallow MLP *distributes* node power to components — the bi-directional
workflow of Fig. 5(c). Concretely:

* the component budget is ``P_node − P_other`` where the peripheral draw
  ``P_other`` is learned as a constant at fit time (§5.2 fixes it at ~25 W
  and observes < 1 W variation);
* the MLP maps ``(P_node, PMCs) → s``, the CPU share of that budget, and
  the predictions are ``P_CPU = s·budget``, ``P_MEM = (1−s)·budget``.

Tying the component sum to the measured node reading is exactly what the
paper's unidirectional baselines cannot do, and it is where the Table-7/8
gap comes from. With ``use_pnode=False`` (the Table-8 ablation) no budget
exists, so the model degrades to a plain two-output PMC regression — the
same class as the baselines.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError, ValidationError
from ..ml.neural import MLPRegressor
from ..obs import current_tracer
from ..utils.numeric import sigmoid
from ..utils.validation import check_1d, check_2d, check_consistent_length
from .config import HighRPMConfig


class SRR:
    """Node-to-component power distribution model.

    Parameters
    ----------
    config:
        Framework configuration (hidden width, training budget, seed).
    use_pnode:
        When False, the node-power feature and the budget constraint are
        dropped — the Table-8 ablation arm.
    """

    def __init__(
        self, config: "HighRPMConfig | None" = None, use_pnode: bool = True
    ) -> None:
        self.config = config or HighRPMConfig()
        self.use_pnode = bool(use_pnode)
        self.model_: "MLPRegressor | None" = None
        self.other_w_: float = 0.0
        self.n_pmcs_: int = 0

    # ------------------------------------------------------------------ utils
    def _check_inputs(self, pmcs, p_node):
        pmcs = check_2d(pmcs, "pmcs")
        if self.use_pnode:
            if p_node is None:
                raise ValidationError(
                    "this SRR was built with use_pnode=True; pass p_node"
                )
            p_node = check_1d(p_node, "p_node")
            check_consistent_length(pmcs, p_node, names=("pmcs", "p_node"))
        return pmcs, p_node

    @staticmethod
    def _logit(s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 1e-4, 1.0 - 1e-4)
        return np.log(s / (1.0 - s))

    # -------------------------------------------------------------------- fit
    def fit(self, pmcs: np.ndarray, p_node: np.ndarray, p_cpu: np.ndarray,
            p_mem: np.ndarray) -> "SRR":
        """Train on an instrumented campaign (direct-measurement labels)."""
        pmcs, p_node_checked = self._check_inputs(
            pmcs, p_node if self.use_pnode else None
        )
        p_node = check_1d(p_node, "p_node")
        p_cpu = check_1d(p_cpu, "p_cpu")
        p_mem = check_1d(p_mem, "p_mem")
        check_consistent_length(pmcs, p_node, p_cpu, p_mem,
                                names=("pmcs", "p_node", "p_cpu", "p_mem"))
        self.n_pmcs_ = pmcs.shape[1]
        cfg = self.config
        self.model_ = MLPRegressor(
            hidden_layer_sizes=cfg.srr_hidden,
            max_iter=cfg.srr_iters,
            random_state=cfg.seed,
        )
        if self.use_pnode:
            self.other_w_ = float(np.median(p_node - p_cpu - p_mem))
            X = np.column_stack([p_node, pmcs])
            share = p_cpu / np.maximum(p_cpu + p_mem, 1e-9)
            self.model_.fit(X, self._logit(share))
        else:
            self.model_.fit(pmcs, np.column_stack([p_cpu, p_mem]))
        return self

    def partial_fit(self, pmcs, p_node, p_cpu, p_mem, n_steps: int = 200) -> "SRR":
        """Fine-tune with reinforcement samples (active-learning stage)."""
        if self.model_ is None:
            raise NotFittedError("SRR.partial_fit before fit")
        p_cpu = check_1d(p_cpu, "p_cpu")
        p_mem = check_1d(p_mem, "p_mem")
        if self.use_pnode:
            p_node = check_1d(p_node, "p_node")
            X = np.column_stack([p_node, check_2d(pmcs, "pmcs")])
            share = p_cpu / np.maximum(p_cpu + p_mem, 1e-9)
            self.model_.partial_fit(X, self._logit(share), n_steps=n_steps)
        else:
            self.model_.partial_fit(
                check_2d(pmcs, "pmcs"), np.column_stack([p_cpu, p_mem]),
                n_steps=n_steps,
            )
        return self

    # ---------------------------------------------------------------- predict
    def predict(
        self, pmcs: np.ndarray, p_node: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(P_CPU, P_MEM) estimates.

        With the budget constraint active, estimates always sum to
        ``p_node − other_w_`` — the restored node reading is *distributed*,
        never contradicted.
        """
        if self.model_ is None:
            raise NotFittedError("SRR.predict before fit")
        pmcs, p_node = self._check_inputs(pmcs, p_node)
        with current_tracer().span("srr.split"):
            if self.use_pnode:
                X = np.column_stack([p_node, pmcs])
                share = sigmoid(self.model_.predict(X))
                budget = np.maximum(p_node - self.other_w_, 0.0)
                return share * budget, (1.0 - share) * budget
            out = self.model_.predict(pmcs)
            return np.maximum(out[:, 0], 0.0), np.maximum(out[:, 1], 0.0)

    def predict_batched(
        self, parts: "list[tuple[np.ndarray, np.ndarray | None]]"
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """(P_CPU, P_MEM) for many runs' chunks in one forward pass.

        ``parts`` holds ``(pmcs, p_node)`` pairs, one per pending chunk (a
        fleet tick batches one chunk per node). The concatenated MLP
        forward amortizes per-call overhead across the fleet; per-part
        outputs are bit-identical to calling :meth:`predict` on each part
        (the compiled forward is batch-size independent).
        """
        if self.model_ is None:
            raise NotFittedError("SRR.predict before fit")
        checked = [self._check_inputs(pmcs, p_node) for pmcs, p_node in parts]
        if not checked:
            return []
        sizes = [pmcs.shape[0] for pmcs, _ in checked]
        bounds = np.cumsum(sizes)[:-1]
        with current_tracer().span("srr.split"):
            if self.use_pnode:
                # One preallocated design matrix instead of a column_stack
                # plus concatenate per part — same values, one allocation.
                X = np.empty((int(sum(sizes)), checked[0][0].shape[1] + 1))
                ofs = 0
                for (pmcs, p_node), k in zip(checked, sizes):
                    X[ofs:ofs + k, 0] = p_node
                    X[ofs:ofs + k, 1:] = pmcs
                    ofs += k
                shares = np.split(sigmoid(self.model_.predict(X)), bounds)
                out = []
                for (_, p_node), share in zip(checked, shares):
                    budget = np.maximum(p_node - self.other_w_, 0.0)
                    out.append((share * budget, (1.0 - share) * budget))
                return out
            raw = self.model_.predict(np.concatenate([pmcs for pmcs, _ in checked]))
            return [
                (np.maximum(r[:, 0], 0.0), np.maximum(r[:, 1], 0.0))
                for r in np.split(raw, bounds)
            ]
