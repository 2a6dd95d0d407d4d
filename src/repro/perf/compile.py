"""Fitted estimator → compiled flat-array predictor.

The compilers are duck-typed on the fitted attributes of the
:mod:`repro.ml` estimators (``_nodes``, ``estimators_``, ``weights_``) so
this module never imports the model classes — ``repro.ml`` lazily imports
*us* from inside ``predict`` to build its transparent fast path, and
keeping this side import-free avoids any load-order cycle.

Cache-invalidation contract (honoured by every integrated estimator):

* ``predict`` builds the compiled form on first use and caches it on the
  estimator as ``_compiled``;
* every ``fit`` / ``partial_fit`` / warm start clears ``_compiled`` before
  touching parameters, so a stale predictor can never serve a refitted
  model;
* :func:`precompile` forces the build eagerly (e.g. at service
  registration time) so the first monitored batch does not pay it.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from .flat_lstm import compile_lstm as compile_lstm  # re-export: window-parameterised
from .flat_mlp import CompiledMLP
from .flat_tree import CompiledBoosting, CompiledForest, CompiledTree


def compile_tree(tree) -> CompiledTree:
    """Flatten a fitted :class:`~repro.ml.tree.DecisionTreeRegressor`."""
    nodes = getattr(tree, "_nodes", None)
    if nodes is None:
        raise NotFittedError("compile_tree needs a fitted tree")
    n = len(nodes)
    return CompiledTree(
        np.fromiter((nd.feature for nd in nodes), dtype=np.intp, count=n),
        np.fromiter((nd.threshold for nd in nodes), dtype=np.float64, count=n),
        np.fromiter((nd.left for nd in nodes), dtype=np.intp, count=n),
        np.fromiter((nd.right for nd in nodes), dtype=np.intp, count=n),
        np.fromiter((nd.value for nd in nodes), dtype=np.float64, count=n),
    )


def compile_forest(forest) -> CompiledForest:
    """Stack a fitted random forest into one batched traversal."""
    trees = getattr(forest, "estimators_", None)
    if trees is None:
        raise NotFittedError("compile_forest needs a fitted forest")
    return CompiledForest([compile_tree(t) for t in trees])


def compile_boosting(booster) -> CompiledBoosting:
    """Stack a fitted gradient-boosting ensemble (keeps init/shrinkage)."""
    trees = getattr(booster, "estimators_", None)
    if trees is None:
        raise NotFittedError("compile_boosting needs a fitted booster")
    return CompiledBoosting(
        [compile_tree(t) for t in trees],
        init=booster.init_,
        learning_rate=booster.learning_rate,
    )


def compile_mlp(mlp) -> CompiledMLP:
    """Fold a fitted :class:`~repro.ml.neural.MLPRegressor` forward pass."""
    if getattr(mlp, "weights_", None) is None:
        raise NotFittedError("compile_mlp needs a fitted MLP")
    return CompiledMLP(
        weights=mlp.weights_,
        biases=mlp.biases_,
        x_mean=mlp._x_mean,
        x_scale=mlp._x_scale,
        y_mean=mlp._y_mean,
        y_scale=mlp._y_scale,
        activation=mlp.activation,
        single_output=mlp._single_output,
    )


def _compiler_for(est):
    """The matching compiler, or None for estimator types with no flat form
    (linear models are already vectorised; the LSTM's segment kernel is
    window-parameterised, so sessions build it via :func:`compile_lstm`
    rather than through this shape-only dispatch)."""
    if getattr(est, "_nodes", None) is not None:
        return compile_tree
    if getattr(est, "estimators_", None) is not None:
        return compile_boosting if hasattr(est, "init_") else compile_forest
    if getattr(est, "weights_", None) is not None and hasattr(est, "_x_mean"):
        return compile_mlp
    return None


def compile_model(est):
    """Dispatch on the fitted estimator's shape; raises for unsupported types."""
    compiler = _compiler_for(est)
    if compiler is None:
        raise NotFittedError(
            f"no compiled form for {type(est).__name__}; supported: fitted "
            "tree, forest, boosting, MLP"
        )
    return compiler(est)


def precompile(*estimators) -> int:
    """Eagerly build and cache the compiled form of each supported estimator.

    Unsupported or unfitted estimators are skipped (capability-checked, not
    caught), so callers can pass whatever models they hold. Returns the
    number of predictors built.
    """
    built = 0
    for est in estimators:
        compiler = _compiler_for(est)
        if compiler is None:
            continue
        est._compiled = compiler(est)
        built += 1
    return built
