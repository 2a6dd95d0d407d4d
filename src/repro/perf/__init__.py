"""Model compilation for the inference hot paths.

:mod:`repro.perf.compile` / :mod:`repro.perf.flat_tree` /
:mod:`repro.perf.flat_mlp` / :mod:`repro.perf.flat_lstm` convert fitted
estimators into contiguous-array predictors (vectorised frontier descent
for trees, stacked batched traversal for ensembles, affine-folded buffered
forwards for the MLP and the LSTM). The :mod:`repro.ml` estimators build
these lazily on first ``predict``, so every caller — StaticTRR's ResModel,
the Table-4/5 baselines, SRR, ``PowerMonitorService.observe_run`` — gets
the fast path with no API change.

See ``docs/performance.md`` for the cache-invalidation contract and for
how the end-to-end benchmark (``perfbench/``) measures it.
"""

from .batch import TreeStack, compile_pool, single_tree_of
from .compile import (
    compile_boosting,
    compile_forest,
    compile_mlp,
    compile_model,
    compile_tree,
    precompile,
)
from .flat_lstm import CompiledLSTM, compile_lstm
from .flat_mlp import CompiledMLP
from .flat_tree import CompiledBoosting, CompiledForest, CompiledTree, CompiledTreeEnsemble

__all__ = [
    "CompiledBoosting",
    "CompiledForest",
    "CompiledLSTM",
    "CompiledMLP",
    "CompiledTree",
    "CompiledTreeEnsemble",
    "TreeStack",
    "single_tree_of",
    "compile_boosting",
    "compile_pool",
    "compile_lstm",
    "compile_forest",
    "compile_mlp",
    "compile_model",
    "compile_tree",
    "precompile",
]
