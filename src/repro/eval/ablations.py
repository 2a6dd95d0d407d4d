"""Ablation studies for the design choices DESIGN.md calls out.

Each mirrors a claim from the paper:

* ``ablation_resmodel`` — the paper tried every Table-4 model for the
  StaticTRR residual learner and found the decision tree best (§4.2.1);
* ``ablation_postprocessing`` — Algorithm 1's contribution to StaticTRR;
* ``ablation_finetune`` — DynamicTRR's online fine-tuning (§4.2.2);
* ``ablation_lstm_depth`` — two recurrent layers are optimal (§6.4.3).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.dynamic_trr import DynamicTRR
from ..core.static_trr import StaticTRR
from ..hardware.node import NodeSimulator
from ..hardware.platform import get_platform
from ..ml.metrics import mape
from ..ml.registry import make_baseline
from ..sensors.ipmi import IPMISensor
from ..workloads.catalog import default_catalog
from .experiments import ExperimentResult, _config
from .harness import EvalSettings

_TEST_NAMES = ("hpcc_fft", "graph500_bfs", "spec_xz", "hpcg")
_TRAIN_NAMES = ("spec_gcc", "spec_mcf", "parsec_ferret", "hpcc_hpl",
                "hpcc_stream", "parsec_radix")


def _fixture(settings: EvalSettings, duration_s: int = 300):
    spec = get_platform(settings.platform)
    sim = NodeSimulator(spec, seed=settings.seed)
    catalog = default_catalog(settings.seed)
    train = [sim.run(catalog.get(n), duration_s=duration_s // 2)
             for n in _TRAIN_NAMES]
    tests = [sim.run(catalog.get(n), duration_s=duration_s) for n in _TEST_NAMES]
    sensor = IPMISensor(spec, seed=settings.seed + 19)
    readings = [sensor.sample(b) for b in tests]
    return spec, train, tests, readings


def ablation_resmodel(settings: "EvalSettings | None" = None) -> ExperimentResult:
    """StaticTRR with different residual learners (paper picked DT)."""
    settings = settings or EvalSettings.from_env()
    spec, _, tests, readings = _fixture(settings)
    cfg = _config(settings)
    rows = []
    for name in ("DT", "LR", "RR", "RF", "KNN", "NN"):
        scores = []
        for bundle, r in zip(tests, readings):
            # "DT" uses StaticTRR's own shallow-tree default (the deployed
            # configuration); the alternatives come from the Table-4 zoo.
            factory = None if name == "DT" else (lambda n=name: make_baseline(n))
            trr = StaticTRR(
                cfg,
                p_upper=spec.max_node_power_w,
                p_bottom=spec.min_node_power_w,
                res_model_factory=factory,
            )
            p = trr.fit_restore(bundle.pmcs.matrix, r).p_trr
            scores.append(mape(bundle.node.values, p))
        rows.append([name, float(np.mean(scores))])
    return ExperimentResult(
        title="Ablation — ResModel learner choice (StaticTRR)",
        columns=["ResModel", "Node MAPE%"],
        rows=rows,
        notes="Paper §4.2.1: 'we tested all the linear and nonlinear methods "
        "... DT worked best'.",
    )


def ablation_postprocessing(settings: "EvalSettings | None" = None) -> ExperimentResult:
    """Algorithm 1 on vs off (off = raw ResModel output everywhere)."""
    settings = settings or EvalSettings.from_env()
    spec, _, tests, readings = _fixture(settings)
    cfg = _config(settings)
    rows = []
    for bundle, r in zip(tests, readings):
        trr = StaticTRR(cfg, p_upper=spec.max_node_power_w,
                        p_bottom=spec.min_node_power_w)
        result = trr.fit_restore(bundle.pmcs.matrix, r)
        fused = mape(bundle.node.values, result.p_trr)
        raw_res = mape(bundle.node.values, result.p_residual)
        raw_spline = mape(bundle.node.values, result.p_splined)
        rows.append([bundle.workload, fused, raw_res, raw_spline])
    return ExperimentResult(
        title="Ablation — Algorithm-1 post-processing",
        columns=["Benchmark", "fused MAPE%", "ResModel-only MAPE%",
                 "Spline-only MAPE%"],
        rows=rows,
        notes="The fusion should never be much worse than the better of its "
        "two inputs.",
    )


def ablation_finetune(settings: "EvalSettings | None" = None) -> ExperimentResult:
    """DynamicTRR with and without online fine-tuning."""
    settings = settings or EvalSettings.from_env()
    spec, train, tests, readings = _fixture(settings)
    cfg = _config(settings)
    dyn = DynamicTRR(cfg)
    dyn.fit(train, p_bottom=spec.min_node_power_w, p_upper=spec.max_node_power_w)
    rows = []
    for bundle, r in zip(tests, readings):
        with_ft = mape(bundle.node.values, dyn.restore(bundle.pmcs.matrix, r))
        frozen = np.empty(len(bundle))
        for _job in dyn.session().chunk_steps(bundle.pmcs.matrix, r, frozen):
            pass  # adaptation disabled: the readings' fine-tunes never run
        rows.append([bundle.workload, with_ft, mape(bundle.node.values, frozen)])
    return ExperimentResult(
        title="Ablation — DynamicTRR online fine-tuning",
        columns=["Benchmark", "with fine-tune MAPE%", "without MAPE%"],
        rows=rows,
        notes="Paper §6.4.5: fine-tuning takes < 2 s and keeps the model "
        "calibrated on unseen programs.",
    )


def ablation_trend_model(settings: "EvalSettings | None" = None) -> ExperimentResult:
    """StaticTRR's trend component: natural cubic spline vs linear interp.

    The paper selects splines for the long-term trend; this checks that the
    choice actually pays against the cheapest alternative.
    """
    from ..interp.linear import LinearInterpolator

    settings = settings or EvalSettings.from_env()
    spec, _, tests, readings = _fixture(settings)
    cfg = _config(settings)
    rows = []
    for name, factory in (("spline", None), ("linear", LinearInterpolator)):
        scores = []
        for bundle, r in zip(tests, readings):
            trr = StaticTRR(cfg, p_upper=spec.max_node_power_w,
                            p_bottom=spec.min_node_power_w,
                            trend_factory=factory)
            scores.append(mape(bundle.node.values,
                               trr.fit_restore(bundle.pmcs.matrix, r).p_trr))
        rows.append([name, float(np.mean(scores))])
    return ExperimentResult(
        title="Ablation — StaticTRR trend model (spline vs linear)",
        columns=["Trend", "Node MAPE%"],
        rows=rows,
        notes="The spline should match or beat connect-the-dots on smooth "
        "power trends.",
    )


def ablation_lstm_depth(settings: "EvalSettings | None" = None) -> ExperimentResult:
    """Hyperparameter study: number of recurrent layers (§6.4.3)."""
    settings = settings or EvalSettings.from_env()
    spec, train, tests, readings = _fixture(settings)
    rows = []
    for layers in (1, 2, 4):
        cfg = replace(_config(settings), lstm_layers=layers)
        dyn = DynamicTRR(cfg)
        dyn.fit(train, p_bottom=spec.min_node_power_w, p_upper=spec.max_node_power_w)
        scores = [
            mape(b.node.values, dyn.restore(b.pmcs.matrix, r))
            for b, r in zip(tests, readings)
        ]
        rows.append([layers, float(np.mean(scores))])
    return ExperimentResult(
        title="Ablation — LSTM depth (paper: accuracy peaks at 2 layers)",
        columns=["Layers", "Node MAPE%"],
        rows=rows,
    )
