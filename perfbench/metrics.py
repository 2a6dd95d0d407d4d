"""Metric names and units, and the per-layer table built from the spans.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("chunk_latency_ms_p50", "ms"),
    ("chunk_latency_ms_tail", "ms"),
    ("scrape_ms_p50", "ms"),
    ("scrape_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("node_mape_pct", "%"),
    ("attribution_mape_pct", "%"),
)

#: Per-layer self times: metric name -> span name (see tracing.LAYERS).
SELF_TIMES = {
    "hardware.simulate_s": "hardware.simulate",
    "gpu.simulate_s": "gpu.simulate",
    "gpu.srr_fit_s": "gpu.srr_fit",
    "core.fit_initial_s": "core.fit_initial",
    "sensors.ipmi.sample_s": "sensors.ipmi.sample",
    "monitor.fleet.submit_s": "monitor.fleet.submit",
    "monitor.governor.update_s": "monitor.governor.update",
    "core.static.fit_stream_s": "core.static.fit_stream",
    "ml.tree.fit_s": "ml.tree.fit",
    "interp.spline.fit_s": "interp.spline.fit",
    "monitor.fleet.tick_s": "monitor.fleet.tick",
    **{f"stream.stage.{stage}.self_s": f"stream.stage.{stage}"
       for stage in ("ingest", "calibrate", "gate", "restore", "attribute",
                     "sink")},
    "core.static.restore_chunk_s": "core.static.restore_chunk",
    "perf.treestack.predict_s": "perf.treestack.predict",
    "core.srr.predict_batched_s": "core.srr.predict_batched",
    "gpu.srr.predict_batched_s": "gpu.srr.predict_batched",
    "core.dynamic.run_chunk_s": "core.dynamic.run_chunk",
    "ml.recurrent.partial_fit_s": "ml.recurrent.partial_fit",
    "perf.lstm.forecast_s": "perf.lstm.forecast",
    "obs.registry_snapshot_s": "obs.registry_snapshot",
    "serve.queue_sink.write_s": "serve.queue_sink.write",
    "serve.hub.publish_s": "serve.hub.publish",
    "serve.metrics_text_s": "serve.metrics_text",
    "obs.merge_snapshots_s": "obs.merge_snapshots",
    "obs.render_prometheus_s": "obs.render_prometheus",
}

#: Per-layer call counts: metric name -> span name.
CALLS = {
    "sensors.ipmi.samples": "sensors.ipmi.sample",
    "monitor.fleet.submits": "monitor.fleet.submit",
    "ml.tree.fit_calls": "ml.tree.fit",
    "interp.spline.fit_calls": "interp.spline.fit",
    "monitor.fleet.ticks": "monitor.fleet.tick",
    "ml.recurrent.partial_fit_calls": "ml.recurrent.partial_fit",
    "perf.lstm.forecast_calls": "perf.lstm.forecast",
    "serve.queue_sink.records": "serve.queue_sink.write",
}

#: Everything else the traced run reports, with its unit.
OTHERS = (
    ("sensors.ipmi.readings", "count"),
    ("perf.treestack.batched_fraction", "ratio"),
    ("obs.tracer.spans", "count"),
    ("serve.collector.events", "count"),
    ("serve.merge_latency_ms_mean", "ms"),
    ("serve.metrics_bytes", "bytes"),
    ("serve.metrics_series", "count"),
    ("serve.scrape_late_ms", "ms"),
    ("monitor.degraded_runs", "count"),
    ("host.ref_loop_ms", "ms"),
    ("trace.unattributed_fraction", "ratio"),
    ("trace.overhead_fraction", "ratio"),
)

PER_LAYER = (
    tuple((name, "s") for name in SELF_TIMES)
    + tuple((name, "count") for name in CALLS)
    + OTHERS
)


def layer_metrics(agg: dict, counts, extra: dict) -> "dict[str, float]":
    """Every per-layer value from span aggregates, counters and ``extra``
    (the values measured outside the spans)."""
    out = {name: agg.get(span, {}).get("self_s", 0.0)
           for name, span in SELF_TIMES.items()}
    out.update({name: agg.get(span, {}).get("calls", 0)
                for name, span in CALLS.items()})
    static_rows = counts.get("static_rows", 0)
    out["sensors.ipmi.readings"] = counts.get("sensors.ipmi.readings", 0)
    out["obs.tracer.spans"] = counts.get("obs.tracer.spans", 0)
    out["perf.treestack.batched_fraction"] = (
        counts.get("batched_rows", 0) / static_rows if static_rows else 0.0
    )
    out.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: out[name] for name, _ in PER_LAYER}


def render_table(workload: str, values: dict, agg: dict) -> str:
    """The traced run's per-layer table: value, calls and inclusive time."""
    units = dict(PER_LAYER)
    lines = [f"per-layer breakdown, workload {workload}",
             f"  {'metric':<36} {'value':>14} {'unit':<6} {'calls':>9} "
             f"{'incl s':>10}"]
    for name, _ in PER_LAYER:
        span = SELF_TIMES.get(name) or CALLS.get(name)
        entry = agg.get(span, {}) if span else {}
        calls = f"{entry['calls']:d}" if entry else ""
        incl = f"{entry['total_s']:.4f}" if entry else ""
        lines.append(f"  {name:<36} {values[name]:>14.6g} {units[name]:<6} "
                     f"{calls:>9} {incl:>10}")
    return "\n".join(lines)
