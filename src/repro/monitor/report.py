"""Operator reports from monitoring logs.

Turns a :class:`~repro.monitor.sinks.MonitorLog` (or raw restored arrays)
into the text report an operator actually reads: per-run energy and peak,
anomaly summary, and terminal sparklines. Everything is plain text so it
can be mailed from a cron job on a head node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..eval.ascii_plot import sparkline, strip_chart
from ..types import PowerTrace
from .anomaly import PowerAnomalyDetector
from .sinks import MonitorLog


@dataclass(frozen=True)
class RunSummary:
    """Per-run roll-up used by the report."""

    workload: str
    duration_s: int
    energy_kj: float
    mean_w: float
    peak_w: float
    n_spikes: int
    n_level_shifts: int


def summarise_runs(
    log: MonitorLog,
    run_lengths: "list[int] | None" = None,
    detector: "PowerAnomalyDetector | None" = None,
) -> list[RunSummary]:
    """Split a node's log back into runs and roll each up.

    ``run_lengths`` gives each run's sample count; when omitted the log is
    treated as a single run.
    """
    if len(log) == 0:
        raise ValidationError(f"log for {log.node_id} is empty")
    lengths = run_lengths or [len(log)]
    if sum(lengths) != len(log):
        raise ValidationError(
            f"run lengths sum to {sum(lengths)} but the log has {len(log)}"
        )
    names = log.runs if len(log.runs) == len(lengths) else [
        f"run-{i}" for i in range(len(lengths))
    ]
    det = detector or PowerAnomalyDetector()
    out: list[RunSummary] = []
    start = 0
    for name, n in zip(names, lengths):
        seg = log.p_node[start : start + n]
        anomalies = det.detect(seg)
        out.append(
            RunSummary(
                workload=name,
                duration_s=n,
                energy_kj=PowerTrace(np.maximum(seg, 0.0)).energy_joules() / 1e3,
                mean_w=float(seg.mean()),
                peak_w=float(seg.max()),
                n_spikes=sum(1 for a in anomalies if a.kind == "spike"),
                n_level_shifts=sum(1 for a in anomalies if a.kind == "level_shift"),
            )
        )
        start += n
    return out


def render_node_report(
    log: MonitorLog,
    run_lengths: "list[int] | None" = None,
    detector: "PowerAnomalyDetector | None" = None,
    width: int = 60,
) -> str:
    """The full text report for one node."""
    summaries = summarise_runs(log, run_lengths, detector)
    lines = [
        f"power report — {log.node_id}",
        "=" * 64,
        f"{'run':>18} | {'dur s':>5} | {'kJ':>7} | {'mean W':>7} | "
        f"{'peak W':>7} | {'spk':>3} | {'shift':>5}",
        "-" * 64,
    ]
    for s in summaries:
        lines.append(
            f"{s.workload:>18} | {s.duration_s:5d} | {s.energy_kj:7.2f} | "
            f"{s.mean_w:7.1f} | {s.peak_w:7.1f} | {s.n_spikes:3d} | "
            f"{s.n_level_shifts:5d}"
        )
    lines.append("")
    lines.append("restored streams:")
    lines.append(
        strip_chart(
            {"node": log.p_node, "cpu": log.p_cpu, "mem": log.p_mem},
            width=width,
        )
    )
    total_kj = sum(s.energy_kj for s in summaries)
    lines.append("")
    lines.append(f"total restored energy: {total_kj:.2f} kJ over "
                 f"{len(log)} monitored seconds")
    return "\n".join(lines)
