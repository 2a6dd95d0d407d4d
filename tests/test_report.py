"""Tests for the operator report generator."""

import pytest

from repro.errors import ValidationError
from repro.monitor import MonitorLog
from repro.monitor.report import render_node_report, summarise_runs
from repro.stream import PowerChunk


def log_run(log, workload, mode, p_node, p_cpu, p_mem):
    """Log one run as a single chunk plus its run boundary."""
    log.append_chunk(PowerChunk(
        node_id=log.node_id, workload=workload, start=0, stop=len(p_node),
        mode=mode, p_node=p_node, p_cpu=p_cpu, p_mem=p_mem,
    ))
    log.end_run(workload, mode)


@pytest.fixture()
def log(rng):
    log = MonitorLog("node-7")
    for name, level in (("jobA", 80.0), ("jobB", 95.0)):
        n = 120
        p_node = level + rng.normal(0, 1.0, n)
        p_cpu = p_node * 0.5
        p_mem = p_node * 0.2
        log_run(log, name, "dynamic", p_node, p_cpu, p_mem)
    return log


class TestSummaries:
    def test_single_run_default(self, log):
        summaries = summarise_runs(log)
        assert len(summaries) == 1
        assert summaries[0].duration_s == 240

    def test_per_run_split(self, log):
        summaries = summarise_runs(log, run_lengths=[120, 120])
        assert [s.workload for s in summaries] == ["jobA", "jobB"]
        assert summaries[1].mean_w > summaries[0].mean_w

    def test_energy_matches_trace(self, log):
        s = summarise_runs(log, run_lengths=[120, 120])[0]
        assert s.energy_kj == pytest.approx(log.p_node[:120].sum() / 1e3, rel=1e-9)

    def test_length_mismatch_rejected(self, log):
        with pytest.raises(ValidationError):
            summarise_runs(log, run_lengths=[100, 100])

    def test_empty_log_rejected(self):
        with pytest.raises(ValidationError):
            summarise_runs(MonitorLog("empty"))

    def test_spikes_counted(self, rng):
        log = MonitorLog("n")
        p = 80.0 + rng.normal(0, 0.5, 200)
        p[100] += 25.0
        log_run(log, "spiky", "static", p, p * 0.5, p * 0.2)
        s = summarise_runs(log)[0]
        assert s.n_spikes >= 1


class TestRender:
    def test_report_contains_everything(self, log):
        text = render_node_report(log, run_lengths=[120, 120])
        assert "node-7" in text
        assert "jobA" in text and "jobB" in text
        assert "total restored energy" in text
        assert "node" in text and "cpu" in text and "mem" in text

    def test_report_rows_match_runs(self, log):
        text = render_node_report(log, run_lengths=[120, 120])
        body = [l for l in text.splitlines() if l.startswith(" ") and "|" in l]
        assert len(body) >= 2
