"""``scripts/check_perfbench.py``: the committed before/after record gate.

Synthetic records against the real ``BENCHMARK.json``: every run reports
every end-to-end metric at 1.0 unless a test moves one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "check_perfbench", REPO / "scripts" / "check_perfbench.py")
check_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perfbench)


def _run(**values):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    return {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}


def _record(pairs=3):
    return {
        "seconds": BENCHMARK["run_seconds"],
        "workloads": {
            w["name"]: {"parent": [_run() for _ in range(pairs)],
                        "change": [_run() for _ in range(pairs)]}
            for w in BENCHMARK["workloads"]
        },
    }


def _gate(record, tmp_path, capsys):
    path = tmp_path / "BENCH_TEST.json"
    path.write_text(json.dumps(record))
    code = check_perfbench.main([str(path)])
    return code, capsys.readouterr().out


def _set_change(record, workload, **values):
    sides = record["workloads"][workload]
    sides["change"] = [_run(**values) for _ in sides["change"]]


def test_equal_medians_pass(tmp_path, capsys):
    code, out = _gate(_record(), tmp_path, capsys)
    assert code == 0, out
    assert "FAIL" not in out


def test_regression_within_bound_passes(tmp_path, capsys):
    record = _record()
    _set_change(record, "static-long", samples_per_s=0.8, setup_s=1.2)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 0, out


def test_higher_is_better_regression_fails(tmp_path, capsys):
    record = _record()
    _set_change(record, "serve-wide", samples_per_s=0.7)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "FAIL" in out and "serve-wide, samples_per_s" in out


def test_lower_is_better_regression_fails(tmp_path, capsys):
    record = _record()
    _set_change(record, "online-interval", chunk_latency_ms_p50=1.3)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "online-interval, chunk_latency_ms_p50" in out


def test_improvement_in_either_direction_passes(tmp_path, capsys):
    record = _record()
    _set_change(record, "static-long", samples_per_s=2.0, peak_rss_mb=0.5)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 0, out


def test_medians_not_means_are_compared(tmp_path, capsys):
    record = _record()
    record["workloads"]["static-long"]["change"][0] = _run(samples_per_s=0.01)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 0, out


def test_zero_parent_median_fails_on_any_worsening(tmp_path, capsys):
    record = _record()
    sides = record["workloads"]["static-long"]
    sides["parent"] = [_run(attribution_mape_pct=0.0) for _ in range(3)]
    _set_change(record, "static-long", attribution_mape_pct=0.01)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "static-long, attribution_mape_pct" in out


@pytest.mark.parametrize("side", ["parent", "change"])
def test_incorrect_run_fails(tmp_path, capsys, side):
    record = _record()
    record["workloads"]["static-long"][side][1]["correct"] = False
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert f"static-long: {side} run 1 reports correct=False" in out


def test_failed_operations_fail(tmp_path, capsys):
    record = _record()
    record["workloads"]["serve-wide"]["change"][2]["failed"] = 1
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "serve-wide: change run 2" in out and "failed=1" in out


def test_missing_workload_fails(tmp_path, capsys):
    record = _record()
    del record["workloads"]["online-interval"]
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "online-interval: missing from the record" in out


def test_empty_side_fails(tmp_path, capsys):
    record = _record()
    record["workloads"]["serve-wide"]["parent"] = []
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "serve-wide: no parent run" in out


def test_missing_metric_fails(tmp_path, capsys):
    record = _record()
    del record["workloads"]["static-long"]["change"][0]["metrics"]["setup_s"]
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "static-long, setup_s: missing from a change run" in out


def test_wrong_seconds_fails(tmp_path, capsys):
    record = _record()
    record["seconds"] = BENCHMARK["run_seconds"] // 2
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "seconds:" in out


def test_every_record_is_gated(tmp_path, capsys):
    good = tmp_path / "BENCH_GOOD.json"
    good.write_text(json.dumps(_record()))
    bad_record = _record()
    bad_record["seconds"] = 1
    bad = tmp_path / "BENCH_BAD.json"
    bad.write_text(json.dumps(bad_record))
    assert check_perfbench.main([str(good), str(bad)]) == 1
    assert check_perfbench.main([str(good)]) == 0


def test_flags_and_no_paths_are_usage_errors(capsys):
    assert check_perfbench.main([]) == 2
    assert check_perfbench.main(["--baseline"]) == 2


def test_met_claim_passes(tmp_path, capsys):
    record = _record()
    record["claim"] = {"metric": "samples_per_s", "workload": "static-long"}
    _set_change(record, "static-long", samples_per_s=1.2)
    code, out = _gate(record, tmp_path, capsys)
    assert code == 0, out
    assert "claim: static-long samples_per_s" in out and "met" in out


def test_unmet_claim_fails(tmp_path, capsys):
    # Within every bound, but the claimed lower-is-better metric did not
    # fall: equal medians do not beat the parent.
    record = _record()
    record["claim"] = {"metric": "chunk_latency_ms_p50",
                       "workload": "static-long"}
    code, out = _gate(record, tmp_path, capsys)
    assert code == 1
    assert "claim: static-long, chunk_latency_ms_p50" in out
    assert "NOT MET" in out


def test_record_without_claim_is_not_checked_for_one(tmp_path, capsys):
    code, out = _gate(_record(), tmp_path, capsys)
    assert code == 0, out
    assert "claim:" not in out


@pytest.mark.parametrize("claim", [
    {"metric": "samples_per_second", "workload": "static-long"},
    {"metric": "samples_per_s", "workload": "static-short"},
    {"metric": "hardware.simulate_s", "workload": "static-long"},
    "samples_per_s",
])
def test_unknown_claim_is_a_usage_error(tmp_path, capsys, claim):
    record = _record()
    record["claim"] = claim
    path = tmp_path / "BENCH_TEST.json"
    path.write_text(json.dumps(record))
    assert check_perfbench.main([str(path)]) == 2
    assert "claim" in capsys.readouterr().err
