"""Tests for the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import queue
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tracing  # noqa: E402
from perfbench.checks import (  # noqa: E402
    RecordChecker, check_identical, source_digest,
)
from perfbench.host import REF_MS, SCRAPE_PARTS, HostSpeed  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.scrape import OpenLoop  # noqa: E402
from perfbench.stats import spread, tail_percentile  # noqa: E402


# ------------------------------------------------------------ tail rule
def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    p, value, n = tail_percentile(reversed(samples))
    assert (p, value, n) == (90.0, 90, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_rises_with_the_sample_count():
    p, value, n = tail_percentile(range(1000))
    assert (p, value, n) == (99.0, 989, 1000)
    p, value, _ = tail_percentile(range(37))
    assert value == 26 and p == pytest.approx(100 * 27 / 37)


def test_tail_of_few_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# ----------------------------------------------------------- host speed
def _at(speed_factor: float) -> dict:
    """One probe's parts on a host ``speed_factor`` times as slow."""
    return {part: speed_factor * ms for part, ms in REF_MS.items()}


def test_host_scale_reports_a_time_at_the_reference_speed():
    speed = HostSpeed([(1.0, _at(2.0)), (2.0, _at(2.2)), (3.0, _at(1.8))])
    assert speed.ms() == pytest.approx(2.0 * sum(REF_MS.values()))
    # over the whole run the host ran at half speed: a 10-ms tick reads 5
    assert 10.0 * speed.scale(-math.inf, math.inf) == pytest.approx(5.0)
    assert speed.scaled([(0.5, 10.0)], SCRAPE_PARTS) == pytest.approx(
        [5.0])


def test_host_scale_takes_the_probes_around_an_interval():
    # fast until t=10, then twice as slow
    speed = HostSpeed([(t, _at(1.0 if t < 10 else 2.0))
                       for t in range(0, 20, 2)])
    assert speed.scale(4.5, 5.5) == pytest.approx(1.0)  # probes at 4 and 6
    assert speed.scale(14.5, 15.0) == pytest.approx(0.5)
    # straddling the change: probes at 8, 10 and 12 -> mean factor 5/3
    assert speed.scale(8.5, 11.0) == pytest.approx(3 / 5)
    # before the first probe and after the last, the nearest one counts
    assert speed.scale(-5.0, -4.0) == pytest.approx(1.0)
    assert speed.scale(30.0, 31.0) == pytest.approx(0.5)


def test_scrape_parts_follow_their_own_speed():
    # only the loop runs slow: a scrape's scale does not see it
    speed = HostSpeed([(0.0, dict(REF_MS, loop=3 * REF_MS["loop"]))])
    assert speed.scale(0.0, 1.0, SCRAPE_PARTS) == pytest.approx(1.0)
    assert speed.scale(0.0, 1.0) < 1.0


def test_host_probe_times_every_part_and_waits_until_due():
    speed = HostSpeed()
    took = speed.probe(2)
    assert len(speed.samples) == 2
    assert all(set(parts) == set(REF_MS) and min(parts.values()) > 0
               for _, parts in speed.samples)
    assert took >= sum(sum(p.values()) for _, p in speed.samples) / 1e3
    assert speed.probe_due() == 0.0  # just probed
    assert len(speed.samples) == 2


# ----------------------------------------------------- open-loop timing
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_latency_counts_from_the_scheduled_send_time():
    clock = FakeClock()
    loop = OpenLoop(rate_hz=10.0, start=0.0, limit=4)

    def slow_request():  # every scrape takes 250 ms; one is due each 100 ms
        clock.now += 0.25

    loop.run(slow_request, stop=lambda: False, clock=clock, sleep=clock.sleep)
    # due at 0.0, 0.1, 0.2, 0.3; sent at 0.0, 0.25, 0.5, 0.75
    assert loop.late == pytest.approx([0.0, 0.15, 0.3, 0.45])
    assert loop.latencies == pytest.approx([0.25, 0.4, 0.55, 0.7])


def test_open_loop_waits_for_the_schedule_when_idle():
    clock = FakeClock()
    loop = OpenLoop(rate_hz=5.0, start=0.0, limit=3)
    loop.run(lambda: None, stop=lambda: False, clock=clock, sleep=clock.sleep)
    assert loop.latencies == pytest.approx([0.0, 0.0, 0.0])
    assert clock.now == pytest.approx(0.4)


def test_open_loop_stops_early_on_request():
    clock = FakeClock()
    loop = OpenLoop(rate_hz=5.0, start=0.0, limit=100)
    loop.run(lambda: None, stop=lambda: clock.now >= 1.0, clock=clock,
             sleep=clock.sleep)
    assert loop.sent == 5


def test_failed_scrapes_are_counted_not_timed():
    clock = FakeClock()
    loop = OpenLoop(rate_hz=10.0, start=0.0, limit=10)

    def refused():
        raise ConnectionRefusedError

    loop.send(refused, clock)
    loop.send(lambda: False, clock)
    assert (loop.sent, loop.failed, loop.latencies) == (2, 2, [])


# ------------------------------------------------------ record checker
@pytest.fixture(scope="module")
def tiny_fleet():
    """Two rounds of a two-node static fleet, as stream records."""
    from repro.serve import ServeConfig, ShardRunner
    from repro.serve.daemon import train_model

    config = ServeConfig(nodes=2, shards=1, chunk_size=16, run_seconds=60,
                         online=False, train_seconds=30, lstm_iters=2,
                         srr_iters=10, seed=5)
    events = queue.SimpleQueue()
    runner = ShardRunner(0, config, train_model(config), events)
    for _ in range(2):
        runner.run_round()
    records = []
    while not events.empty():
        event = events.get()
        if event[0] in ("chunk", "end_run"):
            records.append(event[3])
    return runner.bundles, records


def _check(bundles, records, runs=2, scored_runs=None) -> RecordChecker:
    checker = RecordChecker(bundles, scored_runs=scored_runs)
    for record in records:
        checker.feed(record)
    checker.finish(runs)
    return checker


def test_checker_accepts_the_fleet_output(tiny_fleet):
    bundles, records = tiny_fleet
    checker = _check(bundles, records)
    assert checker.failures == []
    assert checker.samples == 2 * 2 * 60
    assert checker.attempted == len(records)
    assert 0 < checker.node_mape_pct < 50
    assert 0 < checker.attribution_mape_pct < 100


def test_checker_scores_accuracy_on_the_first_runs_only(tiny_fleet):
    bundles, records = tiny_fleet
    ended, first_run = set(), []
    for record in records:  # each node's records up to its first end_run
        if record["node_id"] not in ended:
            first_run.append(record)
            if record["event"] == "end_run":
                ended.add(record["node_id"])
    scored = _check(bundles, records, scored_runs=1)
    only = _check(bundles, first_run, runs=1)
    assert scored.failures == [] and scored.samples == 2 * 2 * 60
    assert scored.scored_samples == only.samples == 2 * 60
    assert scored.node_mape_pct == only.node_mape_pct
    assert scored.attribution_mape_pct == only.attribution_mape_pct


def test_checker_flags_a_missing_chunk(tiny_fleet):
    bundles, records = tiny_fleet
    chunks = [i for i, r in enumerate(records) if r["event"] == "chunk"]
    broken = records[:chunks[1]] + records[chunks[1] + 1:]
    assert _check(bundles, broken).failures


def test_checker_flags_a_run_without_end_run(tiny_fleet):
    bundles, records = tiny_fleet
    last_end = max(i for i, r in enumerate(records) if r["event"] == "end_run")
    failures = _check(bundles, records[:last_end] + records[last_end + 1:]
                      ).failures
    assert any("completed 1 run" in f for f in failures)


def test_checker_flags_a_non_finite_value(tiny_fleet):
    bundles, records = tiny_fleet
    broken = json.loads(json.dumps(records))
    chunk = next(r for r in broken if r["event"] == "chunk")
    chunk["p_mem"][0] = math.nan
    assert any("non-finite" in f for f in _check(bundles, broken).failures)


def test_checker_flags_an_overlapping_chunk(tiny_fleet):
    bundles, records = tiny_fleet
    broken = json.loads(json.dumps(records))
    second = [r for r in broken if r["event"] == "chunk"][1]
    second["start"] -= 1
    second["p_node"].insert(0, 1.0)
    assert _check(bundles, broken).failures


# ------------------------------------------------------------- tracing
def test_self_time_subtracts_direct_children():
    threads = [[
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 6.0, 7.0, 0),
        None,  # a span still open is skipped
    ]]
    agg = tracing.self_times(threads)
    assert agg["root"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert agg["a"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert agg["a"]["calls"] == 2
    assert agg["b"]["total_s"] == pytest.approx(1.0)


def test_unattributed_leaves_the_benchmarks_checking_out():
    from perfbench.workloads import _unattributed

    threads = [[
        ("bench.rounds", 0.0, 10.0, -1),
        ("monitor.fleet.tick", 0.0, 6.0, 0),
        ("bench.check", 6.0, 8.0, 0),
    ]]
    # 2 s of the root's own time over the 8 s that are not checking
    assert _unattributed(tracing.self_times(threads)) == pytest.approx(0.25)


def test_self_time_counts_only_what_ran_before_until():
    threads = [[
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),   # cut at 4
        ("b", 6.0, 7.0, 0),   # starts after 4: left out
    ]]
    agg = tracing.self_times(threads, until=4.0)
    assert agg["root"]["total_s"] == pytest.approx(4.0)
    assert agg["root"]["self_s"] == pytest.approx(1.0)
    assert agg["a"]["self_s"] == pytest.approx(3.0)
    assert "b" not in agg


def test_counts_made_after_until_are_left_out():
    clock = iter([1.0, 2.0, 3.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(clock))
    for value in (1, 10, 100):
        recorder.count("rows", value)
    assert tracing.count_totals(recorder.counts())["rows"] == 111
    assert tracing.count_totals(recorder.counts(), until=2.5)["rows"] == 11


def test_recorder_nests_spans_and_install_restores_the_originals():
    from repro.interp.spline import CubicSplineInterpolator

    original = CubicSplineInterpolator.fit
    recorder = tracing.SpanRecorder()
    installed = tracing.install(recorder)
    try:
        recorder.call("bench.rounds", CubicSplineInterpolator().fit,
                      [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 1.0])
    finally:
        installed.undo()
    assert CubicSplineInterpolator.fit is original
    ((outer, inner),) = [t for t in recorder.threads() if t]
    assert inner[0] == "interp.spline.fit" and inner[3] == 0
    assert outer[0] == "bench.rounds" and outer[3] == -1


# ------------------------------------------------------------ contract
def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_identity_check_stores_then_compares(tmp_path):
    path = tmp_path / "expect.json"
    assert check_identical(path, {"mape": 1.5, "degraded": {"n1": [1]}}) == []
    assert check_identical(path, {"mape": 1.5, "degraded": {"n1": [1]}}) == []
    assert check_identical(path, {"mape": 1.6, "degraded": {"n1": [1]}})


def test_source_digest_changes_with_the_code(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.write_text("X = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("")
    before = source_digest(tmp_path)
    assert source_digest(tmp_path) == before
    module.write_text("X = 2\n")
    assert source_digest(tmp_path) != before
