"""Gate committed perfbench before/after records under BENCHMARK.json.

Usage:  python scripts/check_perfbench.py RECORD.json [RECORD.json ...]

A record (committed as ``BENCH_PR<N>.json``) holds the benchmark of one
change, measured on one host as alternating parent/change pairs::

    {
      "seconds": 30,
      "workloads": {
        "static-long": {"parent": [RESULT, ...], "change": [RESULT, ...]},
        ...
      }
    }

Every ``RESULT`` is the verbatim last stdout line of ``python3
perfbench/run.py --workload W --seed S --seconds 30 --trace 0``: an
object with ``correct``, ``failed`` and ``metrics`` (``{name: {"value",
"unit"}}``). Other top-level keys (seed, commits, host) are notes for the
reader and are not checked.

A record fails, naming each offending (workload, metric), when

* ``seconds`` differs from ``BENCHMARK.json``'s ``run_seconds``;
* a workload of ``BENCHMARK.json`` is missing or has no run on a side;
* any run reports ``correct`` other than ``true`` or ``failed`` other
  than 0, or lacks an end-to-end metric;
* for any end-to-end metric, the change median is worse than the parent
  median by more than the metric's ``bound`` (a fraction of the parent
  median), judged in the metric's ``better`` direction;
* the record claims a gain — ``"claim": {"metric": M, "workload": W}`` —
  and the change median of end-to-end metric ``M`` on workload ``W`` does
  not beat the parent median in ``M``'s ``better`` direction. A claim
  naming a metric or workload that ``BENCHMARK.json`` does not declare is
  a usage error. Records without a claim are not checked for one.

Exit status: 0 when every record passes, 1 when any fails, 2 on a usage
error.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def regression(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction of it.

    Positive is worse; a zero parent makes any worsening infinite.
    """
    worse = change - parent if better == "lower" else parent - change
    if worse <= 0:
        return 0.0
    return worse / abs(parent) if parent else float("inf")


class UsageError(Exception):
    """A record the gate cannot judge: its claim names an unknown metric
    or workload."""


def median(runs: list, name: str) -> "float | None":
    """The median of metric ``name`` over ``runs``; None if there is no
    run or a run lacks it."""
    values = [run.get("metrics", {}).get(name, {}).get("value") for run in runs]
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def check_claim(record: dict, benchmark: dict) -> "tuple[list[str], list[str]]":
    """Gate a record's claimed gain, if it makes one; returns (report
    lines, failure messages). Raises :class:`UsageError` on a claim that
    names no end-to-end metric or workload of ``benchmark``."""
    claim = record.get("claim")
    if claim is None:
        return [], []
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = {w["name"] for w in benchmark["workloads"]}
    if (not isinstance(claim, dict) or claim.get("metric") not in metrics
            or claim.get("workload") not in workloads):
        raise UsageError(
            f"claim {claim!r} must name an end-to-end metric and a workload "
            f"of BENCHMARK.json"
        )
    name, workload = claim["metric"], claim["workload"]
    sides = (record.get("workloads") or {}).get(workload) or {}
    medians = {side: median(sides.get(side) or [], name) for side in SIDES}
    if None in medians.values():
        return [], [f"claim: {workload}, {name} has no median on both sides"]
    parent, change = medians["parent"], medians["change"]
    better = metrics[name]["better"]
    met = change > parent if better == "higher" else change < parent
    gain = (change - parent) / abs(parent) if parent else float("inf")
    line = (f"  claim: {workload} {name} {parent:.6g} -> {change:.6g} "
            f"({gain:+.1%}, {better} is better)  {'met' if met else 'NOT MET'}")
    if met:
        return [line], []
    return [line], [f"claim: {workload}, {name}: change median {change:.6g} "
                    f"does not beat parent median {parent:.6g} ({better} is "
                    f"better)"]


def check_record(record: dict, benchmark: dict) -> "tuple[list[str], list[str]]":
    """Gate one record; returns (report lines, failure messages)."""
    failures: "list[str]" = []
    lines: "list[str]" = []
    if record.get("seconds") != benchmark["run_seconds"]:
        failures.append(
            f"seconds: record ran {record.get('seconds')!r} s, BENCHMARK.json "
            f"asks for {benchmark['run_seconds']!r} s"
        )
    workloads = record.get("workloads") or {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        sides = workloads.get(workload)
        if sides is None:
            failures.append(f"{workload}: missing from the record")
            continue
        runs = {side: sides.get(side) or [] for side in SIDES}
        empty = [side for side in SIDES if not runs[side]]
        if empty:
            failures.append(f"{workload}: no {' or '.join(empty)} run")
            continue
        for side in SIDES:
            for i, run in enumerate(runs[side]):
                if run.get("correct") is not True or run.get("failed") != 0:
                    failures.append(
                        f"{workload}: {side} run {i} reports correct="
                        f"{run.get('correct')!r}, failed={run.get('failed')!r}"
                    )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            medians = {}
            for side in SIDES:
                medians[side] = median(runs[side], name)
                if medians[side] is None:
                    failures.append(f"{workload}, {name}: missing from a "
                                    f"{side} run")
                    break
            else:
                worse = regression(medians["parent"], medians["change"],
                                   metric["better"])
                verdict = "ok" if worse <= metric["bound"] else "FAIL"
                lines.append(
                    f"  {workload:<16} {name:<22} {medians['parent']:>12.6g} "
                    f"-> {medians['change']:>12.6g}  worse by {worse:6.1%} "
                    f"(bound {metric['bound']:.0%}, {metric['better']} is "
                    f"better)  {verdict}"
                )
                if verdict == "FAIL":
                    failures.append(
                        f"{workload}, {name}: change median "
                        f"{medians['change']:.6g} is {worse:.1%} worse than "
                        f"parent median {medians['parent']:.6g} (bound "
                        f"{metric['bound']:.0%})"
                    )
    claim_lines, claim_failures = check_claim(record, benchmark)
    return lines + claim_lines, failures + claim_failures


def main(argv: "list[str]") -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    failed = False
    for path in argv:
        try:
            record = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            lines, failures = check_record(record, benchmark)
        except UsageError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        print(f"{path}:")
        for line in lines:
            print(line)
        for message in failures:
            print(f"FAIL {path}: {message}")
        failed = failed or bool(failures)
    print("perfbench gate: " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
