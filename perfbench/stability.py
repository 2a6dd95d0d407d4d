"""Stability mode: run workloads repeatedly, compare spreads with bounds.

Usage, from the repository root::

    python3 perfbench/stability.py --runs 10                  # all workloads
    python3 perfbench/stability.py --runs 5 --workloads serve-wide
    python3 perfbench/stability.py --runs 10 --sets 2         # two sets
    python3 perfbench/stability.py --traced                   # layer table

Each run is ``perfbench/run.py`` in its own process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...); its line ends with the
host probe's medians, the speed its timings were scaled by. For every
end-to-end metric it prints the median, the quartiles, and the spread —
the inter-quartile distance as a share of the median — beside the
metric's bound in ``BENCHMARK.json``. A spread above a third of the bound is
flagged ``wide``; above the bound, ``NOISY``. With ``--sets 2`` the same
seeds run twice: the second set's median is compared with the first, and
each seed's two MAPEs must be identical (they are deterministic at a fixed
seed); a mismatch fails the run.
``--traced`` runs each workload once with ``--trace 1`` and prints every
per-layer metric side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.metrics import PER_LAYER  # noqa: E402
from perfbench.stats import quartiles, spread  # noqa: E402


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a fresh process; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = [line for line in lines if line.startswith("host probe")]
    print(f"  {workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']} " + " ".join(
              f"{name}={m['value']:.5g}"
              for name, m in result["metrics"].items())
          + "".join(f" [{line}]" for line in host), flush=True)
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report_set(workload: str, results: "list[dict]", spec: dict) -> dict:
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"failed={failed}")
    print(f"  {'metric':<24} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    medians = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        s = spread(values)
        flag = "NOISY" if s > bound else "wide" if s > bound / 3 else ""
        medians[name] = med
        print(f"  {name:<24} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{s:>8.3f} {bound:>6.2f} {flag}")
    return medians


#: Metrics that must repeat exactly at a fixed seed.
DETERMINISTIC = ("node_mape_pct", "attribution_mape_pct")


def identity_mismatches(first: "list[dict]", later: "list[dict]",
                        seeds) -> "list[str]":
    """Deterministic metrics that differ between two runs of one seed."""
    return [
        f"seed {seed}: {name} {a['metrics'][name]['value']!r} -> "
        f"{b['metrics'][name]['value']!r}"
        for seed, a, b in zip(seeds, first, later)
        for name in DETERMINISTIC
        if a["metrics"][name]["value"] != b["metrics"][name]["value"]
    ]


def traced_report(workloads, seed: int, seconds: int) -> None:
    results = {w: run_once(w, seed, seconds, 1) for w in workloads}
    width = max(len(w) for w in workloads) + 2
    print(f"\n{'per-layer metric':<36} {'unit':<6}"
          + "".join(f"{w:>{width}}" for w in workloads))
    for name, unit in PER_LAYER:
        print(f"{name:<36} {unit:<6}" + "".join(
            f"{results[w]['metrics'][name]['value']:>{width}.5g}"
            for w in workloads))


def main(argv: "list[str] | None" = None) -> int:
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.traced:
        traced_report(workloads, args.first_seed, args.seconds)
        return 0
    verdict = 0
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in workloads:
        sets, runs = [], []
        for _ in range(args.sets):
            results = [run_once(workload, seed, args.seconds, 0)
                       for seed in seeds]
            sets.append(report_set(workload, results, spec))
            runs.append(results)
            verdict |= not all(r["correct"] for r in results)
        for later in runs[1:]:
            for mismatch in identity_mismatches(runs[0], later, seeds):
                verdict = 1
                print(f"  NOT IDENTICAL at a fixed seed: {mismatch}")
        for later in sets[1:]:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                drift = worse_by(sets[0][name], later[name], metric["better"])
                if drift > metric["bound"]:
                    verdict = 1
                print(f"  second-set median of {name} worse by "
                      f"{drift:+.3f} (bound {metric['bound']})")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
