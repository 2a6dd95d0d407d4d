"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload static-long
--seed 1 --seconds 25 --trace 0`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and noise discipline.
"""
