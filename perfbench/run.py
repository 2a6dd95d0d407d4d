"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload static-long --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric plus a per-layer table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS / OpenMP to one thread before numpy loads: the LSTM fine-tune
# goes through OpenBLAS, built here for up to 64 threads, which would
# oversubscribe a small host and make every timing depend on the others.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def main(argv: "list[str] | None" = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  OUT_DIR)
    names = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.e2e
    for note in outcome.notes:
        print(note)
    for message in outcome.failures:
        print(f"FAILED: {message}")
    if not args.trace:  # the traced run's table already lists them
        print(f"host.ref_loop_ms = {outcome.layers['host.ref_loop_ms']:.3f}")
        for name, unit in names:
            print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
