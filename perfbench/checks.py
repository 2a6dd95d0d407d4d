"""The correctness gate: record tiling, finite values, accuracy, identity.

Every workload feeds the stream records the program emitted — the
``chunk`` / ``end_run`` wire shape of :func:`repro.stream.chunk_record` —
through one :class:`RecordChecker`. It checks that each node's chunks tile
every run exactly and that each run ends in ``end_run``, that every value
is finite, and it accumulates the MAPE of the restored watts against the
simulator's ground truth. Each check that fails counts as one failed
operation against the chunks and runs attempted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: The component channels a chunk record carries, in attribution order.
COMPONENTS = ("p_cpu", "p_mem", "p_gpu")


class RecordChecker:
    """Checks one fleet's stream records against its ground-truth bundles.

    ``truth`` maps node id to the bundle the node ran (every run of a node
    replays the same bundle). Records must arrive in per-node order; nodes
    may interleave freely. Every run is checked; accuracy is scored over
    each node's first ``scored_runs`` runs (all of them by default).
    """

    def __init__(self, truth: dict, scored_runs: "int | None" = None) -> None:
        self.truth = {
            node_id: {
                "n": len(bundle),
                "p_node": bundle.node.values,
                "p_cpu": bundle.cpu.values,
                "p_mem": bundle.mem.values,
                "p_gpu": getattr(getattr(bundle, "gpu", None), "values", None),
            }
            for node_id, bundle in truth.items()
        }
        self.next_start = {node_id: 0 for node_id in truth}
        self.runs = {node_id: 0 for node_id in truth}
        self.chunks = 0
        self.samples = 0
        self.scored_runs = scored_runs
        #: samples the MAPEs are scored over
        self.scored_samples = 0
        self.failures: "list[str]" = []
        self._node_err = 0.0
        self._node_n = 0
        self._attr_err = 0.0
        self._attr_n = 0

    # ------------------------------------------------------------- feeding
    def feed(self, record: dict) -> None:
        node_id = record.get("node_id")
        if node_id not in self.truth:
            self._fail(f"record for unknown node {node_id!r}")
            return
        if record["event"] == "end_run":
            self._end_run(node_id)
        else:
            self._chunk(node_id, record)

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _end_run(self, node_id: str) -> None:
        truth = self.truth[node_id]
        if self.next_start[node_id] != truth["n"]:
            self._fail(
                f"{node_id} run {self.runs[node_id]} ended at sample "
                f"{self.next_start[node_id]} of {truth['n']}"
            )
        self.runs[node_id] += 1
        self.next_start[node_id] = 0

    def _chunk(self, node_id: str, record: dict) -> None:
        self.chunks += 1
        truth = self.truth[node_id]
        start, stop = record["start"], record["stop"]
        where = f"{node_id} run {self.runs[node_id]} chunk [{start}, {stop})"
        if start != self.next_start[node_id] or not start < stop <= truth["n"]:
            self._fail(f"{where} does not continue the tiling at "
                       f"{self.next_start[node_id]}")
            self.next_start[node_id] = stop
            return
        self.next_start[node_id] = stop
        width = stop - start
        self.samples += width
        p_node = np.asarray(record["p_node"], dtype=float)
        parts = {c: np.asarray(record[c], dtype=float) for c in COMPONENTS
                 if truth[c] is not None}
        if record["p_gpu"] and truth["p_gpu"] is None:
            self._fail(f"{where} attributes GPU power to a CPU node")
            return
        if any(a.shape != (width,) for a in (p_node, *parts.values())):
            self._fail(f"{where} carries channels of the wrong length")
            return
        if not all(np.isfinite(a).all() for a in (p_node, *parts.values())):
            self._fail(f"{where} carries a non-finite value")
            return
        if self.scored_runs is not None and \
                self.runs[node_id] >= self.scored_runs:
            return
        self.scored_samples += width
        self._node_err += _abs_pct(p_node, truth["p_node"][start:stop])
        self._node_n += width
        for channel, restored in parts.items():
            self._attr_err += _abs_pct(restored, truth[channel][start:stop])
            self._attr_n += width

    # ------------------------------------------------------------- results
    def finish(self, expected_runs: int) -> None:
        """Every node must have completed exactly ``expected_runs`` runs."""
        for node_id, runs in self.runs.items():
            if runs != expected_runs or self.next_start[node_id] != 0:
                self._fail(f"{node_id} completed {runs} run(s), expected "
                           f"{expected_runs}")

    @property
    def attempted(self) -> int:
        """Operations checked: every chunk and every run."""
        return self.chunks + sum(self.runs.values())

    @property
    def node_mape_pct(self) -> float:
        return 100.0 * self._node_err / max(self._node_n, 1)

    @property
    def attribution_mape_pct(self) -> float:
        return 100.0 * self._attr_err / max(self._attr_n, 1)


def _abs_pct(restored: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum(np.abs(restored - truth) / truth))


def source_digest(root: Path) -> str:
    """A digest of the program and benchmark sources under ``root``.

    Identity records are kept per digest, so a change to the code starts
    a new record instead of being compared with the old code's outputs.
    """
    digest = hashlib.sha256()
    for path in sorted((*(root / "src").rglob("*.py"),
                        *(root / "perfbench").glob("*.py"))):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_identical(path: Path, observed: dict) -> "list[str]":
    """Outputs at a fixed seed must repeat exactly from run to run.

    The first run at a given (code, workload, seed, seconds) stores
    ``observed`` at ``path``; every later run compares against it and
    returns one message per key that differs. ``path`` must name the code
    version (see :func:`source_digest`).
    """
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(observed, indent=1, sort_keys=True))
        return []
    expected = json.loads(path.read_text())
    observed = json.loads(json.dumps(observed))  # same JSON normal form
    return [
        f"{key} changed at a fixed seed: {expected.get(key)!r} -> "
        f"{observed.get(key)!r}"
        for key in sorted(set(expected) | set(observed))
        if expected.get(key) != observed.get(key)
    ]
