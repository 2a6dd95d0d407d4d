"""Merging metric snapshots from many registries into one exposition.

The sharded service daemon (:mod:`repro.serve`) runs one
:class:`~repro.obs.metrics.MetricsRegistry` per shard worker — ambient
registries do not cross process boundaries — and its ``/metrics`` endpoint
must serve the *fleet* view. :func:`merge_snapshots` folds any number of
``registry.snapshot()`` dicts into one snapshot-shaped dict that
:func:`~repro.obs.exposition.render_prometheus` can serialise.

Merge semantics (the registry-merge contract, see
``docs/observability.md``):

* Families merge **by name**. Every snapshot contributing a family must
  agree on its type and label names; a mismatch raises
  :class:`~repro.errors.ValidationError` (silent type drift is how
  dashboards lie — same rule as re-declaration inside one registry).
* Samples merge **by label values**. Label combinations unique to one
  snapshot pass through unchanged — per-node series from disjoint shards
  never collide.
* Colliding **counters** sum (each shard counted disjoint work, so the
  sum is the fleet total). Colliding **histograms** sum bucket-wise;
  their bucket boundaries must match exactly.
* Colliding **gauges** follow the ``gauges`` policy: ``"last"`` (default:
  the latest snapshot in argument order wins — right for
  point-in-time values like configured coefficients), ``"sum"`` (right
  for additive gauges like queue depths), or ``"max"``.
* ``help`` text: first non-empty wins.

Pass ``labels`` to tag every sample of the i-th snapshot with extra
label pairs (e.g. ``{"shard": "s0"}``) *before* merging — collisions then
only happen within one snapshot, which turns the merged exposition into a
per-shard view instead of a fleet-total view.

The merge runs on every ``/metrics`` scrape of the daemon, once per
sample of every shard, so it does the least per sample: each snapshot's
extra labels are converted to ``str`` once, each family's slot map is
looked up once, and each sample is copied once. The merged samples are
copies, so a collision never writes into a caller's snapshot.
``tests/exposition_oracle.py`` keeps the merge this replaced, and the
merged dicts must equal its own.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ValidationError

#: Valid gauge-collision policies.
GAUGE_POLICIES = ("last", "sum", "max")


def _merge_histogram(name: str, into: dict, sample: dict) -> None:
    a, b = into.get("buckets", []), sample.get("buckets", [])
    if [le for le, _ in a] != [le for le, _ in b]:
        raise ValidationError(
            f"histogram {name!r}: cannot merge samples with different "
            f"bucket boundaries ({[le for le, _ in a]} vs {[le for le, _ in b]})"
        )
    into["buckets"] = [[le, na + nb] for (le, na), (_, nb) in zip(a, b)]
    into["sum"] = float(into.get("sum", 0.0)) + float(sample.get("sum", 0.0))
    into["count"] = int(into.get("count", 0)) + int(sample.get("count", 0))


def _merge_value(kind: str, name: str, into: dict, sample: dict,
                 gauges: str) -> None:
    if kind == "histogram":
        _merge_histogram(name, into, sample)
        return
    current = float(into.get("value", 0.0))
    incoming = float(sample.get("value", 0.0))
    if kind == "counter":
        into["value"] = current + incoming
    elif gauges == "sum":
        into["value"] = current + incoming
    elif gauges == "max":
        into["value"] = max(current, incoming)
    else:  # "last": the later snapshot in argument order wins
        into["value"] = incoming


def merge_snapshots(
    snapshots: "Iterable[dict]",
    gauges: str = "last",
    labels: "list[dict[str, str] | None] | None" = None,
) -> "dict[str, dict]":
    """Fold many ``registry.snapshot()`` dicts into one merged snapshot.

    ``labels[i]`` (optional) is added to every sample of ``snapshots[i]``
    before merging. See the module docstring for collision semantics.
    """
    if gauges not in GAUGE_POLICIES:
        raise ValidationError(
            f"unknown gauge merge policy {gauges!r}; expected one of "
            f"{GAUGE_POLICIES}"
        )
    snapshots = list(snapshots)
    if labels is not None and len(labels) != len(snapshots):
        raise ValidationError(
            f"labels list has {len(labels)} entries for "
            f"{len(snapshots)} snapshots"
        )
    merged: "dict[str, dict]" = {}
    slots: "dict[str, dict[frozenset, dict]]" = {}
    for i, snapshot in enumerate(snapshots):
        given = labels[i] if labels is not None else None
        extra_names = list(given) if given else []
        extra = {str(k): str(v) for k, v in given.items()} if given else None
        for name in snapshot:
            family = snapshot[name]
            kind = family.get("type", "untyped")
            label_names = list(family.get("label_names", [])) + extra_names
            have = merged.get(name)
            if have is None:
                have = merged[name] = {
                    "type": kind,
                    "help": family.get("help", ""),
                    "label_names": label_names,
                    "samples": [],
                }
                family_slots = slots[name] = {}
            else:
                if have["type"] != kind:
                    raise ValidationError(
                        f"metric {name!r}: cannot merge type "
                        f"{have['type']!r} with {kind!r}"
                    )
                if sorted(have["label_names"]) != sorted(label_names):
                    raise ValidationError(
                        f"metric {name!r}: cannot merge label names "
                        f"{have['label_names']} with {label_names}"
                    )
                if not have["help"]:
                    have["help"] = family.get("help", "")
                family_slots = slots[name]
            merged_samples = have["samples"]
            for sample in family.get("samples", []):
                # a copy, so that a collision below never writes into the
                # caller's snapshot; its labels dict is shared unless extra
                # labels make a new one
                sample = dict(sample)
                if extra:
                    sample["labels"] = {**sample.get("labels", {}), **extra}
                key = frozenset(sample.get("labels", {}).items())
                slot = family_slots.get(key)
                if slot is None:
                    family_slots[key] = sample
                    merged_samples.append(sample)
                else:
                    _merge_value(kind, name, slot, sample, gauges)
    return merged
