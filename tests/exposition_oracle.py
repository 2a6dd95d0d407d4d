"""Frozen reference exposition: the test oracle for ``repro.obs``'s
``merge_snapshots`` and ``render_prometheus``.

A verbatim copy of the merge and the renderer the production code
replaced: one shallow copy per sample and its labels, every label value
escaped with three ``str.replace`` calls, every sample's label text and
every bucket's ``le`` text built again from a dict. The production
functions must reproduce its merged dicts and its text byte for byte;
``tests/test_obs_exposition_oracle.py`` pins that. Do not edit this file
to follow the production code - it is the fixed point the pin compares
against.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ValidationError


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labels: "dict[str, str]") -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return "{" + inner + "}"


def render_prometheus(snapshot: dict) -> str:
    """Text exposition of a ``registry.snapshot()``-shaped dict."""
    lines: "list[str]" = []
    for name in sorted(snapshot):
        family = snapshot[name]
        lines.append(f"# HELP {name} {_escape_help(family.get('help', ''))}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = dict(sample["labels"])
            if family["type"] == "histogram":
                for le, count in sample["buckets"]:
                    le_text = "+Inf" if le == float("inf") else _fmt_value(le)
                    bucket_labels = {**labels, "le": le_text}
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} {int(count)}"
                    )
                lines.append(f"{name}_sum{_labels_text(labels)} "
                             f"{_fmt_value(sample['sum'])}")
                lines.append(f"{name}_count{_labels_text(labels)} "
                             f"{int(sample['count'])}")
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} {_fmt_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


#: Valid gauge-collision policies.
GAUGE_POLICIES = ("last", "sum", "max")


def _labelled(sample: dict, extra: "dict[str, str] | None") -> dict:
    if not extra:
        return dict(sample)
    out = dict(sample)
    out["labels"] = {**sample.get("labels", {}), **{
        str(k): str(v) for k, v in extra.items()
    }}
    return out


def _label_key(sample: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in sample.get("labels", {}).items()))


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
    slots: "dict[str, dict[tuple, dict]]" = {}
    for i, snapshot in enumerate(snapshots):
        extra = labels[i] if labels is not None else None
        extra_names = list(extra) if extra else []
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
                slots[name] = {}
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
            for sample in family.get("samples", []):
                sample = _labelled(sample, extra)
                key = _label_key(sample)
                slot = slots[name].get(key)
                if slot is None:
                    slots[name][key] = sample
                    have["samples"].append(sample)
                else:
                    _merge_value(kind, name, slot, sample, gauges)
    return merged
