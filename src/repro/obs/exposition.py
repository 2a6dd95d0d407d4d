"""Prometheus-style text exposition and its inverse.

:func:`render_prometheus` serialises a :class:`~repro.obs.metrics.MetricsRegistry`
(or a snapshot dict from ``registry.snapshot()``) into the text exposition
format — ``# HELP``/``# TYPE`` preambles, ``name{label="value"} value``
samples, cumulative ``_bucket``/``_sum``/``_count`` triples for
histograms. :func:`parse_prometheus` parses that text back into a
snapshot-shaped dict, which makes the format a checked contract:
``parse_prometheus(render_prometheus(reg)) == reg.snapshot()`` for any
populated registry (the round-trip test in ``tests/test_obs_metrics.py``).

Floats are rendered with ``repr``, whose shortest-round-trip guarantee is
what makes the equality above exact rather than approximate.

The renderer is the daemon's ``/metrics`` body, built on every scrape
while the HTTP handler holds the interpreter, so its per-sample work is
kept small: a label value is escaped only when it holds a backslash, a
quote or a newline; each sample's label text is built once, and its
histogram buckets splice ``le`` into it; each bucket bound's ``le`` text
is formatted once per family; integers skip the float formatting. Nothing
is cached across calls. ``tests/exposition_oracle.py`` keeps the plain
renderer this replaced, and the text must match it byte for byte.
"""

from __future__ import annotations

import re

from ..errors import ValidationError
from .metrics import MetricsRegistry


def _escape_label(value: str) -> str:
    if "\\" in value or '"' in value or "\n" in value:
        return value.replace("\\", "\\\\").replace('"', '\\"') \
                    .replace("\n", "\\n")
    return value


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if type(value) is int and -1e15 < value < 1e15:
        return str(value)
    value = float(value)
    if value.is_integer():  # finite and integral
        return str(int(value)) if abs(value) < 1e15 else repr(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def _labels_text(labels: "dict[str, str]") -> str:
    if not labels:
        return ""
    return "{" + ",".join([f'{k}="{_escape_label(v)}"'
                           for k, v in labels.items()]) + "}"


def _render_histogram(lines: "list[str]", name: str, family: dict) -> None:
    append = lines.append
    le_texts: "dict[float, str]" = {}  # bound -> its le text, per family
    for sample in family["samples"]:
        labels = sample["labels"]
        text = _labels_text(labels)
        # ``le="..."`` goes last, after the sample's own labels; a label
        # already named ``le`` is overwritten where it stands instead.
        head = None if "le" in labels else (text[:-1] + "," if text else "{")
        for le, count in sample["buckets"]:
            le_text = le_texts.get(le)
            if le_text is None:
                le_text = le_texts[le] = _fmt_value(le)
            if head is None:
                append(f"{name}_bucket"
                       f"{_labels_text({**labels, 'le': le_text})} {int(count)}")
            else:
                append(f'{name}_bucket{head}le="{le_text}"}} {int(count)}')
        append(f"{name}_sum{text} {_fmt_value(sample['sum'])}")
        append(f"{name}_count{text} {int(sample['count'])}")


def render_prometheus(source: "MetricsRegistry | dict") -> str:
    """Text exposition of a registry or of a ``registry.snapshot()`` dict."""
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: "list[str]" = []
    append = lines.append
    for name in sorted(snapshot):
        family = snapshot[name]
        append(f"# HELP {name} {_escape_help(family.get('help', ''))}")
        append(f"# TYPE {name} {family['type']}")
        if family["type"] == "histogram":
            _render_histogram(lines, name, family)
            continue
        for sample in family["samples"]:
            append(f"{name}{_labels_text(sample['labels'])} "
                   f"{_fmt_value(sample['value'])}")
    return "\n".join(lines) + "\n"


_HELP_RE = re.compile(r"^# HELP (?P<name>[A-Za-z_:][\w:]*)(?: (?P<help>.*))?$")
_TYPE_RE = re.compile(r"^# TYPE (?P<name>[A-Za-z_:][\w:]*) (?P<kind>\w+)$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][\w:]*)(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[A-Za-z_][\w]*)="(?P<value>(?:\\.|[^"\\])*)"')


def _parse_labels(text: "str | None") -> "dict[str, str]":
    if not text:
        return {}
    labels: "dict[str, str]" = {}
    pos = 0
    while pos < len(text):
        m = _LABEL_RE.match(text, pos)
        if m is None:
            raise ValidationError(f"malformed label segment: {text[pos:]!r}")
        labels[m.group("key")] = _unescape_label(m.group("value"))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValidationError(f"malformed label segment: {text[pos:]!r}")
            pos += 1
    return labels


def parse_prometheus(text: str) -> "dict[str, dict]":
    """Parse exposition text back into a ``registry.snapshot()``-shaped dict.

    Histogram series (``_bucket``/``_sum``/``_count``) are reassembled into
    one sample per label combination. Lines that are neither comments nor
    well-formed samples raise :class:`~repro.errors.ValidationError`.
    """
    families: "dict[str, dict]" = {}
    # histogram accumulators: name -> {label_key: {"labels", "buckets", ...}}
    partial: "dict[str, dict[tuple, dict]]" = {}

    def family_for(name: str) -> dict:
        return families.setdefault(
            name, {"type": None, "help": "", "label_names": [], "samples": []}
        )

    def owning_histogram(name: str) -> "str | None":
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                if families.get(base, {}).get("type") == "histogram":
                    return base
        return None

    def histogram_slot(base: str, labels: "dict[str, str]") -> dict:
        key = tuple(sorted((k, v) for k, v in labels.items()))
        slot = partial.setdefault(base, {}).get(key)
        if slot is None:
            slot = {"labels": labels, "buckets": [], "sum": 0.0, "count": 0}
            partial[base][key] = slot
            families[base]["samples"].append(slot)
            if not families[base]["label_names"]:
                families[base]["label_names"] = list(labels)
        return slot

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _HELP_RE.match(line)
        if m:
            fam = family_for(m.group("name"))
            fam["help"] = (m.group("help") or "").replace("\\n", "\n") \
                                                 .replace("\\\\", "\\")
            continue
        m = _TYPE_RE.match(line)
        if m:
            family_for(m.group("name"))["type"] = m.group("kind")
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValidationError(f"malformed exposition line: {raw!r}")
        name = m.group("name")
        labels = _parse_labels(m.group("labels"))
        value = _parse_value(m.group("value"))
        base = owning_histogram(name)
        if base is not None:
            if name.endswith("_bucket"):
                le = labels.pop("le", None)
                if le is None:
                    raise ValidationError(f"histogram bucket without le: {raw!r}")
                slot = histogram_slot(base, labels)
                slot["buckets"].append([_parse_value(le), int(value)])
            elif name.endswith("_sum"):
                histogram_slot(base, labels)["sum"] = value
            else:
                histogram_slot(base, labels)["count"] = int(value)
            continue
        fam = family_for(name)
        if fam["type"] is None:
            fam["type"] = "untyped"
        fam["samples"].append({"labels": labels, "value": value})
        if not fam["label_names"]:
            fam["label_names"] = list(labels)
    return families
