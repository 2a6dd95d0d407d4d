"""The scrape path's merge and renderer against their frozen oracle.

``repro.obs.merge_snapshots`` and ``repro.obs.render_prometheus`` build the
daemon's ``/metrics`` body. ``tests/exposition_oracle.py`` keeps the plain
merge and renderer they replaced; for any snapshots these tests draw, the
merged dicts must be equal (NaN equal to NaN, and every number of the same
type) and the text byte-identical. Collisions that the merge rejects must
be rejected by both, with the same message.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs import GAUGE_POLICIES, merge_snapshots, render_prometheus

from . import exposition_oracle as oracle

KINDS = ("counter", "gauge", "histogram", "untyped")
LABEL_NAMES = ("node", "mode", "le", "stage")

#: Label values: characters the exposition escapes, and some it does not.
label_values = st.text(
    alphabet=st.sampled_from(["a", "7", " ", "\\", '"', "\n", "{", ",", "=",
                              "é"]),
    max_size=4,
)

#: Integers and floats on either side of the ``1e15`` integral cut-off,
#: signed zeros and every non-finite value.
EDGE_NUMBERS = (
    0, 1, -3, 10**15 - 1, 10**15, -(10**15) + 1, -(10**15), 2**60,
    0.0, -0.0, 0.5, -2.25, 1e15, -1e15, 1e15 - 1.0, 999999999999999.9,
    1e16, 1e-300, 5e-324, float("nan"), float("inf"), float("-inf"), True,
)
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.integers(min_value=-(10**16), max_value=10**16),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def family_specs(draw) -> "dict[str, tuple]":
    """Up to four families: name -> (kind, label names, bucket bounds)."""
    specs = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(KINDS))
        names = draw(st.lists(st.sampled_from(LABEL_NAMES), max_size=3,
                              unique=True))
        bounds = None
        if kind == "histogram":
            finite = draw(st.lists(
                st.one_of(st.sampled_from(EDGE_NUMBERS[:17]),
                          st.floats(-1e6, 1e6)),
                max_size=4, unique=True,
            ))
            bounds = sorted(finite) + [float("inf")]
        specs[f"repro_f{i}"] = (kind, names, bounds)
    return specs


@st.composite
def samples_of(draw, spec: tuple) -> "list[dict]":
    kind, names, bounds = spec
    out = []
    for _ in range(draw(st.integers(0, 3))):
        # a small pool of values, so that samples of two snapshots collide
        labels = {n: draw(st.sampled_from(["", "x", 'q"\\\n'])
                           | label_values) for n in names}
        if kind == "histogram":
            counts = sorted(draw(st.lists(st.integers(0, 50),
                                          min_size=len(bounds),
                                          max_size=len(bounds))))
            out.append({
                "labels": labels,
                "buckets": [[le, n] for le, n in zip(bounds, counts)],
                "sum": draw(numbers),
                "count": counts[-1],
            })
        else:
            out.append({"labels": labels, "value": draw(numbers)})
    return out


@st.composite
def snapshot_sets(draw) -> "list[dict]":
    """One to three snapshots over one set of families, each holding only
    some of them."""
    specs = draw(family_specs())
    snapshots = []
    for _ in range(draw(st.integers(1, 3))):
        snapshot = {}
        for name, spec in specs.items():
            if not draw(st.booleans()):
                continue  # this family is missing from this snapshot
            kind, names, _ = spec
            snapshot[name] = {
                "type": kind,
                "help": draw(st.sampled_from(["", "Help.", "a\\b\nc"])),
                "label_names": list(names),
                "samples": draw(samples_of(spec)),
            }
        snapshots.append(snapshot)
    return snapshots


#: Extra per-snapshot labels, including keys that override a family's own.
extras = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["shard", "node", "zone"]),
                    st.one_of(label_values, st.integers(0, 9)),
                    max_size=2),
)


def _same(a, b) -> bool:
    """Equality with NaN equal to NaN and numbers of the same type."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1, a) == math.copysign(1, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _merge_both(snapshots, gauges, labels):
    try:
        want = oracle.merge_snapshots(snapshots, gauges=gauges, labels=labels)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            merge_snapshots(snapshots, gauges=gauges, labels=labels)
        assert str(got.value) == str(exc)
        return None, None
    return want, merge_snapshots(snapshots, gauges=gauges, labels=labels)


@settings(max_examples=300, deadline=None)
@given(snapshots=snapshot_sets(), gauges=st.sampled_from(GAUGE_POLICIES),
       data=st.data())
def test_merge_and_render_match_the_oracle(snapshots, gauges, data):
    labels = data.draw(st.one_of(
        st.none(), st.lists(extras, min_size=len(snapshots),
                            max_size=len(snapshots))))
    for snapshot in snapshots:
        assert render_prometheus(snapshot) == oracle.render_prometheus(snapshot)
    want, got = _merge_both(snapshots, gauges, labels)
    if want is None:
        return
    assert _same(got, want), (got, want)
    assert render_prometheus(got) == oracle.render_prometheus(want)


def test_the_merge_leaves_its_inputs_alone():
    """Colliding samples are summed into copies, never into the caller's
    snapshot."""
    first = {"repro_x_total": {"type": "counter", "help": "", "label_names":
                               ["node"], "samples": [
                                   {"labels": {"node": "a"}, "value": 1}]}}
    second = {"repro_x_total": {"type": "counter", "help": "", "label_names":
                                ["node"], "samples": [
                                    {"labels": {"node": "a"}, "value": 2}]}}
    merged = merge_snapshots([first, second])
    assert merged["repro_x_total"]["samples"][0]["value"] == 3.0
    assert first["repro_x_total"]["samples"][0]["value"] == 1
    assert second["repro_x_total"]["samples"][0]["value"] == 2


@pytest.mark.parametrize("labels", [
    {}, {"node": "n1"}, {"node": 'a"b\\c\nd', "mode": "static"},
    {"le": "7", "node": "n1"},
])
def test_histogram_buckets_match_the_oracle(labels):
    snapshot = {"repro_h": {
        "type": "histogram", "help": "H.", "label_names": list(labels),
        "samples": [{"labels": labels,
                     "buckets": [[0.005, 0], [1, 2], [1e15, 3],
                                 [float("inf"), 4]],
                     "sum": -0.0, "count": 4}],
    }}
    text = render_prometheus(snapshot)
    assert text == oracle.render_prometheus(snapshot)
    assert 'le="+Inf"' in text and 'le="1000000000000000.0"' in text
