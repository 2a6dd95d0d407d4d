"""Metrics registry semantics and the exposition round-trip contract."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.obs import (
    DEFAULT_BUCKETS,
    ManualClock,
    MetricsRegistry,
    get_registry,
    parse_prometheus,
    render_prometheus,
    use_registry,
)


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("c_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value == 7.0


class TestHistogram:
    def test_bucketing_and_cumulative(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 0.1):
            h.observe(v)
        child = h.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(55.6)
        # non-cumulative slots: <=1, <=10, overflow
        assert child.bucket_counts == [2, 1, 1]
        assert child.cumulative() == [(1.0, 2), (10.0, 3), (math.inf, 4)]

    def test_default_buckets(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == DEFAULT_BUCKETS

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))


class TestLabels:
    def test_children_are_independent(self):
        fam = MetricsRegistry().counter("c", "h", labels=("path",))
        fam.labels(path="a").inc()
        fam.labels(path="a").inc()
        fam.labels(path="b").inc(5)
        values = {s[0]["path"]: s[1].value for s in fam.samples()}
        assert values == {"a": 2.0, "b": 5.0}

    def test_wrong_label_names_raise(self):
        fam = MetricsRegistry().counter("c", "h", labels=("path",))
        with pytest.raises(ValidationError):
            fam.labels(wrong="a")
        with pytest.raises(ValidationError):
            fam.labels()

    def test_positional_child_is_the_labels_child(self):
        fam = MetricsRegistry().counter("c", "h", labels=("node", "mode"))
        fam.child("n1", "static").inc()
        fam.labels(node="n1", mode="static").inc(2)
        assert fam.child("n1", "static") is fam.labels(mode="static", node="n1")
        assert [(labels, child.value) for labels, child in fam.samples()] \
            == [({"node": "n1", "mode": "static"}, 3.0)]

    def test_positional_child_checks_what_it_creates(self):
        fam = MetricsRegistry().counter("c", "h", labels=("node",))
        with pytest.raises(ValidationError):
            fam.child()
        with pytest.raises(ValidationError):
            fam.child("n1", "extra")
        with pytest.raises(ValidationError):
            fam.child(7)
        assert fam.samples() == []

    def test_labeled_family_has_no_default_child(self):
        fam = MetricsRegistry().counter("c", "h", labels=("path",))
        with pytest.raises(ValidationError):
            fam.inc()


class TestRegistry:
    def test_declaration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", "help", ("k",))
        b = reg.counter("c_total", "help", ("k",))
        assert a is b

    def test_conflicting_redeclaration_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValidationError):
            reg.gauge("m")
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValidationError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        for bad in ("", "1abc", "has space", "dash-ed"):
            with pytest.raises(ValidationError):
                reg.counter(bad)

    def test_reset_keeps_declarations(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", "h", ("k",))
        fam.labels(k="x").inc()
        reg.reset()
        assert reg.get("c") is fam
        assert fam.samples() == []

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "ch", ("k",)).labels(k="v").inc(3)
        reg.histogram("h", "hh", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["samples"] == [{"labels": {"k": "v"}, "value": 3.0}]
        hist = snap["h"]["samples"][0]
        assert hist["buckets"] == [[1.0, 1], [math.inf, 1]]
        assert hist["sum"] == 0.5 and hist["count"] == 1


class TestAmbientRegistry:
    def test_use_registry_scopes_and_restores(self):
        outer = get_registry()
        inner = MetricsRegistry()
        with use_registry(inner):
            assert get_registry() is inner
            with use_registry(MetricsRegistry()) as innermost:
                assert get_registry() is innermost
            assert get_registry() is inner
        assert get_registry() is outer


class TestManualClock:
    def test_advances(self):
        clock = ManualClock()
        t0 = clock()
        clock.advance(2.5)
        assert clock() - t0 == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestExpositionRoundTrip:
    def _populated_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("rt_runs_total", "Runs.", ("node", "mode")).labels(
            node="n-0", mode="dynamic"
        ).inc(3)
        reg.counter("rt_plain_total", "Unlabeled.").inc(1.5)
        reg.gauge("rt_fraction", "A float gauge.").set(0.1234567890123)
        h = reg.histogram("rt_latency_seconds", "Latency.", ("span",),
                          buckets=(0.001, 0.1, 2.0))
        for v in (0.0005, 0.05, 0.05, 1.0, 100.0):
            h.labels(span="restore").observe(v)
        return reg

    def test_round_trip_is_exact(self):
        reg = self._populated_registry()
        assert parse_prometheus(render_prometheus(reg)) == reg.snapshot()

    def test_exposition_format_lines(self):
        text = render_prometheus(self._populated_registry())
        assert "# TYPE rt_runs_total counter" in text
        assert 'rt_runs_total{node="n-0",mode="dynamic"} 3' in text
        assert 'rt_latency_seconds_bucket{span="restore",le="+Inf"} 5' in text
        assert 'rt_latency_seconds_count{span="restore"} 5' in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " backslash \\ newline \n end'
        reg.counter("rt_esc_total", "Esc.", ("v",)).labels(v=tricky).inc()
        parsed = parse_prometheus(render_prometheus(reg))
        assert parsed["rt_esc_total"]["samples"][0]["labels"]["v"] == tricky

    def test_malformed_lines_raise(self):
        with pytest.raises(ValidationError):
            parse_prometheus("not a metric line at all!")
        with pytest.raises(ValidationError):
            parse_prometheus('m{k="unclosed} 1')
