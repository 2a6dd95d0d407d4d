"""A dependency-free metrics registry: counters, gauges, histograms.

The shape follows the Prometheus client model — named metric *families*
with declared label names, addressed children per label-value combination —
but the implementation is deliberately small and deterministic: plain
floats, fixed histogram bucket boundaries, no background threads, and no
clock reads anywhere (durations enter as observed values, measured by
whoever holds a :mod:`~repro.obs.clock`).

Registration is idempotent: asking a registry for a family that already
exists with the same type/labels/buckets returns the existing one, so
instrumented library code can declare its metrics at the point of use
without import-order ceremony. Re-declaring a name with a *different*
signature raises — silent type drift is how dashboards lie.

The default registry is process-global (:func:`get_registry`), and a
scoped override (:func:`use_registry`) lets a harness — the chaos sweep,
the ``obs.dump`` demo, a test — collect everything emitted inside a ``with``
block into its own registry without threading a handle through every
layer. See ``docs/observability.md`` for the metric catalog.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import ValidationError

#: Default histogram buckets: latency-flavoured, in seconds, spanning the
#: microsecond-to-minute range the monitor's self-measurements live in.
DEFAULT_BUCKETS: "tuple[float, ...]" = (
    1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValidationError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValidationError(f"metric name {name!r} must not start with a digit")
    return name


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up; use a gauge")
        self.value += float(amount)


class Gauge:
    """A value that can go anywhere (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= float(amount)


class Histogram:
    """Fixed-boundary histogram (one labeled child of a family).

    ``bucket_counts[i]`` counts observations ``<= boundaries[i]``
    *non*-cumulatively; the exposition layer renders the cumulative
    ``le``-style view Prometheus expects. The overflow bucket (``+Inf``)
    is the last slot.
    """

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    def __init__(self, boundaries: "tuple[float, ...]") -> None:
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: "list[tuple[float, int]]" = []
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with declared label names and per-label children."""

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        label_names: "tuple[str, ...]" = (),
        buckets: "tuple[float, ...] | None" = None,
    ) -> None:
        if kind not in _VALID_KINDS:
            raise ValidationError(f"unknown metric kind {kind!r}")
        if kind == "histogram":
            buckets = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
            if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
                raise ValidationError(
                    f"histogram {name!r}: buckets must be strictly increasing"
                )
        elif buckets is not None:
            raise ValidationError(f"{kind} {name!r} does not take buckets")
        self.kind = kind
        self.name = _check_name(name)
        self.help = str(help)
        self.label_names = tuple(label_names)
        self.buckets = buckets
        self._children: "dict[tuple[str, ...], object]" = {}

    def signature(self) -> tuple:
        return (self.kind, self.label_names, self.buckets)

    # ------------------------------------------------------------- children
    def labels(self, **label_values: str):
        """The child for one label-value combination (created on first use)."""
        # Kwargs keys are unique, so "same length and every declared name
        # present" is exactly the multiset equality the slow sorted-tuple
        # comparison checked — without the two sorts per call.
        key = None
        if len(label_values) == len(self.label_names):
            try:
                key = tuple(str(label_values[n]) for n in self.label_names)
            except KeyError:
                key = None
        if key is None:
            raise ValidationError(
                f"metric {self.name!r} declares labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def child(self, *values: str):
        """The child for label values given positionally, in declared
        order: the hot-path form of :meth:`labels` for ``str`` values
        (checked when the child is created)."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.label_names) \
                    or not all(isinstance(v, str) for v in values):
                raise ValidationError(
                    f"metric {self.name!r} declares labels "
                    f"{self.label_names}, got values {values!r}"
                )
            child = self._children[values] = self._new_child()
        return child

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def _default_child(self):
        if self.label_names:
            raise ValidationError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "address a child via .labels(...)"
            )
        return self.labels()

    # Convenience: an unlabeled family acts as its own single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    def samples(self) -> "list[tuple[dict[str, str], object]]":
        """``(labels_dict, child)`` pairs in insertion order."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in self._children.items()
        ]

    def clear(self) -> None:
        self._children.clear()


class MetricsRegistry:
    """A namespace of metric families with an idempotent declaration API."""

    def __init__(self) -> None:
        self._families: "dict[str, MetricFamily]" = {}

    # ---------------------------------------------------------- declaration
    def _declare(self, kind, name, help, label_names, buckets=None) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            # Hot path for instrumented code declaring at the point of use:
            # compare signatures without building a throwaway family.
            if kind == "histogram":
                norm_buckets = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
            else:
                norm_buckets = None
            signature = (kind, tuple(label_names), norm_buckets)
            if family.signature() != signature:
                raise ValidationError(
                    f"metric {name!r} re-declared with a different signature: "
                    f"{family.signature()} vs {signature}"
                )
            return family
        family = MetricFamily(kind, name, help, tuple(label_names), buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: "tuple[str, ...]" = ()) -> MetricFamily:
        return self._declare("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: "tuple[str, ...]" = ()) -> MetricFamily:
        return self._declare("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: "tuple[str, ...]" = (),
                  buckets: "tuple[float, ...] | None" = None) -> MetricFamily:
        return self._declare("histogram", name, help, labels, buckets)

    # -------------------------------------------------------------- reading
    def families(self) -> "list[MetricFamily]":
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> "MetricFamily | None":
        return self._families.get(name)

    def snapshot(self) -> "dict[str, dict]":
        """A plain JSON-able view of every family and child."""
        out: "dict[str, dict]" = {}
        for family in self.families():
            samples = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "buckets": [[le, n] for le, n in child.cumulative()],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        return out

    def reset(self) -> None:
        """Drop every child (declarations survive, values go to zero)."""
        for family in self._families.values():
            family.clear()


# --------------------------------------------------------------- defaults
#: The process-global registry instrumented library code lands in when no
#: harness has installed a scoped one.
GLOBAL_REGISTRY = MetricsRegistry()

_registry_stack: "list[MetricsRegistry]" = []


def get_registry() -> MetricsRegistry:
    """The innermost :func:`use_registry` override, else the global one."""
    return _registry_stack[-1] if _registry_stack else GLOBAL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Route everything emitted in this block into ``registry``."""
    _registry_stack.append(registry)
    try:
        yield registry
    finally:
        _registry_stack.pop()
