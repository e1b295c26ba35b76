"""Metric primitives: counters, gauges, log-bucketed histograms, labels.

Dependency-free building blocks for service telemetry. The design
follows the Prometheus data model — a *metric* is a named series with
optional labels; a *registry* owns metrics and composes child
registries — but everything here is plain in-process Python: recording
is a dict update, snapshots are JSON-compatible dicts, and the text
exposition is generated on demand.

Histograms are log-bucketed (geometric bucket bounds), so streaming
p50/p95/p99 estimates are available at O(1) record cost with a bounded
relative error of ``growth - 1`` (≈5% at the default growth of 1.05),
independent of the value range — the right trade for latency series
that span nanoseconds to minutes.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Callable, Iterator


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming distribution summary over geometric (log) buckets.

    ``record(v)`` increments the bucket whose geometric bound covers
    ``v``; :meth:`percentile` walks the cumulative bucket counts and
    answers with the bucket's geometric midpoint, clamped to the exact
    observed ``[min, max]``. Values at or below ``floor`` share the
    underflow bucket (sub-nanosecond latencies are noise, not signal).
    """

    __slots__ = ("growth", "floor", "_log_growth", "_buckets",
                 "count", "total", "minimum", "maximum", "last")
    kind = "histogram"

    def __init__(self, growth: float = 1.05, floor: float = 1e-9) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.growth = growth
        self.floor = floor
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0
        self.last = 0.0

    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.floor:
            return 0
        return 1 + math.floor(math.log(value / self.floor) / self._log_growth)

    def _midpoint(self, index: int) -> float:
        if index == 0:
            return self.floor
        # Geometric midpoint of [floor·g^(i-1), floor·g^i].
        return self.floor * self.growth ** (index - 0.5)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of the series."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Nearest-rank over the cumulative bucket counts.
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                estimate = self._midpoint(index)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "last": self.last,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


_METRIC_KINDS: dict[str, Callable[[], Any]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """A named metric with label dimensions; one child per label set.

    ``family.labels(shard="0").inc()`` — children are created on first
    touch and keyed by the label *values* in declaration order, so the
    same label set always addresses the same child.
    """

    def __init__(self, name: str, kind: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.kind = kind
        self.label_names = label_names
        self._factory = _METRIC_KINDS[kind]
        self._children: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels: Any):
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._factory()
        return child

    def fresh(self, **labels: Any):
        """A new zeroed child for ``labels``, replacing any earlier one.

        For a component that resolves its children once, when it is
        built: a rebuilt component (a recovery, a tenant reload) counts
        from zero, and the family exposes the live component's series.
        """
        child = self._children[self._key(labels)] = self._factory()
        return child

    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        for key, child in self._children.items():
            yield dict(zip(self.label_names, key)), child

    def snapshot(self) -> dict:
        return {
            ",".join(f"{n}={v}" for n, v in zip(self.label_names, key)): child.snapshot()
            for key, child in sorted(self._children.items())
        }


class MetricsRegistry:
    """Named metrics plus child registries, snapshotted as one dict.

    Per-component registries (stream, oplog, shipper, one per replica…)
    register under a parent via :meth:`child`; ``snapshot()`` nests
    them, and :meth:`to_prometheus` flattens the whole tree into a
    Prometheus-style text exposition with the component path as a
    metric-name prefix.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._children: dict[str, "MetricsRegistry"] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _named(self, name: str, kind: str, labels: tuple[str, ...], help: str | None):
        if help is not None:
            self._help.setdefault(name, help)
        metric = self._metrics.get(name)
        if metric is None:
            if labels:
                metric = MetricFamily(name, kind, tuple(labels))
            else:
                metric = _METRIC_KINDS[kind]()
            self._metrics[name] = metric
            return metric
        want_family = bool(labels)
        is_family = isinstance(metric, MetricFamily)
        if metric.kind != kind or want_family != is_family or (
            is_family and metric.label_names != tuple(labels)
        ):
            raise ValueError(f"metric {name!r} already registered with a different shape")
        return metric

    def counter(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self._named(name, "counter", labels, help)

    def gauge(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self._named(name, "gauge", labels, help)

    def histogram(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self._named(name, "histogram", labels, help)

    def child(self, name: str) -> "MetricsRegistry":
        """Get-or-create the named component sub-registry."""
        registry = self._children.get(name)
        if registry is None:
            registry = self._children[name] = MetricsRegistry()
        return registry

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        out: dict[str, Any] = {
            name: metric.snapshot() for name, metric in sorted(self._metrics.items())
        }
        for name, registry in sorted(self._children.items()):
            out[name] = registry.snapshot()
        return out

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition of every metric in the tree."""
        lines: list[str] = []
        self._expose(prefix, lines)
        return "\n".join(lines) + "\n" if lines else ""

    def _expose(self, prefix: str, lines: list[str]) -> None:
        for name, metric in sorted(self._metrics.items()):
            full = f"{prefix}_{_sanitize(name)}"
            help_text = self._help.get(name, name.replace("_", " "))
            lines.append(f"# HELP {full} {_escape_help(help_text)}")
            lines.append(f"# TYPE {full} {_prom_type(metric.kind)}")
            if isinstance(metric, MetricFamily):
                for labels, child in sorted(
                    metric.series(), key=lambda pair: sorted(pair[0].items())
                ):
                    _expose_metric(full, labels, child, lines)
            else:
                _expose_metric(full, {}, metric, lines)
        for name, registry in sorted(self._children.items()):
            registry._expose(f"{prefix}_{_sanitize(name)}", lines)


def _prom_type(kind: str) -> str:
    return "summary" if kind == "histogram" else kind


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Backslash first — escaping it last would re-escape the escapes the
    other two rules just introduced.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (but not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_sanitize(k)}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _expose_metric(full: str, labels: dict[str, str], metric, lines: list[str]) -> None:
    if isinstance(metric, Histogram):
        for q in (0.5, 0.95, 0.99):
            quantile_labels = dict(labels, quantile=str(q))
            lines.append(f"{full}{_label_str(quantile_labels)} {metric.percentile(q)}")
        lines.append(f"{full}_sum{_label_str(labels)} {metric.total}")
        lines.append(f"{full}_count{_label_str(labels)} {metric.count}")
    else:
        lines.append(f"{full}{_label_str(labels)} {metric.value}")


_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    return _SANITIZE.sub("_", name)


def write_metrics_json(path, snapshot: dict) -> None:
    """Write a snapshot dict as a JSON artifact (benchmark/CI uploads)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")

