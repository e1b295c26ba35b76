"""The Telemetry bundle: one object a service threads through its layers.

A :class:`Telemetry` owns a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.tracing.Tracer`, and fuses them at the one
primitive everything instruments with: :meth:`span`. Every completed
span is both a trace event (timeline) *and* a sample in the
``span_seconds{name=...}`` histogram family (streaming p50/p95/p99) —
so instrumenting a code path once yields latency percentiles and a
Chrome-trace timeline together.

:data:`NULL_TELEMETRY` is the zero-cost-when-off recorder: a shared
singleton whose ``enabled`` is ``False`` and whose every method is a
constant-time no-op. Hot paths guard with ``if obs.enabled:`` so the
disabled cost is one attribute lookup; warm paths may simply
``with obs.span(...):`` — on the null recorder that returns a shared,
allocation-free context manager.

Pass ``StreamConfig(telemetry="on")`` (or a shared :class:`Telemetry`
instance — how :class:`~repro.serve.Service` merges tenant, shipper
and replica telemetry into one snapshot) to enable collection.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .metrics import MetricsRegistry
from .tracing import NULL_SPAN, NullTracer, Tracer, _NullSpanContext


class Telemetry:
    """Metrics registry + tracer, fused at the ``span`` primitive."""

    enabled = True

    def __init__(
        self,
        max_spans: int = 8192,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = MetricsRegistry()
        self._dropped_spans = self.registry.counter(
            "obs_dropped_spans_total",
            help="Completed spans evicted from the full trace ring buffer",
        )
        self.tracer = Tracer(
            max_spans=max_spans,
            clock=clock,
            on_complete=self._span_done,
            on_drop=self._dropped_spans.inc,
        )
        self._span_seconds = self.registry.histogram(
            "span_seconds",
            labels=("name",),
            help="Latency of instrumented sections, per span name",
        )

    def _span_done(self, span) -> None:
        self._span_seconds.labels(name=span.name).record(span.duration)

    # ------------------------------------------------------------------
    def span(self, name: str, **args: Any):
        """Time a section: trace event + ``span_seconds`` histogram sample."""
        return self.tracer.span(name, **args)

    def current_span(self):
        """The innermost open span (log correlation), ``None`` outside."""
        return self.tracer.current()

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id

    def counter(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self.registry.counter(name, labels, help=help)

    def gauge(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self.registry.gauge(name, labels, help=help)

    def histogram(self, name: str, labels: tuple[str, ...] = (), help: str | None = None):
        return self.registry.histogram(name, labels, help=help)

    def component(self, name: str) -> MetricsRegistry:
        """Per-component child registry (oplog, shipper, replica-N, …)."""
        return self.registry.child(name)

    def stats_registry(self) -> MetricsRegistry:
        """Where a component keeps the instruments its ``stats()`` reads:
        this recorder's own registry, so ``/metrics`` exposes them."""
        return self.registry

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One merged, JSON-compatible dict of everything collected."""
        return {
            "enabled": True,
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.snapshot(),
        }

    def to_prometheus(self, prefix: str = "repro") -> str:
        return self.registry.to_prometheus(prefix=prefix)

    def write_chrome_trace(self, path) -> None:
        self.tracer.write_chrome_trace(path)


class _NullMetric:
    """Accepts every record/inc/set and stores nothing."""

    __slots__ = ()

    def inc(self, amount: Any = 1) -> None:
        pass

    def dec(self, amount: Any = 1) -> None:
        pass

    def set(self, value: Any) -> None:
        pass

    def record(self, value: Any) -> None:
        pass

    def labels(self, **labels: Any) -> "_NullMetric":
        return self

    def snapshot(self) -> dict:
        return {}


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    __slots__ = ()

    def counter(
        self, name: str, labels: tuple[str, ...] = (), help: str | None = None
    ) -> _NullMetric:
        return _NULL_METRIC

    gauge = counter
    histogram = counter

    def child(self, name: str) -> "_NullRegistry":
        return self

    def snapshot(self) -> dict:
        return {}

    def to_prometheus(self, prefix: str = "repro") -> str:
        return ""


class NullTelemetry:
    """The disabled recorder: constant-time no-ops everywhere.

    A process-wide singleton (:data:`NULL_TELEMETRY`); components hold
    it by default so instrumented code never branches on ``None``.
    """

    enabled = False

    def __init__(self) -> None:
        self.registry = _NullRegistry()
        self.tracer = NullTracer()

    def span(self, name: str, **args: Any) -> _NullSpanContext:
        return NULL_SPAN

    def current_span(self) -> None:
        return None

    trace_id = "0-0"

    def counter(
        self, name: str, labels: tuple[str, ...] = (), help: str | None = None
    ) -> _NullMetric:
        return _NULL_METRIC

    gauge = counter
    histogram = counter

    def component(self, name: str) -> _NullRegistry:
        return self.registry

    def stats_registry(self) -> MetricsRegistry:
        """A private registry: ``stats()`` counts with telemetry off, and
        nothing exposes it."""
        return MetricsRegistry()

    def snapshot(self) -> dict:
        return {"enabled": False}

    def to_prometheus(self, prefix: str = "repro") -> str:
        return ""

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"traceEvents": [], "displayTimeUnit": "ms"}\n')


NULL_TELEMETRY = NullTelemetry()

#: Accepted values for ``StreamConfig.telemetry`` besides an instance.
TELEMETRY_SETTINGS = (None, False, True, "off", "on")


def make_telemetry(setting: Any) -> Telemetry | NullTelemetry:
    """Resolve a config value into a recorder.

    ``None``/``False``/``"off"`` → the shared :data:`NULL_TELEMETRY`;
    ``True``/``"on"`` → a fresh :class:`Telemetry`; an existing
    recorder instance (anything with an ``enabled`` attribute) passes
    through, which is how several services share one collection point.
    """
    if setting is None or setting is False or setting == "off":
        return NULL_TELEMETRY
    if setting is True or setting == "on":
        return Telemetry()
    if hasattr(setting, "enabled") and hasattr(setting, "span"):
        return setting
    raise ValueError(
        f"telemetry must be one of {TELEMETRY_SETTINGS} or a Telemetry "
        f"instance, got {setting!r}"
    )
