"""repro.obs — unified, dependency-free observability.

Five layers, one import:

* :mod:`repro.obs.metrics` — labeled :class:`Counter` / :class:`Gauge` /
  log-bucketed :class:`Histogram` (streaming p50/p95/p99) primitives in
  a composable :class:`MetricsRegistry`, with a Prometheus-style text
  exposition (``# HELP``/``# TYPE`` headers, escaped label values) and
  a JSON artifact writer;
* :mod:`repro.obs.tracing` — the span API (``with tracer.span(...)``),
  a bounded ring buffer of recent spans with an eviction counter, and a
  Chrome-trace-event (`chrome://tracing`) JSON exporter;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` bundle services
  thread through their layers (every span is a trace event *and* a
  latency-histogram sample), plus the zero-cost :data:`NULL_TELEMETRY`
  recorder selected when telemetry is off. Components keep the
  instruments their ``stats()`` reads in ``stats_registry()``: the
  recorder's own registry (what ``/metrics`` serves), or a private one
  when telemetry is off;
* :mod:`repro.obs.logging` — :class:`StructuredLogger`: one JSON object
  per line, span/trace correlation ids, token-bucket rate limiting with
  in-band drop accounting;
* :mod:`repro.obs.health` + :mod:`repro.obs.server` — the operational
  surface: a :class:`HealthRegistry` of named component checks
  aggregated to ok/degraded/failing, served with metrics and traces by
  :class:`ObsServer` (stdlib ``ThreadingHTTPServer``) at ``/metrics``,
  ``/metrics.json``, ``/traces``, ``/healthz`` and ``/readyz``.

Enable on a service with ``StreamConfig(telemetry="on")`` and expose it
with ``StreamConfig(obs_server="127.0.0.1:0")``; share one collection
point across a primary/replica topology by passing the same
:class:`Telemetry` instance to every config.

Clock domains
-------------

Three clocks appear across the observability surface; each field uses
exactly one, chosen by what it must survive:

* ``time.time()`` — wall clock, the only clock meaningful **across
  processes**. Used for ``Operation.ingest_ts``, segment/heartbeat
  ``shipped_at`` and the watermark fields derived from them
  (``staleness_s``, ``visibility_lag_s``, ``e2e_visibility_seconds``),
  and the ``ts`` field of structured log lines. Subject to NTP steps
  and host skew, so every consumer clamps derived deltas at ``>= 0``
  rather than reporting time running backwards.
* ``time.monotonic()`` — never goes backwards, **meaningless across
  processes**. Used where skew must not produce nonsense: a replica's
  ``applied_age_s`` ("how long since *this process* applied
  something"), the log rate limiter's token bucket, and a logger's
  ``elapsed_s``.
* ``time.perf_counter()`` — highest-resolution monotonic clock, used
  only inside the tracer for span durations; exported trace timestamps
  are offsets from the tracer's own epoch, never absolute times.

Rule of thumb: if a number crosses a process boundary it is wall time
and readers clamp; if it only compares a process with its own past it
is monotonic.
"""

from .health import (
    CheckResult,
    HealthRegistry,
    check_backlog,
    check_checkpoints,
    check_oplog,
    check_replica_lag,
    degraded,
    failing,
    ok,
)
from .logging import NULL_LOGGER, StructuredLogger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    write_metrics_json,
)
from .server import ObsServer, parse_listen
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TELEMETRY_SETTINGS,
    make_telemetry,
)
from .tracing import NullTracer, Span, Tracer

__all__ = [
    "CheckResult",
    "Counter",
    "Gauge",
    "HealthRegistry",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "NullTracer",
    "ObsServer",
    "Span",
    "StructuredLogger",
    "TELEMETRY_SETTINGS",
    "Telemetry",
    "Tracer",
    "check_backlog",
    "check_checkpoints",
    "check_oplog",
    "check_replica_lag",
    "degraded",
    "failing",
    "make_telemetry",
    "ok",
    "parse_listen",
    "write_metrics_json",
]
