"""Structured logging: one JSON object per line, rate-limited, correlated.

A :class:`StructuredLogger` is the service-side answer to "what was the
system doing when the metric spiked?": every emitted line is a single
JSON object carrying the component, the event name, a level, monotonic
elapsed seconds since the logger started, the wall-clock timestamp, and
— when the call happens inside an open :class:`~repro.obs.tracing.Span`
— the recorder's ``trace`` id plus the active ``span``/``span_id``, so
log lines join against the Chrome trace and the ``span_seconds``
histograms without any side table.

Hot paths may log unconditionally because every logger sits behind a
:class:`~repro.ratelimit.TokenBucket`: once the budget is exhausted,
lines are *counted* instead of written (``obs_dropped_logs_total`` on
the attached telemetry, plus a local counter), and the next line that
does get through carries ``dropped_since_last`` — suppression is
visible in-band, never silent.

A logger constructed with ``stream=None`` is disabled: ``log()`` is a
constant-time no-op returning ``False``, so components can hold a
logger unconditionally the same way they hold ``NULL_TELEMETRY``.

Clock domains: see :mod:`repro.obs` — ``ts`` is ``time.time()`` (wall,
cross-process), ``elapsed_s`` is ``time.monotonic()`` (never goes
backwards, meaningless across processes).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, TextIO

from repro.ratelimit import TokenBucket

from .telemetry import NULL_TELEMETRY

LEVELS = ("debug", "info", "warning", "error")


class StructuredLogger:
    """Rate-limited JSON-lines logger for one named component.

    Parameters
    ----------
    component:
        Stamped into every line; one logger per pipeline stage
        (``"stream"``, ``"replica-0"``, ``"obs.server"``…).
    stream:
        Writable text stream (``sys.stderr``, an open file…); ``None``
        disables the logger (constant-time no-op).
    telemetry:
        Recorder the drop counter lands in, and the source of span/trace
        correlation ids. Defaults to the no-op singleton (lines still
        emit; they just carry no correlation ids).
    limiter:
        Token bucket shared across levels, one token per line; ``None``
        builds the default (200 lines/s, burst 50), and
        ``burst=math.inf`` never limits. ``error``-level lines bypass
        it — failures must never be the thing rate limiting hides.
    """

    def __init__(
        self,
        component: str,
        stream: TextIO | None = None,
        *,
        telemetry=NULL_TELEMETRY,
        limiter: TokenBucket | None = None,
        clock: Callable[[], float] = time.time,
        mono: Callable[[], float] = time.monotonic,
    ) -> None:
        self.component = component
        self.stream = stream
        self.telemetry = telemetry
        self.limiter = limiter if limiter is not None else TokenBucket(200.0, 50)
        self.clock = clock
        self.mono = mono
        self.epoch = mono()
        self.lines_emitted = 0
        self.lines_dropped = 0
        self._dropped_since_last = 0
        self._dropped_counter = telemetry.counter(
            "obs_dropped_logs_total",
            labels=("component",),
            help="Structured log lines suppressed by the rate limiter",
        )

    @property
    def enabled(self) -> bool:
        return self.stream is not None

    # ------------------------------------------------------------------
    def log(self, event: str, level: str = "info", **fields: Any) -> bool:
        """Emit one JSON line; returns whether it was written.

        ``fields`` are merged into the object as-is (values must be
        JSON-encodable; anything else is stringified). Dropped lines are
        counted, and the next emitted line reports the count.
        """
        if self.stream is None:
            return False
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        if level != "error" and self.limiter.try_acquire(1) is not None:
            self.lines_dropped += 1
            self._dropped_since_last += 1
            self._dropped_counter.labels(component=self.component).inc()
            return False
        record: dict[str, Any] = {
            "ts": self.clock(),
            "elapsed_s": self.mono() - self.epoch,
            "level": level,
            "component": self.component,
            "event": event,
        }
        span = self.telemetry.current_span()
        if span is not None:
            record["trace"] = self.telemetry.trace_id
            record["span"] = span.name
            record["span_id"] = span.span_id
        if self._dropped_since_last:
            record["dropped_since_last"] = self._dropped_since_last
            self._dropped_since_last = 0
        for key, value in fields.items():
            record[key] = value if _json_encodable(value) else str(value)
        try:
            self.stream.write(json.dumps(record) + "\n")
        except (ValueError, OSError):
            # A closed/broken stream must never take the service down;
            # the line is lost, which the drop counter records.
            self.lines_dropped += 1
            self._dropped_counter.labels(component=self.component).inc()
            return False
        self.lines_emitted += 1
        return True

    def debug(self, event: str, **fields: Any) -> bool:
        return self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> bool:
        return self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> bool:
        return self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> bool:
        return self.log(event, level="error", **fields)

    def child(self, component: str) -> "StructuredLogger":
        """A logger for a sub-component sharing this stream and limiter."""
        return StructuredLogger(
            component,
            self.stream,
            telemetry=self.telemetry,
            limiter=self.limiter,
            clock=self.clock,
            mono=self.mono,
        )


def _json_encodable(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_encodable(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_encodable(item)
            for key, item in value.items()
        )
    return False


#: Disabled logger components hold by default (mirrors NULL_TELEMETRY).
NULL_LOGGER = StructuredLogger("null", stream=None)
