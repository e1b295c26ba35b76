"""Health checks: named component probes aggregated to one verdict.

The operational contract a load balancer (or an operator's ``curl``)
probes: a :class:`HealthRegistry` owns named checks — each a callable
returning a :class:`CheckResult` — and :meth:`HealthRegistry.report`
runs them all, aggregating to ``ok`` / ``degraded`` / ``failing`` with
per-check detail. A probe that *raises* is itself a ``failing`` result
(the error message becomes the detail): a health endpoint must never be
taken down by the thing it is reporting on.

Two endpoint semantics are derived from one registry (see
:class:`~repro.obs.server.ObsServer`):

* **liveness** (``/healthz``) — "is the process up and serving?";
  always 200 while the server answers, no checks consulted.
* **readiness** (``/readyz``) — "should traffic be routed here?";
  200 while the aggregate is ``ok`` or ``degraded`` (stale-but-serving
  beats flapping out of the pool), 503 once any check reports
  ``failing`` — or while a *gate* (e.g. follower bootstrap) has not
  opened yet.

The standard service checks (oplog appendable, checkpoint store
writable, shard backlog bounded, replica lag bounded) are built by the
``check_*`` factories below and wired up by
:class:`~repro.stream.service.ClusteringService`,
:class:`~repro.replica.ReadReplica` and :class:`~repro.serve.Service`
(one ``replica:<name>`` lag check per attached tenant replica).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

OK = "ok"
DEGRADED = "degraded"
FAILING = "failing"
_SEVERITY = {OK: 0, DEGRADED: 1, FAILING: 2}


@dataclass(frozen=True)
class CheckResult:
    """One probe's verdict: a status, a human detail line, and data."""

    status: str
    detail: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in _SEVERITY:
            raise ValueError(
                f"status must be one of {tuple(_SEVERITY)}, got {self.status!r}"
            )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"status": self.status, "detail": self.detail}
        if self.data:
            out["data"] = dict(self.data)
        return out


def ok(detail: str = "", **data: Any) -> CheckResult:
    return CheckResult(OK, detail, data)


def degraded(detail: str = "", **data: Any) -> CheckResult:
    return CheckResult(DEGRADED, detail, data)


def failing(detail: str = "", **data: Any) -> CheckResult:
    return CheckResult(FAILING, detail, data)


class HealthRegistry:
    """Named probes plus an optional readiness gate.

    ``ready_when`` is the bootstrap gate: a zero-argument callable that
    must return ``True`` before :meth:`report` may call the component
    ready, independent of check results — how a follower stays out of
    the read pool until its first successful poll even though every
    individual probe is green.
    """

    def __init__(self, ready_when: Callable[[], bool] | None = None) -> None:
        self._checks: dict[str, Callable[[], CheckResult]] = {}
        self.ready_when = ready_when

    def register(self, name: str, probe: Callable[[], CheckResult]) -> None:
        """Add or replace the named probe."""
        self._checks[name] = probe

    def unregister(self, name: str) -> None:
        self._checks.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._checks)

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Run every probe; aggregate worst-wins with per-check detail."""
        checks: dict[str, dict] = {}
        worst = OK
        for name in sorted(self._checks):
            try:
                result = self._checks[name]()
            except Exception as exc:  # a broken probe is a failing check
                result = failing(f"probe raised {type(exc).__name__}: {exc}")
            checks[name] = result.to_dict()
            if _SEVERITY[result.status] > _SEVERITY[worst]:
                worst = result.status
        gated = self.ready_when is not None and not self.ready_when()
        return {
            "status": worst,
            "ready": worst != FAILING and not gated,
            "gated": gated,
            "checks": checks,
        }


# ---------------------------------------------------------------------------
# Standard probe factories for the serving stack
# ---------------------------------------------------------------------------
def check_oplog(log) -> Callable[[], CheckResult]:
    """Oplog appendable: the backing medium is open and statable."""

    def probe() -> CheckResult:
        if log is None:
            return ok("ephemeral service (no oplog configured)")
        try:
            size = log.size_bytes()
        except Exception as exc:
            return failing(f"oplog unusable: {type(exc).__name__}: {exc}")
        handle = getattr(log, "_handle", None)
        if handle is not None and handle.closed:
            return failing("oplog file handle is closed")
        return ok("appendable", last_seq=log.last_seq, bytes=size)

    return probe


def check_checkpoints(store) -> Callable[[], CheckResult]:
    """Checkpoint store writable: listable, and its directory accepts writes."""

    def probe() -> CheckResult:
        if store is None:
            return ok("checkpointing disabled")
        try:
            seqs = store.list_seqs()
        except Exception as exc:
            return failing(f"checkpoint store unreadable: {type(exc).__name__}: {exc}")
        path = getattr(store, "directory", None) or getattr(store, "path", None)
        if path is not None:
            target = path if os.path.isdir(path) else os.path.dirname(str(path)) or "."
            if not os.access(target, os.W_OK):
                return failing(f"checkpoint location not writable: {target}")
        return ok("writable", snapshots=len(seqs))

    return probe


def check_backlog(service, max_pending: int) -> Callable[[], CheckResult]:
    """Shard backlog bounded: pending (unapplied) operations below bound."""

    def probe() -> CheckResult:
        pending = len(service.batcher)
        data = {"pending_ops": pending, "bound": max_pending}
        if pending > max_pending:
            return degraded(
                f"{pending} pending ops exceed bound {max_pending}", **data
            )
        return ok("backlog within bound", **data)

    return probe


def check_replica_lag(
    lag_fn: Callable[[], dict],
    *,
    max_seq_delta: int,
    max_staleness_s: float,
) -> Callable[[], CheckResult]:
    """Per-replica lag bounded: seq delta and staleness below thresholds.

    ``lag_fn`` is one replica's :meth:`~repro.replica.replica.ReadReplica.lag`.
    A replica that has never heard from its primary is ``degraded`` (it
    cannot vouch for its answers), not failing — it may simply be first
    in line after attach.
    """

    def probe() -> CheckResult:
        lag = lag_fn()
        data = {
            "seq_delta": lag["seq_delta"],
            "staleness_s": lag["staleness_s"],
            "visibility_lag_s": lag.get("visibility_lag_s"),
        }
        if lag["staleness_s"] is None:
            return degraded("never heard from primary", **data)
        if lag["seq_delta"] > max_seq_delta:
            return degraded(
                f"seq delta {lag['seq_delta']} exceeds bound {max_seq_delta}",
                **data,
            )
        if lag["staleness_s"] > max_staleness_s:
            return degraded(
                f"staleness {lag['staleness_s']:.1f}s exceeds bound "
                f"{max_staleness_s:.1f}s",
                **data,
            )
        return ok("within lag bounds", **data)

    return probe
