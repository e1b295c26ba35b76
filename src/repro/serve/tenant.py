"""TenantManager: per-tenant engine pools over one shared operation log.

The multi-tenant engine room behind :class:`repro.serve.Service`. One
manager owns:

* **the shared log** — a single tenant-stamped
  :class:`~repro.stream.oplog.LogBackend` with global sequence numbers;
  every accepted operation is stamped ``tenant=...`` (and, via each
  tenant's router, ``shard=...``) *before* it is appended, so recovery,
  eviction reload, compaction and replica catch-up all filter the same
  durable record instead of consulting side tables;
* **per-tenant engine pools** — each resident tenant is one oplog-less
  :class:`~repro.stream.service.ClusteringService` (N DynamicC shards,
  its own router, metrics and checkpoint store) fed through
  ``apply_logged``, the same code path crash recovery and replicas
  replay through. Per-tenant global-sequence gaps are other tenants'
  traffic, so round cutting is by count and by tenant-stamped flush
  markers only — which is exactly what makes a tenant's state
  byte-identical to a run of that tenant alone;
* **admission control** — per-tenant ops/s token buckets, live-object
  ceilings and backlog bounds, all checked *before* any state is
  touched; a rejection is a typed
  :class:`~repro.errors.QuotaExceeded` and a
  ``quota_rejections_total{tenant=...,reason=...}`` increment, never a
  partial write;
* **LRU activation** — at most ``max_resident_tenants`` pools live at
  once; the least-recently-used tenant is checkpointed out and closed,
  and reloads lazily on its next touch from its checkpoint plus the
  shared-log suffix (pending operations live in the log past the
  checkpoint's ``applied_seq``, so eviction loses nothing);
* **replication** — one :class:`~repro.replica.LogShipper` fans the
  shared log out to tenant-filtered
  :class:`~repro.replica.ReadReplica` followers, each bootstrapped
  from its tenant's newest checkpoint.
"""

from __future__ import annotations

import os
import re
import time
from collections import OrderedDict
from typing import Any, Iterable, Sequence

from repro.errors import (
    ConfigError,
    DegradedError,
    DurabilityError,
    QuotaExceeded,
    UnknownTenantError,
)
from repro.faults.breaker import CircuitBreaker
from repro.faults.inject import fire
from repro.faults.retry import RetryPolicy
from repro.obs.health import (
    HealthRegistry,
    check_oplog,
    check_replica_lag,
    degraded,
    ok,
)
from repro.obs.logging import NULL_LOGGER, StructuredLogger
from repro.obs.telemetry import make_telemetry
from repro.ratelimit import TokenBucket
from repro.replica.replica import ReadReplica
from repro.replica.shipper import LogShipper
from repro.replica.transport import InProcessTransport
from repro.stream.checkpoint import open_checkpoints
from repro.stream.events import ADD, FLUSH, Operation
from repro.stream.oplog import open_log
from repro.stream.service import (
    ClusteringService,
    _internal_construction,
    latency_stats,
)

from .config import ServeConfig

#: Tenant names double as directory names and metric label values.
_TENANT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class TenantEntry:
    """One resident tenant: its engine pool plus admission state."""

    __slots__ = ("name", "service", "bucket", "ops")

    def __init__(
        self, name: str, service: ClusteringService, bucket: TokenBucket | None, ops
    ) -> None:
        self.name = name
        self.service = service
        self.bucket = bucket
        self.ops = ops  # this tenant's tenant_ops_total child


class TenantManager:
    """Engine pools, quotas and the shared log for all tenants."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._factory = config.engine_factory
        #: One recorder for the whole multi-tenant topology; tenant
        #: services and replicas share the instance so ``/metrics`` is
        #: a single labeled surface.
        self.telemetry = make_telemetry(config.telemetry)
        root = config.resolve_root()
        tenants_root = config.tenants_root()
        if tenants_root is not None:
            tenants_root.mkdir(parents=True, exist_ok=True)
        self.oplog = (
            open_log(
                config.oplog_path(),
                backend=config.log_backend,
                fsync=config.fsync,
            )
            if root is not None
            else None
        )
        if self.oplog is not None:
            self.oplog.obs = self.telemetry
        self._shipper = (
            LogShipper(
                self.oplog,
                snapshots=None,  # snapshots are per tenant, not global
                max_segment_ops=config.max_segment_ops,
                obs=self.telemetry,
            )
            if self.oplog is not None
            else None
        )
        self._replicas: "OrderedDict[str, ReadReplica]" = OrderedDict()
        #: Resident tenants in LRU order (least-recent first).
        self._residents: "OrderedDict[str, TenantEntry]" = OrderedDict()
        #: Every tenant this root has ever activated (residents plus
        #: checkpointed-out directories found on disk).
        self._known: set[str] = set()
        if tenants_root is not None:
            self._known.update(
                entry.name for entry in tenants_root.iterdir() if entry.is_dir()
            )
        self._next_seq = 1  # ephemeral stamping when there is no log
        self.logger = (
            StructuredLogger(
                f"serve.{config.node_name}",
                config.log_stream,
                telemetry=self.telemetry,
            )
            if config.log_stream is not None
            else NULL_LOGGER
        )
        # The instruments stats() reads. With telemetry on they live in
        # its registry, so /metrics exposes the same objects.
        registry = self.telemetry.stats_registry()
        #: This manager's children of those families, by label values.
        self._children: dict[Any, dict[tuple[str, ...], Any]] = {}
        self._ingest_latency = registry.histogram(
            "serve_ingest_seconds",
            labels=("node",),
            help="Seconds per accepted tenant ingest call, end to end",
        ).fresh(node=config.node_name)
        self._ops_family = registry.counter(
            "tenant_ops_total",
            labels=("tenant",),
            help="Operations accepted into the shared log, per tenant",
        )
        self._rejection_family = registry.counter(
            "quota_rejections_total",
            labels=("tenant", "reason"),
            help="Ingest batches rejected by admission control",
        )
        self._activation_family = registry.counter(
            "tenant_activations_total",
            labels=("tenant",),
            help="Tenant engine pools built (first touch or reload)",
        )
        self._eviction_family = registry.counter(
            "tenant_evictions_total",
            labels=("tenant",),
            help="Tenant engine pools checkpointed out under the LRU cap",
        )
        self._resident_gauge = self.telemetry.gauge(
            "resident_tenants",
            help="Tenant engine pools currently live in memory",
        )
        self._degraded_family = registry.counter(
            "degraded_rejections_total",
            labels=("tenant", "reason"),
            help="Ingest batches rejected because a durability path is degraded",
        )
        #: Retry policy around shared-log appends: transient I/O heals
        #: in place; ENOSPC / exhaustion opens the oplog breaker.
        self._oplog_retry = RetryPolicy()
        #: Shared-path breaker: when the multi-tenant log cannot append,
        #: *every* tenant's ingest is down — severity ``failing`` so
        #: ``/readyz`` answers 503. No probe callable: the half-open
        #: trial is the next real ingest's append.
        self._oplog_breaker = CircuitBreaker(
            "oplog",
            base_backoff_s=config.degraded_probe_s,
            max_backoff_s=config.degraded_probe_max_s,
            obs=self.telemetry,
        )
        #: Per-tenant checkpoint-path breakers, created on first failure
        #: or first activation; severity ``degraded`` — one tenant's
        #: full disk must not 503 its neighbours.
        self._breakers: dict[str, CircuitBreaker] = {}
        self.health = HealthRegistry()
        self.health.register("oplog", check_oplog(self.oplog))
        self.health.register("residency", self._check_residency)
        if self.oplog is not None:
            self.health.register(
                "durability", self._oplog_breaker.health_check("failing")
            )
        self._health_tenants: set[str] = set()
        if self.logger.enabled:
            self.logger.info(
                "serve_started",
                node=config.node_name,
                root=str(root) if root is not None else None,
                known_tenants=len(self._known),
                max_resident=config.max_resident_tenants,
            )

    # ------------------------------------------------------------------
    # Residency / LRU activation
    # ------------------------------------------------------------------
    @staticmethod
    def check_name(name: Any) -> str:
        if not isinstance(name, str) or not _TENANT_NAME.match(name):
            raise ConfigError(
                f"invalid tenant name {name!r}: names are 1-64 chars of "
                "[A-Za-z0-9._-] starting with an alphanumeric (they become "
                "directory names and metric label values)"
            )
        return name

    def _child(self, family, *values: str):
        """This manager's child of ``family`` for the label ``values``:
        fresh on first touch, so stats() counts only this manager's work."""
        children = self._children.setdefault(family, {})
        child = children.get(values)
        if child is None:
            labels = dict(zip(family.label_names, values))
            child = children[values] = family.fresh(**labels)
        return child

    def _total(self, family) -> int:
        return sum(child.value for child in self._children.get(family, {}).values())

    def resident(self) -> list[str]:
        """Resident tenant names, least-recently-used first."""
        return list(self._residents)

    def tenants(self) -> list[str]:
        """Every tenant this service knows (resident or evicted)."""
        return sorted(self._known | set(self._residents))

    def is_resident(self, name: str) -> bool:
        return name in self._residents

    def activate(self, name: str) -> TenantEntry:
        """Get the tenant's engine pool, building/reloading it lazily.

        A cache hit is an LRU touch. A miss builds the pool through the
        crash-recovery path — newest checkpoint (if any), then the
        shared-log suffix filtered to this tenant — so a reloaded
        tenant is in exactly the state it was evicted in, pending
        operations included.
        """
        entry = self._residents.get(self.check_name(name))
        if entry is not None:
            self._residents.move_to_end(name)
            return entry
        cfg = self.config.tenant_stream_config(name, self.telemetry)
        with self.telemetry.span("serve.tenant.activate", tenant=name):
            with _internal_construction():
                if cfg.checkpoint_dir is not None:
                    # recover() restores the newest checkpoint and
                    # refuses divergent round-cut parameters; with no
                    # checkpoint yet it degrades to a fresh service.
                    service = ClusteringService.recover(self._factory, cfg)
                else:
                    service = ClusteringService(self._factory, cfg)
            suffix = []
            if self.oplog is not None:
                suffix = list(
                    self.oplog.iter_tenant(name, after_seq=service.applied_seq)
                )
                if suffix:
                    service.apply_logged(suffix, contiguous=False)
            # The pool's commit watermark is its newest logged write: the
            # replayed suffix's newest stamp, else the checkpoint's
            # applied one (no suffix means every logged write applied).
            committed = service.applied_watermark_ts
            for op in suffix:
                if op.ingest_ts is not None:
                    committed = op.ingest_ts
            if committed is not None:
                service._note_commit(committed)
        bucket = (
            TokenBucket(
                self.config.quota_ops_per_s,
                self.config.quota_burst or self.config.quota_ops_per_s,
            )
            if self.config.quota_ops_per_s is not None
            else None
        )
        entry = TenantEntry(
            name, service, bucket, self._child(self._ops_family, name)
        )
        self._residents[name] = entry
        self._known.add(name)
        self._child(self._activation_family, name).inc()
        if name not in self._health_tenants:
            self._health_tenants.add(name)
            self.health.register(f"tenant:{name}", self._tenant_probe(name))
            if self.config.tenant_checkpoint_dir(name) is not None:
                self.health.register(
                    f"tenant:{name}:durability",
                    self._tenant_breaker(name).health_check("degraded"),
                )
        if self.logger.enabled:
            self.logger.info(
                "tenant_activated", tenant=name, applied_seq=service.applied_seq
            )
        cap = self.config.max_resident_tenants
        while cap is not None and len(self._residents) > cap:
            if not self._evict_lru(keep=name):
                break  # nothing evictable; run over-cap (residency degrades)
        self._resident_gauge.set(len(self._residents))
        return entry

    def _evict_lru(self, keep: str) -> bool:
        """Evict the LRU-most evictable tenant; returns whether one went.

        A tenant whose checkpoint path is degraded (open breaker, probe
        still failing) is passed over rather than retried on every
        activation — the next candidate goes instead. When *no* tenant
        can be parked, the manager runs over-cap: strictly better than
        refusing admission because one tenant's disk is full.
        """
        for candidate in list(self._residents):
            if candidate == keep:
                continue
            breaker = self._breakers.get(candidate)
            if breaker is not None and not breaker.maybe_probe() and not breaker.allow():
                continue
            try:
                self.evict(candidate)
            except (DegradedError, OSError):
                continue  # evict() recorded the failure; try the next one
            return True
        return False

    def evict(self, name: str) -> None:
        """Checkpoint a tenant's pool out of memory (reloads lazily).

        Pending operations are *not* flushed first — they sit in the
        shared log past the checkpoint's ``applied_seq`` and replay on
        reactivation, preserving round boundaries exactly.
        """
        entry = self._residents.pop(name, None)
        if entry is None:
            raise UnknownTenantError(f"tenant {name!r} is not resident")
        if entry.service.checkpoints is None:
            self._residents[name] = entry  # put it back; nothing durable
            raise RuntimeError(
                f"cannot evict tenant {name!r}: the service has no root_dir, "
                "so there is no checkpoint store to park its state in"
            )
        with self.telemetry.span("serve.tenant.evict", tenant=name):
            try:
                entry.service.checkpoint()
            except (OSError, DurabilityError) as exc:
                # Can't park state we can't persist: put the entry back
                # (as LRU-most, so other tenants evict first), open the
                # tenant's breaker and reject typed.
                self._residents[name] = entry
                self._residents.move_to_end(name, last=False)
                self._fail_tenant(name, "checkpoint.save", exc)
            entry.service.close()
        self._tenant_breaker(name).record_success()
        self._child(self._eviction_family, name).inc()
        self._resident_gauge.set(len(self._residents))
        if self.logger.enabled:
            self.logger.info(
                "tenant_evicted",
                tenant=name,
                applied_seq=entry.service.applied_seq,
            )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, operations: Iterable[Operation | Sequence]) -> int:
        """Admit, stamp, log and apply one tenant's operations.

        The pipeline is: activate (LRU touch) → admission control (all
        checks precede any mutation) → tenant + watermark + placement
        stamps → shared-log append → ``apply_logged`` into the tenant's
        pool. Returns the number of operations accepted; raises
        :class:`~repro.errors.QuotaExceeded` rejecting the whole batch
        otherwise.
        """
        start = time.perf_counter()
        entry = self.activate(tenant)
        # Degradation gates precede quota checks: a write the durability
        # path cannot honour must not drain rate-limit tokens. The
        # shared-log breaker recovers through its own half-open trial
        # (the append below); a tenant breaker recovers via its probe.
        if self.oplog is not None and not self._oplog_breaker.allow():
            self._reject_degraded(
                None,
                "oplog.append",
                self._oplog_breaker.retry_after_s(),
                self._oplog_breaker.last_error,
                counted_tenant=tenant,
            )
        breaker = self._breakers.get(tenant)
        if breaker is not None and not breaker.maybe_probe() and not breaker.allow():
            self._reject_degraded(
                tenant,
                "checkpoint.save",
                breaker.retry_after_s(),
                breaker.last_error,
            )
        ops = [ClusteringService._coerce(op) for op in operations]
        if any(op.kind == FLUSH for op in ops):
            raise ValueError(
                "flush markers are control records; call flush() instead"
            )
        if entry.service.placements_stamped and self.config.router == "hash":
            raise RuntimeError(
                f"tenant {tenant!r} state contains stamped (least-loaded) "
                "placements; ingesting through router='hash' would route "
                "operations for already-placed objects to the wrong shard"
            )
        self._enforce_quota(tenant, entry, ops)
        now = time.time()
        stamped = []
        for op in ops:
            if op.ingest_ts is None:
                op = op.with_ingest_ts(now)
            stamped.append(op.with_tenant(tenant))
        with self.telemetry.span("serve.ingest", tenant=tenant, ops=len(stamped)):
            # Placement through the tenant's own router, before logging,
            # so the stamp is durable and replays verbatim.
            stamped = entry.service.router.assign(stamped)
            if self.oplog is not None:
                to_append = stamped
                try:
                    stamped = self._oplog_retry.run(
                        lambda: self.oplog.append(to_append),
                        boundary="oplog.append",
                        obs=self.telemetry,
                    )
                except (OSError, DurabilityError) as exc:
                    # Retries exhausted (or a non-retryable ENOSPC):
                    # shed writes, keep serving reads. Nothing was
                    # logged, so nothing is applied — the rejection is
                    # atomic like a quota bounce.
                    self._oplog_breaker.record_failure(exc)
                    self._reject_degraded(
                        None,
                        "oplog.append",
                        self._oplog_breaker.retry_after_s(),
                        exc,
                        counted_tenant=tenant,
                    )
                self._oplog_breaker.record_success()
            else:
                stamped = [
                    op.with_seq(self._next_seq + offset)
                    for offset, op in enumerate(stamped)
                ]
                self._next_seq += len(stamped)
            if stamped:  # accepted = logged, as on a solo primary
                entry.service._note_commit(stamped[-1].ingest_ts)
            entry.service.apply_logged(stamped)
        accepted = len(stamped)
        entry.ops.inc(accepted)
        if self.config.batch_max_age is not None and len(entry.service.batcher):
            if entry.service.batcher.oldest_age() >= self.config.batch_max_age:
                self.flush(tenant)
        self._ingest_latency.record(time.perf_counter() - start)
        return accepted

    def _enforce_quota(
        self, tenant: str, entry: TenantEntry, ops: list[Operation]
    ) -> None:
        # Non-consuming checks first: a batch bounced on backlog or
        # object count must not have drained rate-limit tokens.
        cfg = self.config
        n = len(ops)
        if cfg.quota_max_pending is not None:
            pending = len(entry.service.batcher)
            if pending + n > cfg.quota_max_pending:
                self._reject(
                    tenant,
                    "backlog",
                    f"tenant {tenant!r} backlog quota: {pending} pending + "
                    f"{n} new > {cfg.quota_max_pending} allowed — flush() or "
                    "wait for the batcher to drain",
                    limit=cfg.quota_max_pending,
                    current=pending,
                )
        if cfg.quota_max_objects is not None:
            # Project over applied *and* buffered state: pending adds
            # count against the cap even though they are not applied
            # yet, or a burst inside one micro-batch would slip past.
            membership = entry.service.membership
            pending_new = {
                op.obj_id
                for op in entry.service.batcher.pending()
                if op.kind == ADD and membership.shard_of(op.obj_id) is None
            }
            batch_new = {
                op.obj_id
                for op in ops
                if op.kind == ADD
                and membership.shard_of(op.obj_id) is None
                and op.obj_id not in pending_new
            }
            live = entry.service.num_objects() + len(pending_new)
            if live + len(batch_new) > cfg.quota_max_objects:
                self._reject(
                    tenant,
                    "max_objects",
                    f"tenant {tenant!r} object quota: {live} live/pending + "
                    f"{len(batch_new)} new > {cfg.quota_max_objects} allowed "
                    "— remove objects or raise quota_max_objects",
                    limit=cfg.quota_max_objects,
                    current=live,
                )
        if entry.bucket is not None:
            retry_after = entry.bucket.try_acquire(n)
            if retry_after is not None:
                self._reject(
                    tenant,
                    "ops_rate",
                    f"tenant {tenant!r} rate quota: {n} ops exceed the "
                    f"available burst at {cfg.quota_ops_per_s:g} ops/s — "
                    f"retry in {retry_after:.3f}s",
                    limit=cfg.quota_ops_per_s,
                    current=n,
                    retry_after_s=retry_after,
                )

    def _reject(
        self,
        tenant: str,
        reason: str,
        message: str,
        *,
        limit: float | None = None,
        current: float | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        self._child(self._rejection_family, tenant, reason).inc()
        if self.logger.enabled:
            self.logger.warning("quota_rejected", tenant=tenant, reason=reason)
        raise QuotaExceeded(
            tenant,
            reason,
            message,
            limit=limit,
            current=current,
            retry_after_s=retry_after_s,
        )

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _tenant_breaker(self, name: str) -> CircuitBreaker:
        """The named tenant's checkpoint-path breaker (created lazily)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                f"tenant:{name}",
                probe=self._durability_probe(name),
                base_backoff_s=self.config.degraded_probe_s,
                max_backoff_s=self.config.degraded_probe_max_s,
                obs=self.telemetry,
            )
            self._breakers[name] = breaker
        return breaker

    def _durability_probe(self, name: str):
        """A cheap write+fsync re-test of one tenant's checkpoint path.

        Routed through the ``checkpoint.save`` fault boundary with the
        probe file's path, so an injected (or real) fault scoped to
        this tenant's directory keeps the probe failing until lifted.
        """
        directory = self.config.tenant_checkpoint_dir(name)

        def probe() -> None:
            if directory is None:
                return
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / ".durability-probe"
            fire("checkpoint.save", path)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("ok")
                handle.flush()
                os.fsync(handle.fileno())
            os.unlink(path)

        return probe

    def _fail_tenant(self, name: str, reason: str, cause: Exception) -> None:
        """Record a tenant durability failure and raise typed.

        Unlike :meth:`_reject_degraded` this does not count an ingest
        rejection — it types a failed checkpoint/evict, opening the
        breaker that future ingests and ``/readyz`` consult.
        """
        breaker = self._tenant_breaker(name)
        breaker.record_failure(cause)
        if self.logger.enabled:
            self.logger.error(
                "tenant_degraded", tenant=name, reason=reason, detail=str(cause)
            )
        raise DegradedError(
            name,
            reason,
            f"tenant {name!r} durability path is degraded at {reason}: {cause} "
            f"— reads keep serving; next probe in "
            f"{breaker.retry_after_s():.3f}s",
            retry_after_s=breaker.retry_after_s(),
        ) from cause

    def _reject_degraded(
        self,
        tenant: str | None,
        reason: str,
        retry_after_s: float | None,
        cause=None,
        *,
        counted_tenant: str | None = None,
    ) -> None:
        label = tenant if tenant is not None else "_shared"
        self._child(self._degraded_family, label, reason).inc()
        if self.logger.enabled:
            self.logger.warning(
                "degraded_rejected",
                tenant=counted_tenant or tenant,
                reason=reason,
                retry_after_s=retry_after_s,
            )
        scope = (
            f"tenant {tenant!r}"
            if tenant is not None
            else "the shared oplog (all tenants)"
        )
        hint = (
            f"retry in {retry_after_s:.3f}s"
            if retry_after_s is not None
            else "no recovery probe is scheduled"
        )
        error = DegradedError(
            tenant,
            reason,
            f"ingest rejected: {scope} is degraded at {reason} "
            f"({cause if cause is not None else 'durability failure'}) — "
            f"reads keep serving; {hint}",
            retry_after_s=retry_after_s,
        )
        if isinstance(cause, BaseException):
            raise error from cause
        raise error

    # ------------------------------------------------------------------
    # Round control / durability
    # ------------------------------------------------------------------
    def flush(self, tenant: str) -> None:
        """Force the tenant's pending partial batch through as one round.

        The boundary is a *tenant-stamped* flush marker in the shared
        log, consumed through ``apply_logged`` — the identical record
        and code path an eviction reload or a tenant replica sees, so
        every consumer cuts this round in the same place.
        """
        entry = self.activate(tenant)
        if not len(entry.service.batcher):
            return
        marker = Operation(FLUSH, 0, tenant=tenant)
        if self.oplog is not None:
            [marker] = self.oplog.append([marker])
        else:
            marker = marker.with_seq(self._next_seq)
            self._next_seq += 1
        entry.service.apply_logged([marker])

    def flush_all(self) -> None:
        for name in self.resident():
            self.flush(name)

    def checkpoint(self, tenant: str):
        """Snapshot one tenant's pool; returns the snapshot path.

        A checkpoint that keeps failing (retry-exhausted transient I/O,
        or non-retryable ENOSPC) opens the tenant's durability breaker
        and raises :class:`~repro.errors.DegradedError` — state remains
        recoverable from the shared log, reads keep serving, and the
        breaker's probe closes it again once the path heals.
        """
        entry = self.activate(tenant)
        try:
            path = entry.service.checkpoint()
        except (OSError, DurabilityError) as exc:
            self._fail_tenant(tenant, "checkpoint.save", exc)
        self._tenant_breaker(tenant).record_success()
        return path

    def checkpoint_all(self) -> list:
        return [self.checkpoint(name) for name in self.resident()]

    def compact(self) -> dict:
        """Truncate the shared log up to the safe multi-tenant floor.

        The floor is the minimum over every *known* tenant's oldest
        retained checkpoint seq (a tenant with no checkpoint pins the
        log at 0) and every replica subscription's shipped cursor — so
        no tenant's reload and no follower's catch-up can ever need a
        truncated record.
        """
        if self.oplog is None:
            return {"truncated_through": 0, "kept_ops": 0, "reclaimed_bytes": 0}
        floors = [self._tenant_floor(name) for name in self.tenants()]
        if self._shipper is not None and len(self._shipper):
            floors.extend(self._shipper.cursors())
        floor = min(floors) if floors else 0
        if floor <= 0:
            return {
                "truncated_through": 0,
                "kept_ops": 0,
                "reclaimed_bytes": 0,
                "log_bytes": self.oplog.size_bytes(),
            }
        with self.telemetry.span("serve.compact", floor=floor):
            return self.oplog.truncate_through(floor)

    def _tenant_floor(self, name: str) -> int:
        entry = self._residents.get(name)
        if entry is not None:
            store = entry.service.checkpoints
            seqs = store.list_seqs() if store is not None else []
        else:
            store = open_checkpoints(
                self.config.tenant_checkpoint_dir(name),
                backend=self.config.checkpoint_backend,
                keep=self.config.keep_checkpoints,
            )
            try:
                seqs = store.list_seqs()
            finally:
                store.close()
        return min(seqs) if seqs else 0

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def add_replica(self, tenant: str, name: str | None = None) -> ReadReplica:
        """Attach a tenant-filtered read replica fed by the shared log.

        The follower bootstraps from the tenant's newest checkpoint (if
        any) and then tails full-log segments, applying only this
        tenant's stamped slice — so its partition converges on exactly
        the tenant's primary state after :meth:`sync`. Its lag is a
        ``replica:<name>`` check on :attr:`health` (``/readyz``).
        """
        if self._shipper is None:
            raise RuntimeError(
                "replication needs the shared log: set root_dir"
            )
        entry = self.activate(tenant)
        if name is None:
            name = f"{tenant}-replica-{len(self._replicas)}"
        if name in self._replicas:
            raise ValueError(f"replica name {name!r} is already attached")
        snapshot = (
            entry.service.checkpoints.load_latest()
            if entry.service.checkpoints is not None
            else None
        )
        transport = InProcessTransport()
        replica = ReadReplica.bootstrap(
            self._factory,
            self.config.replica_stream_config(name, self.telemetry),
            transport,
            snapshot=snapshot,
            name=name,
            tenant=tenant,
        )
        self._shipper.attach(transport, from_seq=replica.received_seq)
        self._replicas[name] = replica
        self.health.register(
            f"replica:{name}",
            check_replica_lag(
                replica.lag,
                max_seq_delta=replica.max_lag_ops,
                max_staleness_s=replica.max_staleness_s,
            ),
        )
        if self.logger.enabled:
            self.logger.info(
                "replica_attached",
                tenant=tenant,
                replica=name,
                from_seq=replica.received_seq,
            )
        return replica

    def replica(self, name: str) -> ReadReplica:
        try:
            return self._replicas[name]
        except KeyError:
            raise UnknownTenantError(f"no replica named {name!r}") from None

    def sync(self, heartbeat: bool = False) -> dict:
        """Ship the shared-log suffix and drain every replica."""
        published = (
            self._shipper.ship(heartbeat=heartbeat)
            if self._shipper is not None
            else 0
        )
        applied = {
            name: replica.poll() for name, replica in self._replicas.items()
        }
        return {"published": published, "applied": applied}

    # ------------------------------------------------------------------
    # Stats / health
    # ------------------------------------------------------------------
    def tenant_stats(self, name: str, legacy: bool = True) -> dict:
        """One tenant's stats — without disturbing the LRU order.

        A resident tenant reports its full engine-pool snapshot; an
        evicted one reports only its residency (activating it just to
        count it would defeat the cap).
        """
        snapshot = self._tenant_gauges(name, legacy)
        entry = self._residents.get(name)
        if entry is not None:
            snapshot["telemetry"] = entry.service.telemetry.snapshot()
        return snapshot

    def _tenant_gauges(self, name: str, legacy: bool) -> dict:
        """:meth:`tenant_stats` without the telemetry snapshot."""
        self.check_name(name)
        entry = self._residents.get(name)
        if entry is not None:
            snapshot = entry.service.gauges(legacy=legacy)
            snapshot["tenant"] = name
            snapshot["resident"] = True
            return snapshot
        if name not in self._known:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return {"tenant": name, "resident": False}

    def stats(self, legacy: bool = True) -> dict:
        latency = latency_stats(self._ingest_latency)
        rejections: dict[str, dict[str, int]] = {}
        for (tenant, reason), child in self._children.get(
            self._rejection_family, {}
        ).items():
            rejections.setdefault(tenant, {})[reason] = child.value
        out: dict[str, Any] = {
            "ops_total": self._total(self._ops_family),
            "backlog": sum(
                len(entry.service.batcher) for entry in self._residents.values()
            ),
            "p50_s": latency["p50_s"],
            "p95_s": latency["p95_s"],
            "p99_s": latency["p99_s"],
            "ingest_latency": latency,
            "node": self.config.node_name,
            "resident_tenants": len(self._residents),
            "known_tenants": len(self._known | set(self._residents)),
            "max_resident_tenants": self.config.max_resident_tenants,
            "activations_total": self._total(self._activation_family),
            "evictions_total": self._total(self._eviction_family),
            "quota_rejections_total": self._total(self._rejection_family),
            "quota_rejections": dict(sorted(rejections.items())),
            "degraded_rejections_total": self._total(self._degraded_family),
            "durability": {
                "oplog": self._oplog_breaker.status(),
                "tenants": {
                    name: breaker.status()
                    for name, breaker in sorted(self._breakers.items())
                    if breaker.state != "closed"
                },
            },
            "oplog": (
                {
                    "last_seq": self.oplog.last_seq,
                    "bytes": self.oplog.size_bytes(),
                    "reclaimed_bytes": self.oplog.bytes_reclaimed,
                }
                if self.oplog is not None
                else None
            ),
            # Tenant pools share this manager's recorder: Service.stats()
            # reports its snapshot once, at the top, not once per tenant.
            "tenants": {
                name: self._tenant_gauges(name, legacy) for name in self.tenants()
            },
        }
        if self._replicas:
            out["replicas"] = {
                name: replica.lag() for name, replica in self._replicas.items()
            }
        if self._shipper is not None and len(self._shipper):
            out["shipping"] = self._shipper.stats()
        return out

    def _check_residency(self):
        cap = self.config.max_resident_tenants
        data = {"resident": len(self._residents), "cap": cap}
        if cap is not None and len(self._residents) > cap:
            return degraded(
                f"{len(self._residents)} resident tenants exceed cap {cap}",
                **data,
            )
        return ok("within cap" if cap is not None else "uncapped", **data)

    def _tenant_probe(self, name: str):
        def probe():
            entry = self._residents.get(name)
            if entry is None:
                return ok("idle (evicted; reloads lazily)", resident=False)
            pending = len(entry.service.batcher)
            bound = 4 * self.config.batch_max_ops
            if pending > bound:
                return degraded(
                    f"{pending} pending ops exceed bound {bound}",
                    resident=True,
                    pending_ops=pending,
                )
            return ok("resident", resident=True, pending_ops=pending)

        return probe

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Checkpoint resident tenants (when durable) and release storage."""
        for replica in self._replicas.values():
            replica.close()
        self._replicas.clear()
        for entry in self._residents.values():
            if entry.service.checkpoints is not None:
                try:
                    entry.service.checkpoint()
                except (OSError, DurabilityError) as exc:
                    # Shutdown must not wedge on a full disk: the
                    # tenant's state stays recoverable from its last
                    # checkpoint plus the shared-log suffix.
                    if self.logger.enabled:
                        self.logger.error(
                            "close_checkpoint_failed",
                            tenant=entry.name,
                            detail=str(exc),
                        )
            entry.service.close()
        self._residents.clear()
        self._resident_gauge.set(0)
        if self.oplog is not None:
            self.oplog.close()
