"""`ClusteringService` — the durable, sharded DynamicC serving façade.

Architecture (log-first, GnitzDB-style):

1. **ingest** — operations are stamped and appended to the
   :class:`~repro.stream.oplog.OperationLog` (the only hard state),
   then buffered in the :class:`~repro.stream.batching.MicroBatcher`.
2. **apply** — each full micro-batch is hash-partitioned over N
   independent :class:`~repro.stream.shard.StreamShard` engines; every
   shard folds + normalises its slice and runs one DynamicC round
   (observe while warming up, predict once trained).
3. **query** — ``cluster_of`` routes through the membership table;
   ``members`` / ``clusters`` address shard-namespaced global cluster
   ids (``"s<shard>:<cid>"``).
4. **checkpoint / recover** — a checkpoint snapshots all shard state at
   the last *applied* sequence number (it never forces pending batches
   out, and explicit flushes leave markers in the log, so round
   boundaries are preserved); recovery loads the latest snapshot and
   replays the log suffix, reproducing exactly the memberships of an
   uninterrupted run. Global cluster *ids* are re-minted on restore —
   hold on to object ids, not cluster ids, across a crash.

The service is synchronous and single-process; storage is pluggable
(JSONL or sqlite log/checkpoint backends via :class:`StreamConfig`),
and :mod:`repro.replica` builds primary/replica read scaling on top of
the log. Async ingest is the remaining scaling seam.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy
from repro.obs.health import (
    HealthRegistry,
    check_backlog,
    check_checkpoints,
    check_oplog,
)
from repro.obs.logging import NULL_LOGGER, StructuredLogger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.server import ObsServer, parse_listen
from repro.obs.telemetry import TELEMETRY_SETTINGS, make_telemetry

from .batching import MicroBatcher, RoundOps
from .checkpoint import CHECKPOINT_BACKENDS, open_checkpoints
from .events import FLUSH, Operation
from .oplog import LOG_BACKENDS, open_log
from .router import (
    ROUTERS,
    MembershipTable,
    global_cluster_id,
    make_router,
    parse_cluster_id,
)
from .shard import EngineFactory, StreamShard

# ---------------------------------------------------------------------------
# Deprecation plumbing for the pre-serve façades
# ---------------------------------------------------------------------------
# ClusteringService remains the per-tenant engine room of the stack, but
# the *public front door* is now ``repro.serve.Service``. Direct
# construction of the old façade warns;
# the serve/replica layers construct them inside ``_internal_construction``
# so internal reuse stays silent — a user sees exactly one warning per
# deprecated entry point they themselves call.
_INTERNAL_DEPTH = 0


@contextlib.contextmanager
def _internal_construction():
    """Suppress deprecation warnings for framework-internal construction."""
    global _INTERNAL_DEPTH
    _INTERNAL_DEPTH += 1
    try:
        yield
    finally:
        _INTERNAL_DEPTH -= 1


def _warn_deprecated_facade(old: str, new: str) -> None:
    if _INTERNAL_DEPTH == 0:
        warnings.warn(
            f"{old} is deprecated as a public entry point; use {new} "
            "(see README 'Service API' for the migration table). "
            f"{old} keeps working unchanged this release.",
            DeprecationWarning,
            stacklevel=3,
        )


@dataclass
class StreamConfig:
    """Service tunables.

    Attributes
    ----------
    n_shards:
        Number of independent DynamicC engines.
    batch_max_ops:
        Micro-batch budget: a round is cut every this many operations.
    batch_max_age:
        Optional age budget in seconds (checked on ingest). Age-cut
        round boundaries are recorded in the oplog as flush markers,
        so durable services stay replay-exact with an age budget too.
    train_rounds:
        Non-empty rounds each shard observes (batch re-clustering +
        evolution capture) before fitting its models and switching to
        prediction.
    router:
        Placement policy: ``"hash"`` (stateless, the historical
        default) or ``"least-loaded"`` (new objects to the lightest
        shard, sticky thereafter; every decision is stamped into the
        logged operation, so recovery and replicas replay to identical
        placement). Switching hash → least-loaded over an existing log
        is safe — stamped and unstamped operations partition the same
        everywhere, and the router re-learns live placements on
        recovery. The reverse switch is refused at *ingest* time: once
        stamped placements have been applied, a hash router would send
        new operations for already-placed objects to the wrong shard.
        (Recovering or serving reads over stamped state with a hash
        config stays legal — that is exactly what a read replica of a
        least-loaded primary does.)
    oplog_path:
        Operation-log file; ``None`` runs the service ephemerally
        (no durability, no recovery).
    checkpoint_dir:
        Checkpoint directory; ``None`` disables checkpointing.
    log_backend:
        Operation-log storage: ``"jsonl"`` (one JSON line per record)
        or ``"sqlite"``. Interchangeable at the Operation level.
    checkpoint_backend:
        Snapshot storage: ``"json"`` (one file per snapshot) or
        ``"sqlite"`` (one database inside ``checkpoint_dir``).
    fsync:
        fsync the oplog on every append (power-loss durability).
    keep_checkpoints:
        Retained snapshot count.
    compact_on_checkpoint:
        Drop the oplog prefix a fresh checkpoint covers.
    telemetry:
        Observability recorder selection: ``None``/``"off"`` (default)
        runs the zero-cost no-op recorder — spans are shared no-op
        context managers; ``"on"`` collects span latencies
        (p50/p95/p99 per instrumented site) and a Chrome-trace ring
        buffer into a fresh :class:`repro.obs.Telemetry`; passing a
        :class:`repro.obs.Telemetry` *instance* shares one collection
        point across services (primary + replicas + shipper), which is
        how :class:`repro.serve.Service` merges the whole topology into
        a single snapshot. The counters :meth:`ClusteringService.stats`
        reports are kept either way; with telemetry on they are the
        very instruments ``/metrics`` exposes.
    obs_server:
        ``"host:port"`` to serve the operational surface over HTTP
        (``/metrics``, ``/metrics.json``, ``/traces``, ``/healthz``,
        ``/readyz``); port 0 picks a free port (read it back from
        :attr:`ClusteringService.obs_address`). ``None`` (default)
        serves nothing.
    node_name:
        This service's name in the topology — the ``replica`` label on
        ``e2e_visibility_seconds`` and the watermark gauges, and the
        structured-log component. Defaults to ``"primary"``;
        :class:`~repro.replica.ReadReplica` stamps its own name into
        the config it builds.
    log_stream:
        Writable text stream for structured JSON-lines logs
        (``sys.stderr``, an open file…); ``None`` (default) disables
        logging. See :class:`repro.obs.StructuredLogger`.
    """

    n_shards: int = 2
    batch_max_ops: int = 256
    batch_max_age: float | None = None
    train_rounds: int = 3
    router: str = "hash"
    oplog_path: Any = None
    checkpoint_dir: Any = None
    log_backend: str = "jsonl"
    checkpoint_backend: str = "json"
    fsync: bool = False
    keep_checkpoints: int = 3
    compact_on_checkpoint: bool = True
    telemetry: Any = None
    obs_server: str | None = None
    node_name: str = "primary"
    log_stream: Any = None

    def __post_init__(self) -> None:
        # All raises are ConfigError — a ValueError subclass, so the
        # historical contract holds — making StreamConfig the single
        # validation point ServeConfig delegates the shared knobs to.
        if self.obs_server is not None:
            parse_listen(self.obs_server)  # fail fast on a bad listen spec
        if self.telemetry not in TELEMETRY_SETTINGS and not hasattr(
            self.telemetry, "enabled"
        ):
            raise ConfigError(
                f"telemetry must be one of {TELEMETRY_SETTINGS} or a "
                f"Telemetry instance, got {self.telemetry!r}"
            )
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.train_rounds < 1:
            raise ConfigError("train_rounds must be >= 1")
        if self.router not in ROUTERS:
            raise ConfigError(
                f"router must be one of {ROUTERS}, got {self.router!r}"
            )
        if self.log_backend not in LOG_BACKENDS:
            raise ConfigError(
                f"log_backend must be one of {LOG_BACKENDS}, got {self.log_backend!r}"
            )
        if self.checkpoint_backend not in CHECKPOINT_BACKENDS:
            raise ConfigError(
                f"checkpoint_backend must be one of {CHECKPOINT_BACKENDS}, "
                f"got {self.checkpoint_backend!r}"
            )
        if self.fsync and self.oplog_path is None:
            raise ConfigError(
                "fsync=True without an oplog_path is contradictory: there "
                "is no durable log to fsync — set oplog_path or drop fsync"
            )

    def round_cut_params(self) -> dict[str, int]:
        """The parameters replay determinism depends on.

        Two services (a primary and a follower, a crashed run and its
        recovery) reproduce identical rounds from the same log iff
        these agree; storage backends and fsync policy are free to
        differ.
        """
        return {
            "n_shards": self.n_shards,
            "batch_max_ops": self.batch_max_ops,
            "train_rounds": self.train_rounds,
        }


def latency_stats(histogram: Histogram) -> dict:
    """A latency histogram in the ``stats()`` shape (``*_s`` keys)."""
    return {
        key if key == "count" else f"{key}_s": value
        for key, value in histogram.snapshot().items()
    }


#: Per-shard engine counters: ``stats()`` key and the
#: :class:`~repro.core.dynamicc.RoundStats` field summed into it over
#: predict rounds. Each is an ``engine_<key>_total{replica,shard}``
#: family.
_ENGINE_COUNTERS = (
    ("merges_applied", "merges_applied"),
    ("splits_applied", "splits_applied"),
    ("moves_applied", "moves_applied"),
    ("verifications", "verifications"),
    ("candidates_scored", "candidates_scored"),
    ("rejected", "rejected"),
    ("rounds_capped", "capped"),
)


class ShardInstruments:
    """One shard's round counters and latency, as obs instruments."""

    def __init__(self, registry: MetricsRegistry, replica: str, shard: int) -> None:
        labels = {"replica": replica, "shard": shard}

        def counter(name: str, help: str, **extra: str):
            family = registry.counter(name, labels=(*labels, *extra), help=help)
            return family.fresh(**labels, **extra)

        rounds = "DynamicC rounds a shard applied, per phase"
        self.rounds_observed = counter("shard_rounds_total", rounds, phase="observe")
        self.rounds_predicted = counter("shard_rounds_total", rounds, phase="predict")
        self.ops_applied = counter(
            "shard_ops_applied_total", "Operations a shard's rounds applied"
        )
        self.ops_ignored = counter(
            "shard_ops_ignored_total", "Operations round normalisation discarded"
        )
        self.round_latency = registry.histogram(
            "shard_round_seconds",
            labels=tuple(labels),
            help="Seconds a shard spent applying one round",
        ).fresh(**labels)
        #: ``(stats() key, RoundStats field, counter)`` triples.
        self.engine = [
            (key, field, counter(f"engine_{key}_total", f"RoundStats.{field} summed"))
            for key, field in _ENGINE_COUNTERS
        ]

    def record_round(
        self, phase: str, n_ops: int, ignored: int, latency: float, round_stats=None
    ) -> None:
        if phase == "observe":
            self.rounds_observed.inc()
        else:
            self.rounds_predicted.inc()
        self.ops_applied.inc(n_ops)
        self.ops_ignored.inc(ignored)
        self.round_latency.record(latency)
        if round_stats is not None:
            for _, field, counter in self.engine:
                counter.inc(getattr(round_stats, field))

    def to_dict(self) -> dict:
        latency = latency_stats(self.round_latency)
        out = {
            # Canonical stats() shape (shared by stream/replica/serve):
            # every component reports ops_total and p50_s/p95_s/p99_s.
            "ops_total": self.ops_applied.value,
            "p50_s": latency["p50_s"],
            "p95_s": latency["p95_s"],
            "p99_s": latency["p99_s"],
            "rounds_observed": self.rounds_observed.value,
            "rounds_predicted": self.rounds_predicted.value,
            "ops_applied": self.ops_applied.value,
            "ops_ignored": self.ops_ignored.value,
            "round_latency": latency,
        }
        out.update((key, counter.value) for key, _, counter in self.engine)
        return out


class StreamInstruments:
    """A service's ``stats()`` counters and latencies, as obs instruments.

    Each is a child of a ``stream_*``, ``shard_*`` or ``engine_*``
    family labeled with the service's node name (and shard), resolved
    fresh when the service is built: a rebuilt service counts from
    zero, and with telemetry on ``/metrics`` exposes these very
    instruments.
    """

    def __init__(self, registry: MetricsRegistry, replica: str, n_shards: int) -> None:
        def counter(name: str, help: str):
            family = registry.counter(name, labels=("replica",), help=help)
            return family.fresh(replica=replica)

        self.ops = counter("stream_ops_total", "Operations accepted or replayed")
        self.batches_applied = counter(
            "stream_batches_applied_total", "Micro-batches applied"
        )
        self.batch_latency = registry.histogram(
            "stream_batch_seconds",
            labels=("replica",),
            help="Seconds to apply one micro-batch across the shards",
        ).fresh(replica=replica)
        self.checkpoints_taken = counter("stream_checkpoints_total", "Checkpoints saved")
        self.recoveries = counter("stream_recoveries_total", "Rebuilds by recover()")
        self.shards = [
            ShardInstruments(registry, replica, index) for index in range(n_shards)
        ]

    def throughput_events_per_s(self) -> float:
        """Applied operations per second of round-processing time."""
        busy = sum(shard.round_latency.total for shard in self.shards)
        applied = sum(shard.ops_applied.value for shard in self.shards)
        return applied / busy if busy > 0 else 0.0

    def snapshot(self, legacy: bool = True) -> dict:
        """Counters as one dict, in the canonical stats() key shape.

        ``ops_total`` and the ``p50_s``/``p95_s``/``p99_s`` percentile
        trio (of batch-apply latency) are the cross-layer contract;
        ``legacy=True`` (the default, for one release) additionally
        emits the pre-1.4 alias ``events_ingested``.
        """
        latency = latency_stats(self.batch_latency)
        out = {
            "ops_total": self.ops.value,
            "p50_s": latency["p50_s"],
            "p95_s": latency["p95_s"],
            "p99_s": latency["p99_s"],
            "batches_applied": self.batches_applied.value,
            "batch_latency": latency,
            "throughput_events_per_s": self.throughput_events_per_s(),
            "checkpoints_taken": self.checkpoints_taken.value,
            "recoveries": self.recoveries.value,
            "shards": [shard.to_dict() for shard in self.shards],
        }
        if legacy:
            out["events_ingested"] = self.ops.value
        return out


class ClusteringService:
    """Durable, sharded clustering over an event stream.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one fresh
        :class:`~repro.core.dynamicc.DynamicC` (with its own empty
        similarity graph) — called once per shard. Factories must be
        deterministic for crash recovery to be exact.
    config:
        Service tunables; defaults to an ephemeral two-shard service.
    """

    def __init__(self, engine_factory: EngineFactory, config: StreamConfig | None = None) -> None:
        _warn_deprecated_facade(
            "repro.stream.ClusteringService", "repro.serve.Service"
        )
        self.config = config or StreamConfig()
        self._engine_factory = engine_factory
        #: The observability recorder every layer reports into; the
        #: zero-cost no-op singleton unless ``config.telemetry`` says
        #: otherwise.
        self.telemetry = make_telemetry(self.config.telemetry)
        # Placement blocks align with the micro-batch budget so one
        # batch of new objects is (mostly) one engine's round.
        self.router = make_router(
            self.config.router, self.config.n_shards, chunk=self.config.batch_max_ops
        )
        self.shards = [
            StreamShard(
                index, engine_factory, self.config.train_rounds, obs=self.telemetry
            )
            for index in range(self.config.n_shards)
        ]
        self.membership = MembershipTable()
        self.node_name = self.config.node_name
        #: The counters and latencies :meth:`stats` reports; they live in
        #: the telemetry registry when telemetry is on (``/metrics``
        #: serves them) and in a private one otherwise.
        self.metrics = StreamInstruments(
            self.telemetry.stats_registry(), self.node_name, self.config.n_shards
        )
        self.batcher = MicroBatcher(
            max_ops=self.config.batch_max_ops, max_age=self.config.batch_max_age
        )
        self.oplog = (
            open_log(
                self.config.oplog_path,
                backend=self.config.log_backend,
                fsync=self.config.fsync,
            )
            if self.config.oplog_path is not None
            else None
        )
        if self.oplog is not None:
            self.oplog.obs = self.telemetry
        self.checkpoints = (
            open_checkpoints(
                self.config.checkpoint_dir,
                backend=self.config.checkpoint_backend,
                keep=self.config.keep_checkpoints,
            )
            if self.config.checkpoint_dir is not None
            else None
        )
        if self.checkpoints is not None:
            self.checkpoints.obs = self.telemetry
        #: Retry policy around checkpoint persistence (transient I/O
        #: heals in place; ENOSPC and exhaustion propagate typed).
        self._checkpoint_retry = RetryPolicy()
        #: Sequence number of the last operation applied to a shard.
        self.applied_seq = 0
        #: Freshness watermark of applied state: the newest
        #: ``Operation.ingest_ts`` folded into a shard (wall clock;
        #: ``None`` until a stamped operation is applied).
        self.applied_watermark_ts: float | None = None
        #: Structured JSON-lines logger; disabled (constant-time no-op)
        #: unless ``config.log_stream`` is set.
        self.logger = (
            StructuredLogger(
                f"stream.{self.node_name}",
                self.config.log_stream,
                telemetry=self.telemetry,
            )
            if self.config.log_stream is not None
            else NULL_LOGGER
        )
        # Watermark instruments (no-ops on the null recorder): commit =
        # newest ingest accepted by this node, applied = newest ingest
        # visible to queries, and the end-to-end ingest→visible latency
        # distribution per node.
        self._commit_watermark = self.telemetry.gauge(
            "commit_watermark_ts",
            labels=("replica",),
            help="Wall-clock ingest_ts of the newest operation accepted",
        ).labels(replica=self.node_name)
        self._applied_watermark = self.telemetry.gauge(
            "applied_watermark_ts",
            labels=("replica",),
            help="Wall-clock ingest_ts of the newest operation visible to queries",
        ).labels(replica=self.node_name)
        self._visibility = self.telemetry.histogram(
            "e2e_visibility_seconds",
            labels=("replica",),
            help="Seconds from primary ingest to queryable on this node",
        ).labels(replica=self.node_name)
        #: Component health checks behind ``/readyz``.
        self.health = HealthRegistry()
        self.health.register("oplog", check_oplog(self.oplog))
        self.health.register("checkpoints", check_checkpoints(self.checkpoints))
        self.health.register(
            "backlog",
            check_backlog(self, max_pending=4 * self.config.batch_max_ops),
        )
        self.obs_server = (
            ObsServer(
                self.config.obs_server,
                telemetry=self.telemetry,
                health=self.health,
                logger=self.logger if self.logger.enabled else None,
            ).start()
            if self.config.obs_server is not None
            else None
        )
        if self.logger.enabled:
            self.logger.info(
                "service_started",
                node=self.node_name,
                n_shards=self.config.n_shards,
                router=self.config.router,
                obs_address=self.obs_address,
            )
        #: True once any applied operation carried a routing stamp.
        #: Ingesting through a stateless hash router after that would
        #: route already-placed objects to the wrong shard, so ingest
        #: refuses (reads and replay stay legal — placement follows
        #: the stamps regardless of this service's router config).
        self.placements_stamped = False
        # Ephemeral stamping when no oplog is configured.
        self._next_seq = 1

    @property
    def obs_address(self) -> str | None:
        """Bound ``host:port`` of the obs HTTP server, ``None`` when off."""
        return self.obs_server.address if self.obs_server is not None else None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(op: Operation | Sequence) -> Operation:
        if isinstance(op, Operation):
            return op
        kind, obj_id, *rest = op
        return Operation(kind, int(obj_id), rest[0] if rest else None)

    def ingest(self, operations: Iterable[Operation | Sequence]) -> int:
        """Log and buffer operations, applying every full micro-batch.

        Accepts :class:`Operation` objects or ``(kind, id[, payload])``
        tuples. Returns the number of operations accepted. Reads are
        eventually consistent: operations beyond the last full batch
        stay pending until more arrive or :meth:`flush` is called.
        """
        ops = [self._coerce(op) for op in operations]
        if any(op.kind == FLUSH for op in ops):
            raise ValueError(
                "flush markers are control records; call flush() instead"
            )
        if self.placements_stamped and self.config.router == "hash":
            raise RuntimeError(
                "this service's state contains stamped (least-loaded) "
                "placements; ingesting through router='hash' would route "
                "operations for already-placed objects to the wrong shard "
                "— recover/promote with router='least-loaded' instead"
            )
        # Stamp the freshness watermark: one wall-clock read per ingest
        # call, carried by every accepted operation through the log,
        # segments and replica apply. Pre-stamped operations (tests
        # injecting known times) keep their stamp.
        now = time.time()
        ops = [
            op if op.ingest_ts is not None else op.with_ingest_ts(now)
            for op in ops
        ]
        obs = self.telemetry
        with obs.span("stream.ingest", ops=len(ops)):
            # Placement is decided here — before logging — so the stamped
            # assignment is durable and replays/ships verbatim.
            with obs.span("stream.route", ops=len(ops)):
                ops = self.router.assign(ops)
            if self.oplog is not None:
                ops = self.oplog.append(ops)
            else:
                ops = [
                    op.with_seq(self._next_seq + offset)
                    for offset, op in enumerate(ops)
                ]
                self._next_seq += len(ops)
            if ops:
                self._commit_watermark.set(ops[-1].ingest_ts)
            self.metrics.ops.inc(len(ops))
            self.batcher.extend(ops)
            self._apply_ready()
        return len(ops)

    def flush(self) -> None:
        """Force the pending partial batch through as one round.

        The forced boundary is recorded in the oplog as a control
        marker, so a crash-recovery replay cuts rounds exactly where
        the live run did.
        """
        if not len(self.batcher):
            return  # nothing pending: no round, no marker
        if self.oplog is not None:
            self.oplog.append([Operation(FLUSH, 0)])
        batch = self.batcher.drain()
        if batch:
            self._apply_batch(batch)

    def _apply_ready(self) -> None:
        while self.batcher.ready():
            if len(self.batcher) < self.batcher.max_ops and self.oplog is not None:
                # Age-triggered cut: off the count grid, so it must be
                # recorded like an explicit flush or replay would cut
                # this round elsewhere.
                self.oplog.append([Operation(FLUSH, 0)])
            self._apply_batch(self.batcher.next_batch())

    def _apply_batch(self, batch: list[Operation]) -> None:
        obs = self.telemetry
        with obs.span("stream.batch.apply", ops=len(batch)):
            self._apply_batch_inner(batch)

    def _apply_batch_inner(self, batch: list[Operation]) -> None:
        obs = self.telemetry
        start = time.perf_counter()
        if not self.placements_stamped and any(
            op.shard is not None for op in batch
        ):
            self.placements_stamped = True
        for shard_index, slice_ops in sorted(self.router.partition(batch).items()):
            shard = self.shards[shard_index]
            round_ops = RoundOps.fold(slice_ops).normalized(shard.is_live)
            with obs.span("shard.apply", shard=shard_index, ops=len(round_ops)):
                phase, latency, stats = shard.apply(round_ops)
            if phase != "skip":
                self.metrics.shards[shard_index].record_round(
                    phase, len(round_ops), round_ops.ignored, latency, stats
                )
            else:
                # A round can normalise to nothing and still have
                # discarded operations worth counting.
                self.metrics.shards[shard_index].ops_ignored.inc(round_ops.ignored)
            for obj_id in round_ops.added:
                self.membership.add(obj_id, shard_index)
            for obj_id in round_ops.removed:
                self.membership.discard(obj_id)
            shard.last_applied_seq = slice_ops[-1].seq
            if slice_ops[-1].ingest_ts is not None:
                shard.last_applied_ts = slice_ops[-1].ingest_ts
        self.applied_seq = batch[-1].seq
        # Advance the applied watermark to the newest stamped operation
        # in the batch. Clamped >= 0 on the way into the histogram: the
        # watermark is wall-clock time from another process, and skew
        # must read as "very fresh", never as negative latency.
        batch_watermark = None
        for op in batch:
            if op.ingest_ts is not None:
                batch_watermark = op.ingest_ts
        if batch_watermark is not None:
            self.applied_watermark_ts = batch_watermark
            if obs.enabled:
                self._applied_watermark.set(batch_watermark)
                applied_at = time.time()
                for op in batch:
                    if op.ingest_ts is not None:
                        self._visibility.record(max(0.0, applied_at - op.ingest_ts))
        self.metrics.batches_applied.inc()
        self.metrics.batch_latency.record(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cluster_of(self, obj_id: int) -> str | None:
        """Global cluster id of a live object, ``None`` when unknown."""
        shard_index = self.membership.shard_of(obj_id)
        if shard_index is None:
            return None
        return global_cluster_id(shard_index, self.shards[shard_index].cluster_of(obj_id))

    def members(self, gcid: str) -> frozenset[int]:
        """Member object ids of a global cluster id."""
        shard_index, cid = parse_cluster_id(gcid)
        if not 0 <= shard_index < len(self.shards):
            raise KeyError(gcid)
        try:
            return self.shards[shard_index].members(cid)
        except KeyError:
            raise KeyError(gcid) from None

    def clusters(self) -> dict[str, frozenset[int]]:
        """All live clusters across shards, by global cluster id."""
        out: dict[str, frozenset[int]] = {}
        for shard in self.shards:
            for cid, members in shard.clusters().items():
                out[global_cluster_id(shard.index, cid)] = members
        return out

    def partition(self) -> frozenset[frozenset[int]]:
        """Canonical global partition (for equality tests / metrics)."""
        return frozenset(self.clusters().values())

    def num_objects(self) -> int:
        return len(self.membership)

    def stats(self, legacy: bool = True) -> dict:
        """:meth:`gauges` plus the telemetry snapshot under ``"telemetry"``.

        The canonical cross-layer shape (shared with
        :class:`~repro.replica.ReadReplica` and
        :class:`repro.serve.Service`): ``ops_total``, ``backlog``, the
        ``p50_s``/``p95_s``/``p99_s`` trio, and nested per-component
        dicts. ``legacy=True`` — the default for this release, flipping
        to ``False`` next — additionally emits the pre-1.4 aliases
        ``events_ingested`` and ``pending_ops``.
        """
        snapshot = self.gauges(legacy=legacy)
        snapshot["telemetry"] = self.telemetry.snapshot()
        return snapshot

    def gauges(self, legacy: bool = True) -> dict:
        """Counters and live engine/stream gauges: :meth:`stats` without
        the telemetry snapshot, for callers that report one shared
        recorder once."""
        snapshot = self.metrics.snapshot(legacy=legacy)
        snapshot.update(
            backlog=len(self.batcher),
            router=self.config.router,
            routing=self.router.stats(),
            applied_seq=self.applied_seq,
            applied_watermark_ts=self.applied_watermark_ts,
            commit_watermark_ts=(
                self.oplog.last_watermark_ts if self.oplog is not None else None
            ),
            last_seq=self.oplog.last_seq if self.oplog is not None else self._next_seq - 1,
            pending_oldest_age_s=self.batcher.oldest_age(),
            num_objects=len(self.membership),
            num_clusters=sum(shard.num_clusters() for shard in self.shards),
            oplog_bytes=self.oplog.size_bytes() if self.oplog is not None else 0,
            oplog_reclaimed_bytes=(
                self.oplog.bytes_reclaimed if self.oplog is not None else 0
            ),
        )
        if legacy:
            snapshot["pending_ops"] = len(self.batcher)
        for shard, shard_stats in zip(self.shards, snapshot["shards"]):
            shard_stats.update(
                objects=shard.num_objects(),
                clusters=shard.num_clusters(),
                trained=shard.trained,
                last_applied_seq=shard.last_applied_seq,
            )
        return snapshot

    def apply_logged(
        self,
        operations: Iterable[Operation],
        *,
        expect_after: int | None = None,
        contiguous: bool = True,
    ) -> int | None:
        """Apply already-stamped (logged or shipped) operations.

        The shared tail of the recovery and replication paths: rounds
        are cut by count and logged flush markers only — wall-clock
        age cuts are suspended, because the arrival clock of a replay
        or a follower must never invent boundaries the primary's log
        doesn't record.

        When ``expect_after`` is given, sequence numbers must run
        contiguously from it (gap-refusing; a jump means the source log
        was compacted past this point); even without it, any jump after
        the first operation is refused. ``contiguous=False`` disables
        gap checking entirely — for *tenant-filtered* slices of a
        shared multi-tenant log (see :mod:`repro.serve`), where the
        holes between this tenant's sequence numbers are other tenants'
        traffic, not loss. Returns the last seq seen, or
        ``expect_after``/``None`` when ``operations`` is empty.
        """
        last_seen = expect_after
        saved_max_age = self.batcher.max_age
        self.batcher.max_age = None
        try:
            for operation in operations:
                if contiguous and last_seen is not None and operation.seq != last_seen + 1:
                    raise RuntimeError(
                        f"oplog gap: expected seq {last_seen + 1}, found "
                        f"{operation.seq}; the log no longer covers this point"
                    )
                last_seen = operation.seq
                if operation.kind == FLUSH:
                    batch = self.batcher.drain()
                    if batch:
                        self._apply_batch(batch)
                else:
                    # Already-stamped placements teach the router its
                    # load state (recovery, replicas, promotion).
                    self.router.observe(operation)
                    self.metrics.ops.inc()
                    self.batcher.add(operation)
                    self._apply_ready()
        finally:
            self.batcher.max_age = saved_max_age
        return last_seen

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Snapshot all shard state at the last applied sequence number.

        Pending (logged-but-unapplied) operations are deliberately NOT
        flushed first: they are recovered from the oplog suffix, which
        keeps micro-batch boundaries — and therefore recovered results —
        identical to an uninterrupted run. Returns the snapshot path.
        """
        if self.checkpoints is None:
            raise RuntimeError("service has no checkpoint_dir configured")
        state = {
            "applied_seq": self.applied_seq,
            "applied_watermark_ts": self.applied_watermark_ts,
            "n_shards": self.config.n_shards,
            # Round boundaries depend on these, so recovery must run
            # with the same values or replay would re-cut differently.
            "batch_max_ops": self.config.batch_max_ops,
            "train_rounds": self.config.train_rounds,
            # Recorded so a later ingest can refuse the unsafe
            # least-loaded → hash downgrade (sticky placements would be
            # abandoned); the router name is informational.
            "router": self.config.router,
            "placements_stamped": self.placements_stamped,
            "shards": [shard.checkpoint_state() for shard in self.shards],
        }
        with self.telemetry.span("checkpoint.save", applied_seq=self.applied_seq):
            # Transient I/O heals under backoff; exhaustion (or a
            # non-retryable ENOSPC) propagates for the serve layer's
            # breakers to turn into degraded mode.
            path = self._checkpoint_retry.run(
                lambda: self.checkpoints.save(state),
                boundary="checkpoint.save",
                obs=self.telemetry,
            )
        if self.logger.enabled:
            self.logger.info("checkpoint_saved", applied_seq=self.applied_seq)
        if self.oplog is not None and self.config.compact_on_checkpoint:
            # Compact only past the *oldest retained* snapshot, not the
            # newest: falling back to an older checkpoint (e.g. when the
            # newest is corrupt) needs the log from that seq forward.
            # truncate_through (vs bare compact) accrues the
            # reclaimed-bytes gauge stats() reports.
            self.oplog.truncate_through(min(self.checkpoints.list_seqs()))
        self.metrics.checkpoints_taken.inc()
        return path

    @classmethod
    def recover(
        cls,
        engine_factory: EngineFactory,
        config: StreamConfig,
        *,
        snapshot: dict | None = None,
    ) -> "ClusteringService":
        """Rebuild a service after a crash: latest checkpoint + log replay.

        Works from any durable subset — with no checkpoint the whole log
        is replayed from scratch; with no log the checkpoint alone is
        restored (losing only operations logged after it, which without
        an oplog were never durable anyway). A replication bootstrap can
        hand the snapshot in directly via ``snapshot`` (e.g. one shipped
        from a primary) instead of reading the local checkpoint store.
        """
        service = cls(engine_factory, config)
        state = snapshot
        if state is None and service.checkpoints is not None:
            with service.telemetry.span("checkpoint.load"):
                state = service.checkpoints.load_latest()
        if state is not None:
            for field_name, want in config.round_cut_params().items():
                # Older checkpoints may predate a field; only a recorded
                # mismatch is definitely divergence-inducing.
                have = state.get(field_name)
                if have is not None and int(have) != want:
                    raise ValueError(
                        f"checkpoint has {field_name}={have}, config wants "
                        f"{want}; recovery with different round-cutting "
                        "parameters would silently diverge"
                    )
            # Older checkpoints predate the flag; a least-loaded writer
            # implies stamped placements.
            service.placements_stamped = bool(
                state.get(
                    "placements_stamped", state.get("router") == "least-loaded"
                )
            )
            service.shards = [
                StreamShard.restore(
                    shard_state,
                    engine_factory,
                    config.train_rounds,
                    obs=service.telemetry,
                )
                for shard_state in state["shards"]
            ]
            service.applied_seq = int(state["applied_seq"])
            watermark = state.get("applied_watermark_ts")
            service.applied_watermark_ts = (
                float(watermark) if watermark is not None else None
            )
            restored_ids = [list(shard.object_ids()) for shard in service.shards]
            service.membership.rebuild(restored_ids)
            service.router.rebuild(restored_ids)
            # Fast-forward the sequence stampers past the checkpoint:
            # recovering without a log (or from a lost/compacted one)
            # must not re-issue already-used sequence numbers, or new
            # checkpoints would sort below the stale one and the next
            # recovery would silently discard everything since.
            service._next_seq = max(service._next_seq, service.applied_seq + 1)
            if service.oplog is not None:
                service.oplog.last_seq = max(
                    service.oplog.last_seq, service.applied_seq
                )
        if service.oplog is not None:
            with service.telemetry.span(
                "recover.replay", after_seq=service.applied_seq
            ):
                service.apply_logged(
                    service.oplog.iter_from(service.applied_seq),
                    expect_after=service.applied_seq,
                )
        service.metrics.recoveries.inc()
        return service

    def close(self) -> None:
        if self.logger.enabled:
            self.logger.info("service_closing", applied_seq=self.applied_seq)
        if self.obs_server is not None:
            self.obs_server.close()
        if self.oplog is not None:
            self.oplog.close()
        if self.checkpoints is not None:
            self.checkpoints.close()

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
