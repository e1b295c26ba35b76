"""repro.stream — durable, sharded streaming service layer for DynamicC.

Turns the in-process :class:`~repro.core.dynamicc.DynamicC` engine into
a serveable system:

* :mod:`repro.stream.events` — Add/Remove/Update operations + payload codec;
* :mod:`repro.stream.oplog` — the :class:`LogBackend` storage contract and
  the append-only JSONL WAL (the only hard state), with
  ``truncate_through`` compaction + reclaimed-bytes accounting;
* :mod:`repro.stream.sqlite_backend` — sqlite implementations of the log
  and checkpoint contracts (same Operation-level semantics);
* :mod:`repro.stream.batching` — micro-batcher folding events into rounds;
* :mod:`repro.stream.router` — stable hash + balance-aware least-loaded
  routing (oplog-stamped placement) and the membership table;
* :mod:`repro.stream.shard` — one DynamicC engine with train-then-serve
  lifecycle and checkpoint/restore;
* :mod:`repro.stream.checkpoint` — the :class:`CheckpointStore` contract
  and atomic numbered JSON snapshots;
* :mod:`repro.stream.service` — the :class:`ClusteringService` façade
  (``ingest`` / ``cluster_of`` / ``members`` / ``stats`` / ``checkpoint``
  / ``recover``).

Replication on top of this layer lives in :mod:`repro.replica`.
"""

from .batching import MicroBatcher, RoundOps
from .checkpoint import (
    CHECKPOINT_BACKENDS,
    CheckpointManager,
    CheckpointStore,
    open_checkpoints,
)
from .events import Operation, add, remove, update
from .oplog import LOG_BACKENDS, LogBackend, OperationLog, open_log
from .router import (
    ROUTERS,
    HashRouter,
    LeastLoadedRouter,
    MembershipTable,
    Router,
    global_cluster_id,
    make_router,
    parse_cluster_id,
    stable_hash,
)
from .service import ClusteringService, StreamConfig
from .shard import StreamShard
from .sqlite_backend import SqliteCheckpointStore, SqliteOperationLog

__all__ = [
    "CHECKPOINT_BACKENDS",
    "CheckpointManager",
    "CheckpointStore",
    "ClusteringService",
    "HashRouter",
    "LOG_BACKENDS",
    "LeastLoadedRouter",
    "LogBackend",
    "MembershipTable",
    "ROUTERS",
    "Router",
    "make_router",
    "MicroBatcher",
    "Operation",
    "OperationLog",
    "RoundOps",
    "SqliteCheckpointStore",
    "SqliteOperationLog",
    "StreamConfig",
    "StreamShard",
    "add",
    "global_cluster_id",
    "open_checkpoints",
    "open_log",
    "parse_cluster_id",
    "remove",
    "stable_hash",
    "update",
]
