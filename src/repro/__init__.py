"""repro — a full reproduction of DynamicC (EDBT 2022).

DynamicC ("Efficient Dynamic Clustering: Capturing Patterns from
Historical Cluster Evolution", Gu, Kargar & Nawab) augments an
arbitrary batch clustering algorithm with two small classifiers that
learn, from historical cluster evolution, which clusters are about to
merge or split — so high-velocity add/remove/update workloads can be
re-clustered without re-running the batch algorithm.

Public API tour
---------------
* :class:`repro.core.DynamicC` — the system (training + prediction).
* :mod:`repro.clustering` — clustering state, objectives (correlation,
  k-means, DB-index), batch algorithms (Hill-climbing, DBSCAN, Lloyd)
  and the Naive/Greedy baselines.
* :mod:`repro.similarity` — similarity measures, blocking indexes, and
  the dynamic similarity graph.
* :mod:`repro.ml` — from-scratch logistic regression / SVM / decision
  tree (the Table 4 model families).
* :mod:`repro.data` — the five Table 1 dataset generators and the
  dynamic workload driver (with the ``event_stream()`` adapter feeding
  the service layer).
* :mod:`repro.eval` — pair-counting F1, purity metrics, and the
  experiment harness.
* :mod:`repro.stream` — the durable, sharded streaming service layer:
  operation log (WAL, JSONL or sqlite backed), micro-batcher,
  hash-routed engine pool, checkpoint/recovery, metrics, and the
  :class:`~repro.stream.ClusteringService` façade.
* :mod:`repro.replica` — replication primitives on top of the log:
  oplog shipping over pluggable transports, read replicas with explicit
  lag and follower→primary failover (:meth:`ReadReplica.promote`), and
  the cross-process mailbox follower.
* :mod:`repro.serve` — **the public front door**: multi-tenant
  namespaces behind one :class:`~repro.serve.Service` — per-tenant
  engine pools over a shared tenant-stamped log, admission quotas,
  LRU activation, tenant-filtered replicas, and one consolidated
  :class:`~repro.serve.ServeConfig`. The older
  :class:`~repro.stream.ClusteringService` façade keeps working with a
  ``DeprecationWarning``.
"""

from repro.clustering import Clustering
from repro.clustering.baselines import GreedyIncremental, NaiveIncremental
from repro.clustering.batch import DBSCAN, HillClimbing, LloydKMeans
from repro.clustering.objectives import (
    CorrelationObjective,
    DBIndexObjective,
    KMeansObjective,
    ObjectiveFunction,
)
from repro.core import (
    DynamicC,
    DynamicCConfig,
    DynamicCModel,
    make_dynamic_dbscan,
)
from repro.data import build_workload
from repro.errors import (
    ConfigError,
    DegradedError,
    DurabilityError,
    QuotaExceeded,
    ServeError,
    UnknownTenantError,
)
from repro.faults import CircuitBreaker, ErrorInjector, FaultInjector, RetryPolicy
from repro.replica import ReadReplica
from repro.serve import ServeConfig, Service, TenantHandle, TenantManager
from repro.similarity import SimilarityGraph
from repro.stream import ClusteringService, Operation, StreamConfig

__version__ = "1.4.0"

__all__ = [
    "DBSCAN",
    "Clustering",
    "CircuitBreaker",
    "ClusteringService",
    "ConfigError",
    "CorrelationObjective",
    "DBIndexObjective",
    "DegradedError",
    "DurabilityError",
    "DynamicC",
    "DynamicCConfig",
    "DynamicCModel",
    "ErrorInjector",
    "FaultInjector",
    "GreedyIncremental",
    "HillClimbing",
    "KMeansObjective",
    "LloydKMeans",
    "NaiveIncremental",
    "ObjectiveFunction",
    "Operation",
    "QuotaExceeded",
    "ReadReplica",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "Service",
    "SimilarityGraph",
    "StreamConfig",
    "TenantHandle",
    "TenantManager",
    "UnknownTenantError",
    "build_workload",
    "make_dynamic_dbscan",
    "__version__",
]
