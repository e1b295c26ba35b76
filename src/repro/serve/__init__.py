"""repro.serve — the multi-tenant service front door.

The redesigned public API over the streaming/replication stack:

* :class:`Service` / :meth:`Service.open` — one process-wide topology:
  a shared tenant-stamped operation log, per-tenant DynamicC engine
  pools, LRU activation under ``max_resident_tenants``, admission
  quotas, tenant-filtered read replicas, and a single labeled
  observability surface;
* :class:`TenantHandle` — ``service.tenant("name")``: the per-tenant
  ingest/query/control view (stateless; survives evictions);
* :class:`ServeConfig` — the one consolidated configuration object
  (:meth:`ServeConfig.from_kwargs` is the typed-kwargs funnel);
* :class:`TenantManager` — the engine room, for embedders that need
  the pools without the façade;
* :class:`TokenBucket` — the admission-control primitive (from
  :mod:`repro.ratelimit`, shared with the structured logger);
* the typed error family from :mod:`repro.errors` (:class:`ServeError`,
  :class:`ConfigError`, :class:`QuotaExceeded`,
  :class:`UnknownTenantError`), re-exported for convenience.

The pre-serve ``repro.stream.ClusteringService`` keeps working this
release and emits a ``DeprecationWarning`` pointing here. Replication
is ``tenant(...).add_replica()`` plus the :mod:`repro.replica`
primitives; see the README's "Service API" migration table.
"""

from repro.errors import (
    ConfigError,
    QuotaExceeded,
    ServeError,
    UnknownTenantError,
)
from repro.ratelimit import TokenBucket

from .config import ServeConfig
from .service import Service, TenantHandle
from .tenant import TenantManager

__all__ = [
    "ConfigError",
    "QuotaExceeded",
    "ServeConfig",
    "ServeError",
    "Service",
    "TenantHandle",
    "TenantManager",
    "TokenBucket",
    "UnknownTenantError",
]
