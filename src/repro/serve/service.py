"""The public front door: ``Service.open(...)`` and tenant handles.

This is the redesigned service API the rest of the stack now fronts
through::

    from repro.serve import Service

    with Service.open(engine_factory=factory, root_dir="state/") as svc:
        acme = svc.tenant("acme")
        acme.ingest([("add", 1, payload), ("add", 2, payload2)])
        acme.flush()
        acme.cluster_of(1)

A :class:`Service` is one process-wide multi-tenant topology: the
shared tenant-stamped log, per-tenant engine pools with LRU activation,
admission quotas, tenant-filtered replicas and a single observability
surface, all configured by one :class:`~repro.serve.ServeConfig`. A
:class:`TenantHandle` is a named, stateless view — cheap to create,
safe to hold across evictions (the pool reloads lazily on the next
touch).

Replication has no separate front door: ``tenant(...).add_replica()``,
:meth:`Service.sync` and :meth:`Service.compact` cover in-process
followers, and the :mod:`repro.replica` primitives (``LogShipper``,
``ReadReplica.promote()``, ``MailboxTransport``,
``python -m repro.replica.follower``) cover failover and cross-process
followers. The pre-serve ``repro.stream.ClusteringService`` keeps
working this release; constructing it directly emits a
``DeprecationWarning`` pointing here.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import ConfigError
from repro.obs.server import ObsServer
from repro.replica.replica import ReadReplica
from repro.stream.events import Operation

from .config import ServeConfig
from .tenant import TenantManager


class TenantHandle:
    """One tenant's view of the service — ingest, query, control.

    Handles are stateless names: all state lives in the manager, so a
    handle stays valid across LRU evictions and service restarts.
    """

    __slots__ = ("_manager", "name")

    def __init__(self, manager: TenantManager, name: str) -> None:
        self._manager = manager
        self.name = name

    # -- write path ----------------------------------------------------
    def ingest(self, operations: Iterable[Operation | Sequence]) -> int:
        return self._manager.ingest(self.name, operations)

    def flush(self) -> None:
        self._manager.flush(self.name)

    def checkpoint(self):
        return self._manager.checkpoint(self.name)

    def add_replica(self, name: str | None = None) -> ReadReplica:
        return self._manager.add_replica(self.name, name)

    # -- read path -----------------------------------------------------
    def cluster_of(self, obj_id: int) -> str | None:
        return self._manager.activate(self.name).service.cluster_of(obj_id)

    def members(self, gcid: str) -> frozenset[int]:
        return self._manager.activate(self.name).service.members(gcid)

    def clusters(self) -> dict[str, frozenset[int]]:
        return self._manager.activate(self.name).service.clusters()

    def partition(self) -> frozenset[frozenset[int]]:
        return self._manager.activate(self.name).service.partition()

    def num_objects(self) -> int:
        return self._manager.activate(self.name).service.num_objects()

    def stats(self, legacy: bool = True) -> dict:
        return self._manager.tenant_stats(self.name, legacy=legacy)

    @property
    def resident(self) -> bool:
        return self._manager.is_resident(self.name)

    def __repr__(self) -> str:
        return f"TenantHandle({self.name!r}, resident={self.resident})"


class Service:
    """The multi-tenant clustering service (the one public entry point)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.manager = TenantManager(config)
        self.telemetry = self.manager.telemetry
        self.health = self.manager.health
        self.obs_server = (
            ObsServer(
                config.obs_server,
                telemetry=self.telemetry,
                health=self.health,
                logger=(
                    self.manager.logger
                    if self.manager.logger.enabled
                    else None
                ),
            ).start()
            if config.obs_server is not None
            else None
        )

    @classmethod
    def open(
        cls, config: ServeConfig | None = None, /, **kwargs: Any
    ) -> "Service":
        """Open a service from a :class:`ServeConfig` or keyword options.

        ``Service.open(engine_factory=..., root_dir=...)`` funnels the
        keywords through :meth:`ServeConfig.from_kwargs`, so unknown or
        retired options fail with a typed, actionable
        :class:`~repro.errors.ConfigError` before anything is built.
        """
        if config is not None and kwargs:
            raise ConfigError(
                "pass either a ServeConfig or keyword options, not both "
                "(the config object already carries every option)"
            )
        if config is None:
            if "engine_factory" not in kwargs:
                raise ConfigError(
                    "engine_factory is required: a zero-argument callable "
                    "building one deterministic DynamicC engine"
                )
            factory = kwargs.pop("engine_factory")
            config = ServeConfig.from_kwargs(factory, **kwargs)
        return cls(config)

    @property
    def obs_address(self) -> str | None:
        """Bound ``host:port`` of the obs HTTP server, ``None`` when off."""
        return self.obs_server.address if self.obs_server is not None else None

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantHandle:
        """A handle on the named tenant (created lazily on first touch)."""
        return TenantHandle(self.manager, TenantManager.check_name(name))

    def tenants(self) -> list[dict]:
        """Every known tenant with its residency."""
        return [
            {"tenant": name, "resident": self.manager.is_resident(name)}
            for name in self.manager.tenants()
        ]

    def stats(self, legacy: bool = True) -> dict:
        snapshot = self.manager.stats(legacy=legacy)
        snapshot["obs_address"] = self.obs_address
        snapshot["telemetry"] = self.telemetry.snapshot()
        return snapshot

    def flush(self) -> None:
        """Flush every resident tenant's pending partial batch."""
        self.manager.flush_all()

    def checkpoint(self) -> list:
        """Checkpoint every resident tenant; returns the snapshot paths."""
        return self.manager.checkpoint_all()

    def compact(self) -> dict:
        """Truncate the shared log to the multi-tenant safe floor."""
        return self.manager.compact()

    def sync(self, heartbeat: bool = False) -> dict:
        """Ship the log suffix to every replica and drain them."""
        return self.manager.sync(heartbeat=heartbeat)

    def close(self) -> None:
        if self.obs_server is not None:
            self.obs_server.close()
        self.manager.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
