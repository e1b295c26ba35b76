"""Tests for `repro.serve`: the multi-tenant service front door.

The acceptance invariants of the serve redesign:

* **isolation** — interleaving many tenants through one shared
  tenant-stamped log leaves each tenant's partition identical to a run
  of that tenant alone, including across crash/recovery, compaction
  and replica catch-up;
* **quotas** — admission control rejects whole batches with typed
  :class:`~repro.errors.QuotaExceeded` before any state is touched,
  and every rejection is counted per tenant and reason;
* **LRU activation** — the resident-pool cap is respected, evicted
  tenants reload lazily with no data loss, and the resident gauge
  tracks the pool.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data import OperationMix, tenant_stream, zipf_weights
from repro.data.generators import generate_access
from repro.errors import ConfigError, QuotaExceeded, ServeError, UnknownTenantError
from repro.obs.telemetry import Telemetry
from repro.serve import ServeConfig, Service, TokenBucket
from repro.stream import ClusteringService, StreamConfig, add


@pytest.fixture(scope="module")
def dataset():
    return generate_access(n_profiles=6, n_records=240, seed=3)


@pytest.fixture(scope="module")
def stream(dataset):
    """A deterministic interleaved 4-tenant stream (zipfian skew)."""
    return tenant_stream(
        dataset,
        n_tenants=4,
        n_ops=400,
        tenant_skew=1.0,
        key_skew=1.0,
        mix=OperationMix(add=0.70, remove=0.10, update=0.20),
        seed=11,
    )


def make_factory(dataset):
    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory


#: Round-cut knobs shared by every service in this module — the serve
#: and solo runs must agree on them for the isolation property to hold.
CUT = dict(n_shards=2, batch_max_ops=16, train_rounds=2)


def open_service(dataset, **kwargs):
    return Service.open(engine_factory=make_factory(dataset), **CUT, **kwargs)


def solo_partition(dataset, operations, flush=True):
    """The partition of one tenant's operations run through a solo
    (pre-serve) service with the same round-cut parameters."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        service = ClusteringService(make_factory(dataset), StreamConfig(**CUT))
    service.ingest(operations)
    if flush:
        service.flush()
    partition = service.partition()
    service.close()
    return partition


def pv(dataset, i):
    """A real (numeric) payload — rounds actually apply in these tests."""
    return dataset.records[i % len(dataset.records)].payload


def by_tenant(stream):
    out: dict[str, list] = {}
    for tenant, op in stream:
        out.setdefault(tenant, []).append(op)
    return out


def drive(service, stream):
    for tenant, op in stream:
        service.tenant(tenant).ingest([op])


class TestTokenBucket:
    def test_grant_and_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=lambda: now[0])
        assert bucket.try_acquire(5) is None  # burst drained
        retry = bucket.try_acquire(2)
        assert retry == pytest.approx(0.2)
        now[0] += 0.2  # 2 tokens refilled
        assert bucket.try_acquire(2) is None
        now[0] += 100.0
        assert bucket.tokens == pytest.approx(5.0)  # capped at burst

    def test_infinite_burst_never_refuses(self):
        bucket = TokenBucket(rate=1.0, burst=math.inf, clock=lambda: 0.0)
        assert all(bucket.try_acquire(10**6) is None for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestTenantWorkload:
    def test_deterministic_and_consistent(self, dataset, stream):
        again = tenant_stream(
            dataset,
            n_tenants=4,
            n_ops=400,
            tenant_skew=1.0,
            key_skew=1.0,
            mix=OperationMix(add=0.70, remove=0.10, update=0.20),
            seed=11,
        )
        assert [(t, op.kind, op.obj_id) for t, op in stream] == [
            (t, op.kind, op.obj_id) for t, op in again
        ]
        # Per-tenant streams are self-consistent: removes and updates
        # only ever touch that tenant's live ids, adds never repeat one.
        live: dict[str, set[int]] = {}
        for tenant, op in stream:
            alive = live.setdefault(tenant, set())
            if op.kind == "add":
                assert op.obj_id not in alive
                alive.add(op.obj_id)
            elif op.kind == "remove":
                assert op.obj_id in alive
                alive.discard(op.obj_id)
            else:
                assert op.obj_id in alive

    def test_tenant_skew_orders_traffic(self, stream):
        counts = {}
        for tenant, _ in stream:
            counts[tenant] = counts.get(tenant, 0) + 1
        ordered = [counts.get(f"tenant-{i:03d}", 0) for i in range(4)]
        # Zipf rank order: tenant-000 is the hot tenant.
        assert ordered[0] == max(ordered)
        assert ordered[0] > ordered[-1]

    def test_zipf_weights(self):
        import numpy as np

        uniform = zipf_weights(5, 0.0)
        assert np.allclose(uniform, 0.2)
        skewed = zipf_weights(5, 1.2)
        assert skewed[0] > skewed[1] > skewed[4]
        assert skewed.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)

    def test_input_validation(self, dataset):
        with pytest.raises(ValueError):
            tenant_stream(dataset, 0, 10)
        with pytest.raises(ValueError):
            tenant_stream(dataset, 2, -1)
        with pytest.raises(ValueError):
            tenant_stream(dataset, 2, 10, mix=OperationMix(add=0, remove=0, update=0))


class TestTenantIsolation:
    def test_interleaved_equals_alone_ephemeral(self, dataset, stream):
        """The core property: multi-tenant interleaving is invisible."""
        svc = open_service(dataset)
        drive(svc, stream)
        svc.flush()
        per_tenant = by_tenant(stream)
        for tenant, ops in per_tenant.items():
            assert svc.tenant(tenant).partition() == solo_partition(
                dataset, ops
            ), f"{tenant} diverged from its run-alone partition"
        stats = svc.stats()
        assert stats["ops_total"] == len(stream)
        assert stats["backlog"] == 0
        svc.close()

    def test_crash_recover_preserves_isolation(self, dataset, stream, tmp_path):
        """Kill the service mid-flight; the reopened one matches solo
        runs — per-tenant checkpoints + the shared-log suffix replay."""
        svc = open_service(dataset, root_dir=tmp_path / "state")
        drive(svc, stream[:300])
        # Stagger durability so recovery exercises both paths: one
        # tenant restarts from a checkpoint + suffix, the rest from
        # a pure log replay.
        svc.tenant("tenant-000").checkpoint()
        drive(svc, stream[300:])
        live = {t: svc.tenant(t).partition() for t in by_tenant(stream)}
        # Crash: abandon without close() (no final checkpoints).
        svc.manager.oplog.close()

        svc2 = open_service(dataset, root_dir=tmp_path / "state")
        for tenant, ops in by_tenant(stream).items():
            handle = svc2.tenant(tenant)
            assert handle.partition() == live[tenant]
            handle.flush()
            assert handle.partition() == solo_partition(dataset, ops)
        svc2.close()

    def test_replica_catches_up_per_tenant(self, dataset, stream, tmp_path):
        """Tenant-filtered replicas fed full shared-log segments
        converge on exactly their tenant's primary partition."""
        svc = open_service(dataset, root_dir=tmp_path / "state")
        drive(svc, stream[:200])
        replicas = {
            tenant: svc.tenant(tenant).add_replica()
            for tenant in sorted(by_tenant(stream))
        }
        svc.sync()
        for start in range(200, len(stream), 50):  # caught up after every sync
            drive(svc, stream[start : start + 50])
            assert sum(svc.sync(heartbeat=True)["applied"].values()) > 0
            for lag in (replica.lag() for replica in replicas.values()):
                assert lag["seq_delta"] == 0 and lag["visibility_lag_s"] is not None
        svc.flush()
        result = svc.sync()
        assert result["published"] > 0
        for tenant, replica in replicas.items():
            assert replica.partition() == svc.tenant(tenant).partition()
            assert replica.lag()["seq_delta"] == 0
        stats = svc.stats()
        assert set(stats["replicas"]) == {
            replica.name for replica in replicas.values()
        }
        svc.close()

    def test_replica_lag_is_a_readiness_check(self, dataset, stream, tmp_path):
        """Each tenant replica's lag is a ``replica:<name>`` check on the
        service's health registry — the report ``/readyz`` serves."""
        svc = open_service(dataset, root_dir=tmp_path / "state")
        drive(svc, stream[:100])
        replica = svc.tenant("tenant-000").add_replica(name="t0")
        check = svc.health.report()["checks"]["replica:t0"]
        assert check["status"] == "degraded"  # attached, not yet heard
        assert check["detail"] == "never heard from primary"
        svc.sync(heartbeat=True)
        check = svc.health.report()["checks"]["replica:t0"]
        assert check["status"] == "ok"
        lag = replica.lag()
        assert lag["received_seq"] == svc.manager.oplog.last_seq
        assert check["data"]["seq_delta"] == lag["seq_delta"] == 0
        assert check["data"]["staleness_s"] >= 0.0
        svc.close()

    def test_compaction_respects_every_tenant(self, dataset, stream, tmp_path):
        svc = open_service(dataset, root_dir=tmp_path / "state")
        drive(svc, stream)
        assert svc.stats()["ops_total"] == len(stream)
        # Any tenant without a checkpoint pins the log at zero.
        svc.tenant("tenant-000").checkpoint()
        assert svc.compact()["truncated_through"] == 0
        svc.flush()
        svc.checkpoint()  # all resident tenants
        report = svc.compact()
        assert report["truncated_through"] > 0
        # The truncated log still reloads every tenant exactly.
        live = {t: svc.tenant(t).partition() for t in by_tenant(stream)}
        svc.close()
        svc2 = open_service(dataset, root_dir=tmp_path / "state")
        for tenant, partition in live.items():
            assert svc2.tenant(tenant).partition() == partition
        svc2.close()

    def test_tenants_listing(self, dataset):
        svc = open_service(dataset)
        svc.tenant("a").ingest([("add", 1, pv(dataset, 1))])
        svc.tenant("b").ingest([("add", 1, pv(dataset, 1))])
        assert svc.tenants() == [
            {"tenant": "a", "resident": True},
            {"tenant": "b", "resident": True},
        ]
        # Same object id in two tenants: fully namespaced.
        assert svc.tenant("a").num_objects() == svc.tenant("b").num_objects()
        with pytest.raises(UnknownTenantError):
            svc.manager.tenant_stats("never-seen")
        svc.close()

    def test_stats_hold_one_telemetry_snapshot(self, dataset, monkeypatch):
        """Tenants share one recorder, reported once (not per tenant) and
        built once per call."""
        svc = open_service(dataset, telemetry="on")
        for name in ("a", "b"):
            svc.tenant(name).ingest([("add", 1, pv(dataset, 1))])
        snapshots = 0
        original = Telemetry.snapshot

        def counting(self):
            nonlocal snapshots
            snapshots += 1
            return original(self)

        monkeypatch.setattr(Telemetry, "snapshot", counting)
        stats = svc.stats()
        assert snapshots == 1
        assert stats["telemetry"]["enabled"] and len(stats["tenants"]) == 2
        assert not any("telemetry" in snap for snap in stats["tenants"].values())
        assert svc.tenant("a").stats()["telemetry"]["enabled"]
        svc.close()


class TestQuotas:
    def test_rate_quota_rejects_with_retry_after(self, dataset):
        svc = open_service(dataset, quota_ops_per_s=5.0, quota_burst=8)
        handle = svc.tenant("q")
        handle.ingest([("add", i, pv(dataset, i)) for i in range(8)])
        with pytest.raises(QuotaExceeded) as excinfo:
            handle.ingest([("add", 100, pv(dataset, 100))])
        err = excinfo.value
        assert err.tenant == "q" and err.reason == "ops_rate"
        assert err.retry_after_s is not None and err.retry_after_s > 0
        assert isinstance(err, ServeError) and isinstance(err, RuntimeError)
        assert svc.stats()["quota_rejections"] == {"q": {"ops_rate": 1}}
        svc.close()

    def test_object_quota_counts_pending(self, dataset):
        """The live-object cap projects over applied *and* buffered
        adds, so a burst inside one micro-batch cannot slip past."""
        svc = open_service(dataset, quota_max_objects=20)
        handle = svc.tenant("q")
        handle.ingest([("add", i, pv(dataset, i)) for i in range(12)])  # < batch, pending
        with pytest.raises(QuotaExceeded) as excinfo:
            handle.ingest([("add", 100 + i, pv(dataset, 100 + i)) for i in range(9)])
        err = excinfo.value
        assert err.reason == "max_objects"
        assert err.limit == 20 and err.current == 12
        # Updates of existing ids are not new objects: still admitted.
        assert handle.ingest([("update", 3, pv(dataset, 53))]) == 1
        # Removing frees quota (flush applies the removes).
        handle.ingest([("remove", i) for i in range(8)])
        handle.flush()
        assert handle.ingest([("add", 200 + i, pv(dataset, 200 + i)) for i in range(9)]) == 9
        svc.close()

    def test_backlog_quota(self, dataset):
        svc = open_service(dataset, quota_max_pending=10)
        handle = svc.tenant("q")
        handle.ingest([("add", i, pv(dataset, i)) for i in range(10)])
        with pytest.raises(QuotaExceeded) as excinfo:
            handle.ingest([("add", 50, pv(dataset, 50))])
        assert excinfo.value.reason == "backlog"
        handle.flush()  # drains the batcher
        assert handle.ingest([("add", 50, pv(dataset, 50))]) == 1
        svc.close()

    def test_rejection_is_atomic_and_counted(self, dataset):
        """A bounced batch mutates nothing — not even the rate tokens —
        and lands in the labeled rejection counter."""
        svc = open_service(
            dataset,
            telemetry="on",
            quota_ops_per_s=5.0,
            quota_burst=4,
            quota_max_objects=50,
        )
        handle = svc.tenant("q")
        handle.ingest([("add", 1, pv(dataset, 1))])
        before = svc.tenant("q").stats()["ops_total"]
        bucket = svc.manager.activate("q").bucket
        tokens_before = bucket.tokens
        # Bounced on max_objects (60 new > 50) before the bucket runs.
        with pytest.raises(QuotaExceeded):
            handle.ingest([("add", 100 + i, pv(dataset, i)) for i in range(60)])
        assert bucket.tokens == pytest.approx(tokens_before, abs=0.1)
        assert svc.tenant("q").stats()["ops_total"] == before
        assert svc.stats()["quota_rejections_total"] == 1
        labeled = svc.stats()["telemetry"]["metrics"]["quota_rejections_total"]
        assert labeled == {"tenant=q,reason=max_objects": 1}
        svc.close()

    def test_quotas_are_per_tenant(self, dataset):
        svc = open_service(dataset, quota_ops_per_s=5.0, quota_burst=4)
        svc.tenant("a").ingest([("add", i, pv(dataset, i)) for i in range(4)])
        with pytest.raises(QuotaExceeded):
            svc.tenant("a").ingest([("add", 9, pv(dataset, 9))])
        # Tenant b has its own bucket, untouched by a's burst.
        assert svc.tenant("b").ingest([("add", i, pv(dataset, i)) for i in range(4)]) == 4
        svc.close()


class TestLRUActivation:
    def test_cap_respected_and_no_data_loss(self, dataset, stream, tmp_path):
        svc = open_service(
            dataset, root_dir=tmp_path / "state", max_resident_tenants=2
        )
        drive(svc, stream)  # 4 tenants through a 2-pool cap
        stats = svc.stats()
        assert stats["ops_total"] == len(stream)
        assert stats["resident_tenants"] <= 2
        assert stats["known_tenants"] == 4
        assert stats["evictions_total"] >= 2
        assert stats["activations_total"] > 4  # reloads happened
        # Evicted tenants report residency without being activated.
        evicted = [
            name
            for name, snap in stats["tenants"].items()
            if not snap["resident"]
        ]
        assert len(evicted) == 4 - stats["resident_tenants"]
        # Every tenant still matches its run-alone partition (pending
        # ops survived eviction via the shared log)...
        for tenant, ops in by_tenant(stream).items():
            handle = svc.tenant(tenant)
            handle.flush()
            assert handle.partition() == solo_partition(dataset, ops)
        # ...and reading them back kept the cap.
        assert svc.stats()["resident_tenants"] <= 2
        svc.close()

    def test_gauge_and_lru_order(self, dataset, tmp_path):
        svc = open_service(
            dataset,
            root_dir=tmp_path / "state",
            max_resident_tenants=2,
            telemetry="on",
        )
        for name in ("a", "b", "c"):
            svc.tenant(name).ingest([("add", 1, pv(dataset, 1))])
        # "a" was least recently used: evicted when "c" activated.
        assert svc.manager.resident() == ["b", "c"]
        assert not svc.tenant("a").resident
        assert svc.stats()["telemetry"]["metrics"]["resident_tenants"] == 2
        # Touching "a" reloads it (pending op included) and evicts "b".
        svc.tenant("a").flush()
        assert svc.tenant("a").num_objects() == 1
        assert svc.manager.resident() == ["c", "a"]
        svc.close()

    def test_explicit_evict_errors(self, dataset, tmp_path):
        ephemeral = open_service(dataset)
        ephemeral.tenant("a").ingest([("add", 1, pv(dataset, 1))])
        with pytest.raises(RuntimeError, match="no root_dir"):
            ephemeral.manager.evict("a")
        assert ephemeral.tenant("a").resident  # put back, still usable
        ephemeral.close()

        durable = open_service(dataset, root_dir=tmp_path / "state")
        with pytest.raises(UnknownTenantError):
            durable.manager.evict("never-activated")
        durable.close()


class TestServeConfig:
    def factory(self):
        return lambda: None

    def test_unknown_kwarg_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'n_shards'"):
            ServeConfig.from_kwargs(self.factory(), n_shard=4)

    def test_retired_kwargs_explain_replacement(self):
        with pytest.raises(ConfigError, match="root_dir"):
            ServeConfig.from_kwargs(self.factory(), oplog_path="x.jsonl")
        with pytest.raises(ConfigError, match="tenants/<name>/checkpoints"):
            ServeConfig.from_kwargs(self.factory(), checkpoint_dir="ckpt/")
        with pytest.raises(ConfigError, match="add_replica"):
            ServeConfig.from_kwargs(self.factory(), replicas=2)

    def test_serve_level_constraints(self, tmp_path):
        with pytest.raises(ConfigError, match="engine_factory"):
            ServeConfig(engine_factory="not-callable")
        with pytest.raises(ConfigError, match="root_dir"):
            ServeConfig(self.factory(), fsync=True)
        with pytest.raises(ConfigError, match="root_dir"):
            ServeConfig(self.factory(), max_resident_tenants=2)
        with pytest.raises(ConfigError, match="quota_ops_per_s"):
            ServeConfig(self.factory(), quota_burst=10)
        with pytest.raises(ConfigError):
            ServeConfig(self.factory(), quota_ops_per_s=-1.0)
        with pytest.raises(ConfigError):
            ServeConfig(self.factory(), root_dir=tmp_path, max_resident_tenants=0)
        # Shared streaming knobs fail through the same funnel.
        with pytest.raises(ValueError):
            ServeConfig(self.factory(), router="nonsense")
        with pytest.raises(ConfigError, match="ServeConfig|listen"):
            ServeConfig(self.factory(), obs_server="not a listen spec")

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, ServeError)

    def test_open_rejects_ambiguous_calls(self, dataset):
        config = ServeConfig(make_factory(dataset))
        with pytest.raises(ConfigError, match="not both"):
            Service.open(config, n_shards=4)
        with pytest.raises(ConfigError, match="engine_factory is required"):
            Service.open(n_shards=4)

    def test_tenant_name_validation(self, dataset):
        svc = open_service(dataset)
        for bad in ("", "-leading-dash", "a/b", "x" * 65, 7):
            with pytest.raises(ConfigError, match="tenant name"):
                svc.tenant(bad)
        svc.tenant("Ok-name.v2_1")  # fine
        svc.close()


class TestDeprecatedFacades:
    def test_old_entry_points_warn(self, dataset):
        with pytest.warns(DeprecationWarning, match="repro.serve.Service"):
            service = ClusteringService(make_factory(dataset), StreamConfig(**CUT))
        service.ingest([add(1, pv(dataset, 1))])  # still fully functional
        service.flush()
        assert service.num_objects() == 1
        service.close()

    def test_serve_path_is_warning_free(self, dataset, tmp_path):
        """The new front door builds the same internals silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            svc = open_service(dataset, root_dir=tmp_path / "state")
            svc.tenant("a").ingest([("add", 1, pv(dataset, 1))])
            svc.tenant("a").add_replica()
            svc.sync()
            svc.checkpoint()
            svc.close()
            # Reopen exercises the recover() path, also internal.
            svc2 = open_service(dataset, root_dir=tmp_path / "state")
            assert svc2.tenant("a").num_objects() >= 0
            svc2.close()
