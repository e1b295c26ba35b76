"""Tests for the end-to-end freshness watermark.

The watermark is one wall-clock stamp (``ingest_ts``, from the
primary's clock) applied once at service ingest, then carried
everywhere: the oplog's ``"ts"`` field, segment/snapshot/heartbeat
artifacts, replica apply, checkpoints, and finally the
``visibility_lag_s`` a replica reports. These tests pin the stamping
point, the round-trips, and the edge cases (empty logs, never-polled
replicas, skewed clocks, pre-watermark records).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.obs import Telemetry
from repro.replica import (
    InProcessTransport,
    LogSegment,
    LogShipper,
    ReadReplica,
    SnapshotArtifact,
)
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig, add
from repro.stream.events import Operation
from repro.stream.oplog import open_log


@pytest.fixture(scope="module")
def dataset():
    return generate_access(n_profiles=6, n_records=240, seed=3)


@pytest.fixture(scope="module")
def events(dataset):
    workload = build_workload(
        dataset,
        initial_count=80,
        n_snapshots=5,
        mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
        seed=2,
    )
    return workload.event_stream()


def make_factory(dataset):
    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory


def config(tmp_path=None, **overrides) -> StreamConfig:
    settings = dict(n_shards=2, batch_max_ops=32, train_rounds=2)
    if tmp_path is not None:
        settings.update(
            oplog_path=tmp_path / "oplog", checkpoint_dir=tmp_path / "ckpt"
        )
    settings.update(overrides)
    return StreamConfig(**settings)


class TestOperationStamp:
    def test_with_ingest_ts_round_trips_through_dict(self):
        op = add(1, "p").with_seq(3).with_ingest_ts(1234.5)
        assert op.ingest_ts == 1234.5
        data = op.to_dict()
        assert data["ts"] == 1234.5
        assert Operation.from_dict(data).ingest_ts == 1234.5

    def test_unstamped_op_omits_ts_key_and_decodes(self):
        data = add(1, "p").with_seq(3).to_dict()
        assert "ts" not in data
        assert Operation.from_dict(data).ingest_ts is None

    def test_pre_watermark_records_decode(self):
        # Records written before this field existed have no "ts" key;
        # they must keep loading (rolling upgrade over an old log).
        data = add(1, "p").with_seq(3).to_dict()
        data.pop("ts", None)
        op = Operation.from_dict(data)
        assert op.seq == 3 and op.ingest_ts is None

    def test_with_seq_and_with_shard_preserve_stamp(self):
        op = add(1, "p").with_ingest_ts(7.0)
        assert op.with_seq(9).ingest_ts == 7.0
        assert op.with_seq(9).with_shard(1).ingest_ts == 7.0


class TestServiceStamping:
    @pytest.mark.parametrize("telemetry", (None, "on"))
    def test_ingest_stamps_every_operation(self, dataset, events, telemetry):
        # Both the hot path and the instrumented path must stamp.
        service = ClusteringService(
            make_factory(dataset), config(telemetry=telemetry)
        )
        before = time.time()
        service.ingest(events[:100])
        after = time.time()
        assert service.applied_watermark_ts is not None
        assert before <= service.applied_watermark_ts <= after
        stats = service.stats()
        assert stats["applied_watermark_ts"] == service.applied_watermark_ts
        service.close()

    def test_pre_stamped_operations_keep_their_stamp(self, dataset, events):
        # Replica apply re-ingests operations that already carry the
        # primary's stamp; re-stamping would fake zero visibility lag.
        service = ClusteringService(make_factory(dataset), config())
        ops = [op for op in events[:60] if op.kind == "add"][:40]
        stamped = [op.with_ingest_ts(1000.0 + i) for i, op in enumerate(ops)]
        service.ingest(stamped)
        service.flush()
        assert service.applied_watermark_ts == 1000.0 + len(ops) - 1
        service.close()

    def test_watermark_survives_checkpoint_recover(self, dataset, events, tmp_path):
        service = ClusteringService(make_factory(dataset), config(tmp_path))
        service.ingest(events[:100])
        service.flush()
        watermark = service.applied_watermark_ts
        assert watermark is not None
        service.checkpoint()
        service.close()

        recovered = ClusteringService.recover(
            make_factory(dataset), config(tmp_path)
        )
        assert recovered.applied_watermark_ts == watermark
        recovered.close()


class TestPoolCommitWatermarkAndLastSeq:
    """Services without an oplog of their own (tenant pools, replicas)
    report the commit watermark they were given and the seq of the
    newest operation they were handed."""

    @staticmethod
    def open_service(dataset, tmp_path, **overrides):
        settings = dict(n_shards=2, batch_max_ops=16, train_rounds=2)
        settings.update(overrides)
        return Service.open(
            engine_factory=make_factory(dataset), root_dir=tmp_path, **settings
        )

    @pytest.mark.parametrize("setting", ("off", "on"))
    def test_tenant_pool_reports_the_commit_watermark(
        self, dataset, events, tmp_path, setting
    ):
        telemetry = Telemetry() if setting == "on" else None
        service = self.open_service(
            dataset, tmp_path, telemetry=telemetry, max_resident_tenants=1
        )
        handle = service.tenant("t")
        ops = [op.with_ingest_ts(5000.0 + i) for i, op in enumerate(events[:40])]
        handle.ingest(ops[:25])
        assert handle.stats()["commit_watermark_ts"] == 5024.0
        handle.ingest(ops[25:])

        def check():
            assert handle.stats()["commit_watermark_ts"] == 5039.0
            if telemetry is not None:
                gauges = telemetry.snapshot()["metrics"]["commit_watermark_ts"]
                assert gauges["replica=serve:t"] == 5039.0

        check()
        # A reloaded pool keeps it: from the replayed suffix (8 writes
        # pending at eviction), then, once everything was applied, from
        # the checkpoint's applied watermark.
        other = [op.with_ingest_ts(6000.0) for op in events[40:45]]
        service.tenant("u").ingest(other)  # evicts t
        handle.cluster_of(events[0].obj_id)  # reloads t
        check()
        handle.flush()
        service.tenant("u").ingest(other[:1])
        handle.cluster_of(events[0].obj_id)
        check()
        service.close()

    def test_last_seq_follows_the_operations_handed_in(
        self, dataset, events, tmp_path
    ):
        service = self.open_service(dataset, tmp_path, max_resident_tenants=1)
        a, b = service.tenant("a"), service.tenant("b")
        a.ingest(events[:30])
        b.ingest(events[30:50])  # evicts a
        a.ingest(events[50:60])  # reactivates a, evicts b
        stats = a.stats()
        # Seqs 51-60 went to a, after b's 31-50.
        assert stats["last_seq"] == 60
        assert stats["last_seq"] >= stats["applied_seq"]
        replica = a.add_replica(name="a-r0")
        a.ingest(events[60:70])
        a.flush()  # a tenant-stamped flush marker: seq 71
        service.sync()
        assert a.stats()["last_seq"] == 71
        replica_stats = replica.stats()
        assert replica_stats["last_seq"] == 71
        assert replica_stats["last_seq"] >= replica_stats["applied_seq"] > 0
        service.close()

    def test_recovered_service_without_oplog_starts_at_applied_seq(
        self, dataset, events, tmp_path
    ):
        cfg = config(checkpoint_dir=tmp_path / "ckpt")
        service = ClusteringService(make_factory(dataset), cfg)
        service.ingest(events[:70])
        service.checkpoint()
        applied = service.applied_seq
        assert applied == 64 and service.stats()["last_seq"] == 70
        service.close()
        recovered = ClusteringService.recover(make_factory(dataset), cfg)
        assert recovered.stats()["last_seq"] == applied
        recovered.ingest(events[70:72])
        assert recovered.stats()["last_seq"] == applied + 2
        recovered.close()


class TestLogRoundTrip:
    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_ts_persists_and_heal_tail_recovers_watermark(self, backend, tmp_path):
        path = tmp_path / f"log-{backend}"
        log = open_log(path, backend=backend)
        ops = [add(i, f"p{i}").with_ingest_ts(100.0 + i) for i in range(5)]
        log.append(ops)
        assert log.last_watermark_ts == 104.0
        log.close()

        reopened = open_log(path, backend=backend)
        assert reopened.last_watermark_ts == 104.0
        replayed = list(reopened.iter_from(0))
        assert [op.ingest_ts for op in replayed] == [100.0 + i for i in range(5)]
        reopened.close()

    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_unstamped_ops_leave_watermark_alone(self, backend, tmp_path):
        log = open_log(tmp_path / f"log-{backend}", backend=backend)
        log.append([add(1, "a").with_ingest_ts(50.0)])
        log.append([add(2, "b")])  # control/legacy record: no stamp
        assert log.last_watermark_ts == 50.0
        log.close()

    def test_empty_log_has_no_watermark(self, tmp_path):
        log = open_log(tmp_path / "log", backend="jsonl")
        assert log.last_watermark_ts is None
        log.close()

    def test_jsonl_line_carries_ts_key(self, tmp_path):
        path = tmp_path / "log"
        log = open_log(path, backend="jsonl")
        log.append([add(1, "a").with_ingest_ts(42.0)])
        log.close()
        line = json.loads(path.read_text().splitlines()[0])
        assert line["ts"] == 42.0


class TestArtifactCarry:
    def ops(self, n):
        return tuple(
            add(i, f"p{i}").with_seq(i + 1).with_ingest_ts(10.0 + i)
            for i in range(n)
        )

    def test_segment_round_trip(self):
        segment = LogSegment(
            1,
            3,
            self.ops(3),
            primary_seq=3,
            shipped_at=1.0,
            primary_watermark_ts=12.0,
        )
        decoded = LogSegment.from_dict(segment.to_dict())
        assert decoded.primary_watermark_ts == 12.0
        assert [op.ingest_ts for op in decoded.operations] == [10.0, 11.0, 12.0]

    def test_segment_without_watermark_round_trips_none(self):
        segment = LogSegment(1, 3, self.ops(3), primary_seq=3, shipped_at=1.0)
        assert "primary_watermark_ts" not in segment.to_dict()
        assert LogSegment.from_dict(segment.to_dict()).primary_watermark_ts is None

    def test_heartbeat_carries_watermark(self):
        beat = LogSegment.heartbeat(5, 5, 2.0, primary_watermark_ts=99.0)
        assert beat.is_heartbeat
        assert LogSegment.from_dict(beat.to_dict()).primary_watermark_ts == 99.0

    def test_snapshot_round_trip(self):
        artifact = SnapshotArtifact.from_state(
            {"applied_seq": 7, "anything": 1},
            primary_seq=9,
            shipped_at=3.0,
            primary_watermark_ts=88.0,
        )
        assert (
            SnapshotArtifact.from_dict(artifact.to_dict()).primary_watermark_ts
            == 88.0
        )

    def test_shipper_stamps_all_artifact_kinds(self, dataset, events, tmp_path):
        primary = ClusteringService(make_factory(dataset), config(tmp_path))
        primary.ingest(events[:100])
        primary.flush()
        primary.checkpoint()
        watermark = primary.oplog.last_watermark_ts
        assert watermark is not None

        transport = InProcessTransport()
        shipper = LogShipper(
            primary.oplog, snapshots=primary.checkpoints.load_latest
        )
        shipper.attach(transport)
        shipper.ship()
        segments = transport.poll()
        assert segments
        assert all(s.primary_watermark_ts == watermark for s in segments)

        # Idle heartbeat still carries it.
        shipper.ship(heartbeat=True)
        (beat,) = transport.poll()
        assert beat.is_heartbeat and beat.primary_watermark_ts == watermark

        # Snapshot resync carries it too.
        shipper.resync(transport)
        (snapshot,) = transport.poll()
        assert isinstance(snapshot, SnapshotArtifact)
        assert snapshot.primary_watermark_ts == watermark
        primary.close()


class TestReplicaLagEdges:
    def make_pair(self, dataset, tmp_path, clock=None):
        primary = ClusteringService(make_factory(dataset), config(tmp_path))
        transport = InProcessTransport()
        shipper = LogShipper(
            primary.oplog, snapshots=primary.checkpoints.load_latest
        )
        shipper.attach(transport)
        kwargs = {"clock": clock} if clock is not None else {}
        replica = ReadReplica(
            make_factory(dataset), config(), transport, name="r0", **kwargs
        )
        return primary, shipper, transport, replica

    def test_never_polled_replica_reports_nones(self, dataset, tmp_path):
        primary, _, _, replica = self.make_pair(dataset, tmp_path)
        lag = replica.lag()
        assert lag["primary_watermark_ts"] is None
        assert lag["applied_watermark_ts"] is None
        assert lag["visibility_lag_s"] is None
        assert lag["staleness_s"] is None
        assert lag["applied_age_s"] is None
        assert lag["seq_delta"] == 0
        replica.close()
        primary.close()

    def test_visibility_lag_after_poll(self, dataset, events, tmp_path):
        primary, shipper, _, replica = self.make_pair(dataset, tmp_path)
        primary.ingest(events[:100])
        primary.flush()
        shipper.ship()
        replica.poll()
        lag = replica.lag()
        assert lag["primary_watermark_ts"] == primary.oplog.last_watermark_ts
        assert lag["applied_watermark_ts"] is not None
        assert lag["visibility_lag_s"] is not None
        assert lag["visibility_lag_s"] >= 0.0
        assert lag["applied_age_s"] >= 0.0
        replica.close()
        primary.close()

    def test_skewed_clock_clamps_staleness(self, dataset, events, tmp_path):
        # The replica's wall clock is an hour behind the primary's:
        # shipped_at stamps are "from the future". staleness_s must
        # clamp to zero, not report a negative age.
        behind = lambda: time.time() - 3600.0
        primary, shipper, _, replica = self.make_pair(
            dataset, tmp_path, clock=behind
        )
        primary.ingest(events[:100])
        primary.flush()
        shipper.ship()
        replica.poll()
        lag = replica.lag()
        assert lag["staleness_s"] == 0.0
        # The watermark subtraction never involves the replica's clock,
        # so it stays meaningful (and clamped) under the same skew.
        assert lag["visibility_lag_s"] is not None
        assert lag["visibility_lag_s"] >= 0.0
        # applied_age_s runs on the monotonic clock: immune, >= 0.
        assert lag["applied_age_s"] >= 0.0
        replica.close()
        primary.close()

    def test_artifact_race_clamps_visibility_lag(self, dataset, tmp_path):
        # A snapshot stamped before a concurrent ingest can order the
        # two watermarks oddly; the lag must clamp, not go negative.
        primary, _, _, replica = self.make_pair(dataset, tmp_path)
        replica.service.applied_watermark_ts = 200.0
        replica._advance_watermark(150.0)
        assert replica.lag()["visibility_lag_s"] == 0.0
        replica.close()
        primary.close()

    def test_watermark_only_advances(self, dataset, tmp_path):
        primary, _, _, replica = self.make_pair(dataset, tmp_path)
        replica._advance_watermark(100.0)
        replica._advance_watermark(90.0)  # stale artifact arrives late
        replica._advance_watermark(None)  # pre-watermark artifact
        assert replica.primary_watermark_ts == 100.0
        replica.close()
        primary.close()
