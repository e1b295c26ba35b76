"""Tests for `repro.replica`: segments, transports, shipping, replicas,
and failover — including the acceptance invariants: a replica fed only
shipped segments + checkpoints reproduces the primary's exact
partition, and a promoted follower's subsequent ingest matches an
uninterrupted run.

In-process replication is driven through the one front door,
:class:`repro.serve.Service` (``tenant(...).add_replica()``, ``sync()``,
``compact()``); failover, injected clocks and cross-instance shipping
use the primitives (`LogShipper`, `ReadReplica`, transports) directly.
"""

from __future__ import annotations

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.replica import (
    InProcessTransport,
    LogSegment,
    LogShipper,
    MailboxTransport,
    ReadReplica,
    ReplicationGap,
)
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig, add
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


#: Round-cut parameters shared by every primary and follower here.
CUT = dict(n_shards=2, batch_max_ops=32, train_rounds=2)

#: The tenant every Service-driven test ingests into.
TENANT = "t"


def durable_config(root, **overrides) -> StreamConfig:
    settings = dict(
        CUT,
        oplog_path=root / "oplog",
        checkpoint_dir=root / "checkpoints",
    )
    settings.update(overrides)
    return StreamConfig(**settings)


def open_service(dataset, root, **overrides) -> Service:
    return Service.open(
        engine_factory=make_factory(dataset), **CUT, root_dir=root, **overrides
    )


def stamped_ops(n, start_seq=1):
    return tuple(
        add(1000 + i, f"p{i}").with_seq(start_seq + i) for i in range(n)
    )


class TestSegments:
    def test_contiguity_enforced(self):
        ops = stamped_ops(4, start_seq=7)
        segment = LogSegment(7, 10, ops, primary_seq=10, shipped_at=1.0)
        assert len(segment) == 4 and not segment.is_heartbeat
        with pytest.raises(ValueError, match="contiguous"):
            LogSegment(7, 10, ops[:2] + ops[3:], primary_seq=10, shipped_at=1.0)
        with pytest.raises(ValueError, match="disagree"):
            LogSegment(7, 11, ops, primary_seq=11, shipped_at=1.0)
        with pytest.raises(ValueError, match="empty segment"):
            LogSegment(7, 9, (), primary_seq=9, shipped_at=1.0)

    def test_heartbeat_and_roundtrip(self):
        beat = LogSegment.heartbeat(after_seq=12, primary_seq=12, shipped_at=3.5)
        assert beat.is_heartbeat and len(beat) == 0
        segment = LogSegment(3, 6, stamped_ops(4, 3), primary_seq=9, shipped_at=2.25)
        assert LogSegment.from_dict(segment.to_dict()) == segment
        assert LogSegment.from_dict(beat.to_dict()) == beat


class TestShipperAndTransports:
    def test_ship_chunks_and_cursors(self, tmp_path):
        log = open_log(tmp_path / "oplog.jsonl")
        log.append([add(i, f"p{i}") for i in range(25)])
        transport = InProcessTransport()
        shipper = LogShipper(log, max_segment_ops=10)
        shipper.attach(transport, from_seq=0)
        assert shipper.ship() == 3  # 10 + 10 + 5
        segments = transport.poll()
        assert [(s.first_seq, s.last_seq) for s in segments] == [
            (1, 10),
            (11, 20),
            (21, 25),
        ]
        assert all(s.primary_seq == 25 for s in segments)
        # Nothing new: silent unless a heartbeat is requested.
        assert shipper.ship() == 0
        assert shipper.ship(heartbeat=True) == 1
        (beat,) = transport.poll()
        assert beat.is_heartbeat and beat.primary_seq == 25
        assert shipper.stats()[0]["ops_shipped"] == 25
        log.close()

    def test_shipper_refuses_compacted_gap(self, tmp_path):
        log = open_log(tmp_path / "oplog.jsonl")
        log.append([add(i, f"p{i}") for i in range(20)])
        log.compact(upto_seq=10)
        shipper = LogShipper(log)
        late = InProcessTransport()
        shipper.attach(late, from_seq=5)  # wants ops the log no longer has
        with pytest.raises(ReplicationGap, match="compacted past follower"):
            shipper.ship()
        log.close()

    def test_mailbox_roundtrip_and_ordering(self, tmp_path):
        mailbox = MailboxTransport(tmp_path / "mail")
        first = LogSegment(1, 3, stamped_ops(3, 1), primary_seq=6, shipped_at=1.0)
        second = LogSegment(4, 6, stamped_ops(3, 4), primary_seq=6, shipped_at=1.0)
        mailbox.publish(second)
        mailbox.publish(first)
        # A half-written publish (no rename yet) is invisible to poll.
        (tmp_path / "mail" / "segment-zzz.json.tmp").write_text('{"partial')
        received = MailboxTransport(tmp_path / "mail").poll()
        assert received == [first, second]  # sorted by seq range, consumed
        assert mailbox.poll() == []


class TestReplication:
    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_replica_reproduces_exact_partition(
        self, dataset, events, tmp_path, backend
    ):
        """Acceptance: shipped segments + checkpoints → frozenset-equal
        partitions, for both storage backends."""
        svc = open_service(
            dataset,
            tmp_path / "state",
            log_backend=backend,
            checkpoint_backend="json" if backend == "jsonl" else "sqlite",
            max_segment_ops=50,
        )
        tenant = svc.tenant(TENANT)
        replica = tenant.add_replica(name="follower")
        # Interleave ingest and catch-up, ending mid-batch.
        third = len(events) // 3
        tenant.ingest(events[:third])
        svc.sync()
        tenant.ingest(events[third : 2 * third])
        svc.sync()  # ship before the snapshot lets compaction advance
        tenant.checkpoint()
        assert svc.compact()["truncated_through"] > 0
        tenant.ingest(events[2 * third :])
        tenant.flush()
        assert svc.sync()["applied"]["follower"] > 0

        assert replica.partition() == tenant.partition()
        assert replica.num_objects() == tenant.num_objects()
        lag = replica.lag()
        assert lag["seq_delta"] == 0
        assert lag["received_seq"] == svc.manager.oplog.last_seq
        svc.close()

    def test_late_replica_bootstraps_from_checkpoint(
        self, dataset, events, tmp_path
    ):
        """A replica attached after compaction starts from the tenant's
        snapshot and is shipped only the suffix."""
        svc = open_service(dataset, tmp_path / "state")
        tenant = svc.tenant(TENANT)
        half = len(events) // 2
        tenant.ingest(events[:half])
        tenant.checkpoint()
        checkpoint_seq = svc.compact()["truncated_through"]
        assert checkpoint_seq > 0

        replica = tenant.add_replica(name="late")
        assert replica.received_seq == checkpoint_seq
        assert replica.snapshots_applied == 0  # seeded at bootstrap

        tenant.ingest(events[half:])
        tenant.flush()
        svc.sync()
        assert replica.partition() == tenant.partition()
        # Only the post-checkpoint suffix travelled over the wire.
        (shipping,) = svc.stats()["shipping"]
        assert shipping["ops_shipped"] == svc.manager.oplog.last_seq - checkpoint_seq
        assert replica.segments_applied >= 1
        assert (
            replica.stats()["events_ingested"]
            < tenant.stats()["events_ingested"]
        )
        svc.close()

    def test_mailbox_replication_across_instances(self, dataset, events, tmp_path):
        """Primary and follower share nothing but a mailbox directory
        (the cross-process deployment, driven in one process here)."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        primary.ingest(events)
        primary.flush()
        shipper = LogShipper(primary.oplog, max_segment_ops=64)
        shipper.attach(MailboxTransport(tmp_path / "mail"), from_seq=0)
        shipper.ship()

        follower = ReadReplica(
            factory,
            durable_config(tmp_path / "follower"),
            MailboxTransport(tmp_path / "mail"),
            name="mailbox-follower",
        )
        follower.poll()
        assert follower.partition() == primary.partition()
        # The mailbox was consumed.
        assert MailboxTransport(tmp_path / "mail").poll() == []
        primary.close()
        follower.close()

    def test_replica_refuses_gap_and_drops_duplicates(
        self, dataset, events, tmp_path
    ):
        svc = open_service(dataset, tmp_path / "state")
        tenant = svc.tenant(TENANT)
        replica = tenant.add_replica(name="r")
        tenant.ingest(events[:64])
        svc.sync()
        seen = replica.received_seq
        assert seen == 64

        # Redelivery of an already-applied segment is dropped quietly…
        duplicate = LogSegment(
            seen - 1, seen, stamped_ops(2, seen - 1), primary_seq=seen, shipped_at=0.0
        )
        assert replica.apply_segment(duplicate) == 0
        assert replica.duplicates_dropped == 1
        # …but a segment from the future is refused loudly.
        future = LogSegment(
            seen + 5, seen + 6, stamped_ops(2, seen + 5), primary_seq=seen + 6,
            shipped_at=0.0,
        )
        with pytest.raises(ReplicationGap, match="refusing to apply past a gap"):
            replica.apply_segment(future)
        svc.close()

    def test_divergent_round_cut_parameters_refused(
        self, dataset, events, tmp_path
    ):
        """A follower cutting different rounds from the same log would
        silently diverge: bootstrapping from a primary's snapshot with
        different round-cut parameters is refused."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        primary.ingest(events[:64])
        primary.checkpoint()
        snapshot = primary.checkpoints.load_latest()
        for divergent in (dict(batch_max_ops=64), dict(n_shards=4)):
            with pytest.raises(ValueError, match="round-cut"):
                ReadReplica.bootstrap(
                    factory,
                    StreamConfig(**dict(CUT, **divergent)),
                    InProcessTransport(),
                    snapshot=snapshot,
                )
        primary.close()

    def test_snapshot_seeded_replica_requires_local_checkpoints(
        self, dataset, events, tmp_path
    ):
        """A durable-log replica bootstrapped from a snapshot must also
        have a local checkpoint store — otherwise its log starts past
        seq 1 with the prefix stored nowhere, and restart/promote()
        would refuse the gap. Both seeding paths reject it up front."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        primary.ingest(events[:64])
        primary.checkpoint()
        snapshot = primary.checkpoints.load_latest()
        log_only = durable_config(tmp_path / "logonly", checkpoint_dir=None)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ReadReplica.bootstrap(
                factory, log_only, InProcessTransport(), snapshot=snapshot
            )
        with pytest.raises(ValueError, match="bootstrap"):
            ReadReplica(
                factory, log_only, InProcessTransport(), snapshot=snapshot
            )
        primary.close()

    def test_ephemeral_primary_refused(self, dataset):
        """Replication ships the shared log, so a Service without one
        (no root_dir) has nothing to ship."""
        svc = Service.open(engine_factory=make_factory(dataset), **CUT)
        with pytest.raises(RuntimeError, match="root_dir"):
            svc.tenant(TENANT).add_replica()
        svc.close()

    def test_replica_reads_are_eventually_consistent(
        self, dataset, events, tmp_path
    ):
        svc = open_service(dataset, tmp_path / "state")
        tenant = svc.tenant(TENANT)
        replica = tenant.add_replica(name="a")
        tenant.ingest(events[:64])
        tenant.flush()
        # The replica hasn't heard anything yet: eventual consistency
        # is visible (and queryable via lag()).
        live_id = min(next(iter(tenant.partition())))
        assert tenant.cluster_of(live_id) is not None
        assert replica.cluster_of(live_id) is None

        svc.sync()
        # Cluster ids are replica-relative: resolve id → cluster →
        # members against the replica alone.
        gcid = replica.cluster_of(live_id)
        assert gcid is not None and live_id in replica.members(gcid)
        assert replica.num_objects() == tenant.num_objects()
        assert svc.stats()["replicas"]["a"]["seq_delta"] == 0
        svc.close()

    def test_lag_reports_seq_delta_and_staleness(self, dataset, events, tmp_path):
        clock = FakeClock(100.0)
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        shipper = LogShipper(primary.oplog, clock=clock)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        replica = ReadReplica(
            factory, StreamConfig(**CUT), transport, name="laggy", clock=clock
        )

        def sync():
            shipper.ship(heartbeat=True)
            replica.poll()

        primary.ingest(events[:40])
        sync()
        assert replica.lag()["seq_delta"] == 0
        assert replica.lag()["staleness_s"] == 0.0

        clock.advance(5.0)
        primary.ingest(events[40:80])  # shipped nowhere yet
        lag = replica.lag()
        assert lag["staleness_s"] == 5.0
        assert lag["seq_delta"] == 0  # replica hasn't heard about them…
        sync()  # …until the heartbeat round tells it
        assert replica.lag()["seq_delta"] == 0  # data segments applied too
        assert replica.lag()["staleness_s"] == 0.0

        assert shipper.stats()[0]["behind"] == 0
        assert primary.stats()["oplog_bytes"] > 0
        primary.close()


class TestPromotion:
    def test_promoted_follower_matches_uninterrupted_run(
        self, dataset, events, tmp_path
    ):
        """Acceptance: promote() yields a primary whose subsequent
        ingest matches an uninterrupted run."""
        factory = make_factory(dataset)
        reference = ClusteringService(factory, durable_config(tmp_path / "ref"))
        reference.ingest(events)
        reference.flush()

        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        shipper = LogShipper(primary.oplog)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        heir = ReadReplica(
            factory, durable_config(tmp_path / "heir"), transport, name="heir"
        )
        cut = (len(events) * 2) // 3  # deliberately mid-batch
        primary.ingest(events[:cut])
        shipper.ship()  # a clean failover drains everything committed
        heir.poll()
        primary.close()

        promoted = heir.promote()
        assert promoted.applied_seq <= promoted.oplog.last_seq
        promoted.ingest(events[cut:])
        promoted.flush()

        assert promoted.partition() == reference.partition()
        assert (
            promoted.membership.live_ids() == reference.membership.live_ids()
        )
        assert promoted.applied_seq == reference.applied_seq
        reference.close()
        promoted.close()

    def test_promote_requires_durable_replica(self, dataset, events, tmp_path):
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        shipper = LogShipper(primary.oplog)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        replica = ReadReplica(
            factory, StreamConfig(**CUT), transport, name="ephemeral"
        )
        primary.ingest(events[:32])
        shipper.ship()
        replica.poll()
        with pytest.raises(ValueError, match="ephemeral"):
            replica.promote()
        primary.close()

    def test_promote_refuses_divergent_round_cut_config(
        self, dataset, events, tmp_path
    ):
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        shipper = LogShipper(primary.oplog)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        replica = ReadReplica(
            factory, durable_config(tmp_path / "heir"), transport, name="heir"
        )
        primary.ingest(events[:32])
        shipper.ship()
        replica.poll()
        with pytest.raises(ValueError, match="round-cut"):
            replica.promote(durable_config(tmp_path / "heir", batch_max_ops=64))
        primary.close()
        replica.close()

    def test_durable_replica_restarts_from_own_state(
        self, dataset, events, tmp_path
    ):
        """A follower crash: it rebootstraps from its own log+snapshot
        and resumes tailing at its old cursor."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        primary.ingest(events)
        primary.flush()
        shipper = LogShipper(primary.oplog, max_segment_ops=64)

        replica_config = durable_config(tmp_path / "follower")
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        replica = ReadReplica(factory, replica_config, transport, name="f")
        half_seq = primary.oplog.last_seq // 2
        # Ship roughly half, then "crash" the follower.
        for segment in _segments_upto(shipper, transport, half_seq):
            replica.apply_segment(segment)
        replica.checkpoint()  # snapshot + compact local log
        cursor = replica.received_seq
        replica.service.close()
        del replica

        transport2 = InProcessTransport()
        restarted = ReadReplica(factory, replica_config, transport2, name="f2")
        assert restarted.received_seq == cursor
        shipper.detach(transport)
        shipper.attach(transport2, from_seq=restarted.received_seq)
        shipper.ship()
        restarted.poll()
        assert restarted.partition() == primary.partition()
        primary.close()
        restarted.close()


def _segments_upto(shipper, transport, upto_seq):
    """Ship everything, but hand over only segments ending <= upto_seq."""
    shipper.ship()
    return [s for s in transport.poll() if s.last_seq <= upto_seq]


class FakeClock:
    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds
