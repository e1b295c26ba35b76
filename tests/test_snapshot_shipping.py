"""Snapshot shipping: self-contained followers, compaction, re-sync.

The tentpole acceptance surface: a follower given *only* a transport
(a mailbox spool directory) — no access to the primary's checkpoint or
log directories — bootstraps from a shipped `SnapshotArtifact` after
the primary compacted its log, tails the segment suffix, survives its
own restarts, and re-syncs over the same channel after a gap refusal.
Plus the property-style check: a seeded random operation stream driven
through primary + mailbox follower under random crash / compact /
re-sync / promote interleavings ends frozenset-equal to one
uninterrupted run.
"""

from __future__ import annotations

import os
import random

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
    SnapshotArtifact,
)
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig, add
from repro.stream.oplog import open_log


@pytest.fixture(scope="module")
def dataset():
    return generate_access(n_profiles=5, n_records=180, seed=3)


@pytest.fixture(scope="module")
def events(dataset):
    workload = build_workload(
        dataset,
        initial_count=60,
        n_snapshots=4,
        mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
        seed=2,
    )
    return workload.event_stream()


def make_factory(dataset):
    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory


ROUND_CUT = dict(n_shards=2, batch_max_ops=24, train_rounds=2)


def durable_config(root, **overrides) -> StreamConfig:
    settings = dict(
        ROUND_CUT,
        oplog_path=root / "oplog",
        checkpoint_dir=root / "checkpoints",
    )
    settings.update(overrides)
    return StreamConfig(**settings)


def stamped_ops(n, start_seq):
    return tuple(add(1000 + i, f"p{i}").with_seq(start_seq + i) for i in range(n))


def segment_at(first_seq, n=2):
    return LogSegment(
        first_seq,
        first_seq + n - 1,
        stamped_ops(n, first_seq),
        primary_seq=first_seq + n - 1,
        shipped_at=1.0,
    )


class TestSnapshotArtifact:
    def test_roundtrip_and_state_agreement(self):
        state = {"applied_seq": 12, "n_shards": 2, "shards": ["a", "b"]}
        artifact = SnapshotArtifact.from_state(state, primary_seq=20, shipped_at=3.5)
        assert SnapshotArtifact.from_dict(artifact.to_dict()) == artifact
        with pytest.raises(ValueError, match="disagrees"):
            SnapshotArtifact(state=state, applied_seq=13, primary_seq=20, shipped_at=0.0)


class TestMailboxOrdering:
    def test_order_is_numeric_past_the_padding_width(self, tmp_path):
        """10+-digit seqs outgrow the 12-digit zero padding; consumption
        order must come from parsing the numbers, not from lexicographic
        file names (where "10000000000000" < "900000000000")."""
        mailbox = MailboxTransport(tmp_path / "mail")
        twelve_digits = 900_000_000_000
        fourteen_digits = 10_000_000_000_000
        mailbox.publish(segment_at(fourteen_digits))
        mailbox.publish(segment_at(twelve_digits))
        assert [s.first_seq for s in MailboxTransport(tmp_path / "mail").poll()] == [
            twelve_digits,
            fourteen_digits,
        ]

    def test_order_survives_same_mtime_collisions(self, tmp_path):
        """Burst publishes land within one timestamp granule; order must
        not depend on mtime (nor on directory enumeration order)."""
        mailbox = MailboxTransport(tmp_path / "mail")
        firsts = [1 + 2 * i for i in range(15)]
        for first in random.Random(5).sample(firsts, len(firsts)):
            mailbox.publish(segment_at(first))
        for path in (tmp_path / "mail").iterdir():
            os.utime(path, (1_000_000_000, 1_000_000_000))
        polled = MailboxTransport(tmp_path / "mail").poll()
        assert [s.first_seq for s in polled] == firsts

    def test_snapshot_sorts_before_the_segment_continuing_it(self, tmp_path):
        mailbox = MailboxTransport(tmp_path / "mail")
        mailbox.publish(segment_at(4, n=3))  # [4, 6]
        state = {"applied_seq": 3}
        mailbox.publish(
            SnapshotArtifact.from_state(state, primary_seq=6, shipped_at=1.0)
        )
        mailbox.publish(segment_at(1, n=3))  # [1, 3]
        polled = MailboxTransport(tmp_path / "mail").poll()
        assert [type(a).__name__ for a in polled] == [
            "LogSegment",  # [1, 3]
            "SnapshotArtifact",  # at 3: sorts after what it covers…
            "LogSegment",  # …and before the [4, 6] suffix continuing it
        ]


class TestSelfContainedFollower:
    def test_mailbox_follower_joins_after_compaction(
        self, dataset, events, tmp_path
    ):
        """Acceptance: a follower given only the spool directory joins a
        primary whose log was truncated, catches up, and matches."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        third = len(events) // 3
        primary.ingest(events[:third])
        primary.checkpoint()
        primary.ingest(events[third : 2 * third])
        primary.checkpoint()
        # Aggressive compaction: drop everything the newest snapshot
        # covers. The log now starts past seq 1 for good.
        report = primary.oplog.truncate_through(
            primary.checkpoints.latest_seq()
        )
        assert report["reclaimed_bytes"] > 0
        assert primary.stats()["oplog_reclaimed_bytes"] >= report["reclaimed_bytes"]
        primary.ingest(events[2 * third :])  # un-checkpointed suffix

        spool = tmp_path / "spool"
        shipper = LogShipper(
            primary.oplog,
            snapshots=primary.checkpoints.load_latest,
            max_segment_ops=48,
        )
        shipper.attach(MailboxTransport(spool), from_seq=0)
        shipper.ship()  # heals its own from_seq=0 gap: snapshot + suffix
        assert shipper.stats()[0]["snapshots_shipped"] == 1

        # The follower sees the spool and nothing else of the primary's.
        follower = ReadReplica(
            factory,
            durable_config(tmp_path / "follower"),
            MailboxTransport(spool),
            name="joiner",
        )
        follower.poll()
        assert follower.snapshots_applied == 1
        primary.flush()
        shipper.ship()
        follower.poll()
        assert follower.partition() == primary.partition()
        assert follower.lag()["seq_delta"] == 0
        # Durable on its own account: local log mirrors the cursor…
        assert follower.service.oplog.last_seq == follower.received_seq
        cursor = follower.received_seq
        follower.service.close()
        # …so a restart works from the follower's directories alone.
        restarted = ReadReplica(
            factory,
            durable_config(tmp_path / "follower"),
            MailboxTransport(spool),
            name="joiner-2",
        )
        assert restarted.received_seq == cursor
        assert restarted.partition() == primary.partition()
        primary.close()
        restarted.close()

    def test_ephemeral_follower_bootstraps_from_polled_snapshot(
        self, dataset, events, tmp_path
    ):
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        primary.ingest(events[: len(events) // 2])
        primary.checkpoint()
        primary.oplog.truncate_through(primary.checkpoints.latest_seq())

        shipper = LogShipper(
            primary.oplog, snapshots=primary.checkpoints.load_latest
        )
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        shipper.ship()
        follower = ReadReplica(factory, StreamConfig(**ROUND_CUT), transport)
        follower.poll()
        assert follower.snapshots_applied == 1
        assert follower.partition() == primary.partition()
        primary.close()

    def test_snapshot_into_log_only_follower_is_refused(self, tmp_path):
        """A shipped snapshot may not seed a replica whose log would
        restart past a prefix stored nowhere (no checkpoint_dir)."""

        def factory():  # never reached: the guard fires first
            raise AssertionError

        transport = InProcessTransport()
        state = {"applied_seq": 8, **ROUND_CUT, "shards": []}
        transport.publish(
            SnapshotArtifact.from_state(state, primary_seq=8, shipped_at=1.0)
        )
        follower = ReadReplica(
            lambda: None,
            StreamConfig(**ROUND_CUT, oplog_path=tmp_path / "oplog"),
            transport,
        )
        with pytest.raises(ValueError, match="checkpoint_dir"):
            follower.poll()
        follower.service.close()


class TestResyncAfterGap:
    def test_resync_heals_a_follower_that_lost_its_spool(
        self, dataset, events, tmp_path
    ):
        """A follower-side ReplicationGap (its spool lost artifacts) is
        healed over the same channel: the shipper re-seeds it with the
        newest snapshot and re-ships the suffix."""
        factory = make_factory(dataset)
        primary = ClusteringService(factory, durable_config(tmp_path / "primary"))
        spool = tmp_path / "spool"
        shipper = LogShipper(
            primary.oplog,
            snapshots=primary.checkpoints.load_latest,
            max_segment_ops=32,
        )
        outbox = MailboxTransport(spool)
        shipper.attach(outbox, from_seq=0)
        replica = ReadReplica(
            factory,
            durable_config(tmp_path / "follower"),
            MailboxTransport(spool),
            name="f",
        )
        third = len(events) // 3
        primary.ingest(events[:third])
        shipper.ship()
        replica.poll()
        in_sync = replica.received_seq
        # More ops get shipped into the spool — and lost before the
        # follower polls them.
        primary.ingest(events[third : 2 * third])
        shipper.ship()
        for path in spool.iterdir():
            path.unlink()
        primary.checkpoint()  # snapshot now covers the lost range
        primary.ingest(events[2 * third :])
        shipper.ship()
        with pytest.raises(ReplicationGap):
            replica.poll()
        shipper.resync(outbox)
        shipper.ship()
        assert replica.poll() > 0
        assert replica.snapshots_applied == 1
        assert replica.received_seq > in_sync
        primary.flush()
        shipper.ship()
        replica.poll()
        assert replica.partition() == primary.partition()
        assert shipper.stats()[0]["snapshots_shipped"] == 1
        primary.close()
        replica.close()

    def test_fully_compacted_log_still_ships_the_snapshot(self, tmp_path):
        """When truncation left an *empty* retained suffix, nothing
        iterates — the shipper must still notice a stale cursor and
        publish the snapshot (or refuse loudly), never silently strand
        the follower at lag-zero-but-empty."""
        log = open_log(tmp_path / "oplog")
        log.append([add(i, f"p{i}") for i in range(10)])
        log.truncate_through(10)  # retained suffix: nothing
        state = {"applied_seq": 10}
        shipper = LogShipper(log, snapshots=lambda: state)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        assert shipper.ship() == 1
        (artifact,) = transport.poll()
        assert isinstance(artifact, SnapshotArtifact)
        assert artifact.applied_seq == 10
        assert shipper.stats()[0]["behind"] == 0
        assert shipper.ship() == 0  # caught up; idempotent
        # Without a snapshot source the same situation is a loud refusal.
        strict = LogShipper(log)
        stranded = InProcessTransport()
        strict.attach(stranded, from_seq=0)
        with pytest.raises(ReplicationGap, match="compacted past follower"):
            strict.ship()
        log.close()

    def test_divergent_snapshot_does_not_poison_the_local_store(
        self, tmp_path
    ):
        """A shipped snapshot with divergent round-cut parameters is
        refused *before* it is saved locally — storing it would make
        every later restart reload and refuse it too."""
        transport = InProcessTransport()
        state = {
            "applied_seq": 8,
            "n_shards": 4,  # the follower below is configured for 2
            "batch_max_ops": ROUND_CUT["batch_max_ops"],
            "train_rounds": ROUND_CUT["train_rounds"],
            "shards": [],
        }
        transport.publish(
            SnapshotArtifact.from_state(state, primary_seq=8, shipped_at=1.0)
        )
        follower = ReadReplica(
            lambda: None, durable_config(tmp_path / "follower"), transport
        )
        with pytest.raises(ValueError, match="round-cut"):
            follower.poll()
        # The local store stayed clean and the replica stayed usable.
        assert follower.service.checkpoints.load_latest() is None
        assert follower.received_seq == 0
        follower.close()

    def test_gap_with_no_snapshot_still_raises(self, tmp_path):
        log = open_log(tmp_path / "oplog")
        log.append([add(i, f"p{i}") for i in range(10)])
        shipper = LogShipper(log)
        transport = InProcessTransport()
        shipper.attach(transport, from_seq=0)
        shipper.ship()
        replica_transport = InProcessTransport()
        replica = ReadReplica(
            lambda: None, StreamConfig(**ROUND_CUT), replica_transport
        )
        replica_transport.publish(segment_at(5, n=2))  # future: gap
        with pytest.raises(ReplicationGap, match="refusing to apply"):
            replica.poll()
        with pytest.raises(ReplicationGap, match="no snapshot"):
            shipper.resync(transport)
        log.close()

    def test_gap_healed_by_snapshot_later_in_the_same_poll(self, tmp_path):
        """Mailbox ordering puts a re-sync snapshot *after* stale gap
        segments; one drain must survive the gap and land on the
        snapshot."""
        spool = tmp_path / "spool"
        publisher = MailboxTransport(spool)
        publisher.publish(segment_at(40, n=2))  # stale: follower is at 0
        state = {"applied_seq": 41, **ROUND_CUT, "shards": []}
        publisher.publish(
            SnapshotArtifact.from_state(state, primary_seq=41, shipped_at=1.0)
        )
        follower = ReadReplica(
            lambda: None, StreamConfig(**ROUND_CUT), MailboxTransport(spool)
        )
        follower.poll()  # does not raise: the snapshot healed the gap
        assert follower.received_seq == 41
        assert follower.snapshots_applied == 1


class TestServiceCompaction:
    def test_compact_truncates_to_the_lowest_safety_floor(
        self, dataset, events, tmp_path
    ):
        svc = Service.open(
            engine_factory=make_factory(dataset),
            **ROUND_CUT,
            root_dir=tmp_path / "state",
            compact_on_checkpoint=False,
        )
        tenant = svc.tenant("t")
        replica = tenant.add_replica(name="r")
        half = len(events) // 2
        tenant.ingest(events[:half])
        tenant.checkpoint()
        tenant.ingest(events[half:])
        svc.sync()  # the replica's cursor must not hold the floor back
        tenant.checkpoint()
        report = svc.compact()
        # Two retained checkpoints: truncation stops at the OLDEST one —
        # the fallback recovery root keep_checkpoints preserves — not at
        # the newest snapshot.
        seqs = svc.manager.activate("t").service.checkpoints.list_seqs()
        assert len(seqs) == 2
        assert report["truncated_through"] == seqs[0] < seqs[-1]
        assert report["reclaimed_bytes"] > 0
        assert svc.stats()["oplog"]["reclaimed_bytes"] > 0
        # The suffix past the snapshot survives and the service works.
        tenant.flush()
        svc.sync()
        assert replica.partition() == tenant.partition()
        # A follower added *after* the truncation still bootstraps.
        late = tenant.add_replica(name="late")
        svc.sync()
        assert late.partition() == tenant.partition()
        svc.close()

    def test_compact_before_any_checkpoint_is_an_honest_noop(
        self, dataset, events, tmp_path
    ):
        svc = Service.open(
            engine_factory=make_factory(dataset),
            **ROUND_CUT,
            root_dir=tmp_path / "state",
        )
        svc.tenant("t").ingest(events[:30])
        log_bytes = svc.manager.oplog.size_bytes()
        report = svc.compact()
        assert report["truncated_through"] == 0
        assert report["reclaimed_bytes"] == 0
        # Nothing was truncated, and the report says so truthfully.
        assert report["log_bytes"] == log_bytes
        assert svc.manager.oplog.last_seq == 30
        svc.close()


class TestRandomInterleavings:
    """Property-style equivalence: any seeded interleaving of crash /
    compact / re-sync / promote against a mailbox follower ends
    frozenset-equal to one uninterrupted run of the same stream."""

    # Both seeds draw interleavings covering every action kind (crash,
    # compact, lose-spool→re-sync, promote) — checked by enumerating
    # the action stream, which depends only on the seed.
    @pytest.mark.parametrize("seed", [2, 29])
    def test_interleaved_run_matches_uninterrupted_run(
        self, dataset, events, tmp_path, seed
    ):
        factory = make_factory(dataset)
        reference = ClusteringService(factory, StreamConfig(**ROUND_CUT))
        reference.ingest(events)
        reference.flush()

        rng = random.Random(seed)
        spools = iter(tmp_path / f"spool-{i}" for i in range(100))
        homes = iter(tmp_path / f"node-{i}" for i in range(100))

        primary = ClusteringService(factory, durable_config(next(homes)))
        spool = next(spools)
        shipper = LogShipper(
            primary.oplog,
            snapshots=primary.checkpoints.load_latest,
            max_segment_ops=16,
        )
        shipper.attach(MailboxTransport(spool), from_seq=0)
        follower_home = next(homes)
        follower = ReadReplica(
            factory, durable_config(follower_home), MailboxTransport(spool)
        )

        def drain():
            nonlocal follower
            shipper.ship()
            try:
                follower.poll()
            except ReplicationGap:
                # The transport lost artifacts: re-seed over the wire.
                primary.checkpoint()
                shipper.resync(shipper._subscriptions[0].transport)
                shipper.ship()
                follower.poll()

        position = 0
        promotions = 0
        while position < len(events):
            step = rng.randint(4, 14)
            primary.ingest(events[position : position + step])
            position += step
            action = rng.choice(
                [
                    "ingest",
                    "ship",
                    "ship",
                    "checkpoint",
                    "compact",
                    "crash",
                    "lose",
                    "promote",
                ]
            )
            if action == "ship":
                drain()
            elif action == "checkpoint":
                primary.checkpoint()
            elif action == "compact":
                primary.checkpoint()
                primary.oplog.truncate_through(primary.checkpoints.latest_seq())
            elif action == "lose":
                # Ship into the spool, then lose it all before the
                # follower polls — the re-sync-after-gap trigger.
                shipper.ship()
                for path in spool.iterdir():
                    path.unlink()
            elif action == "crash":
                # Follower dies; a new process resumes from the
                # follower's own directories and keeps tailing.
                follower.service.close()
                follower = ReadReplica(
                    factory, durable_config(follower_home), MailboxTransport(spool)
                )
            elif action == "promote" and promotions < 2:
                promotions += 1
                drain()  # a clean failover ships everything committed
                promoted = follower.promote()
                primary.close()
                primary = promoted
                spool = next(spools)
                shipper = LogShipper(
                    primary.oplog,
                    snapshots=primary.checkpoints.load_latest,
                    max_segment_ops=16,
                )
                shipper.attach(MailboxTransport(spool), from_seq=0)
                follower_home = next(homes)
                follower = ReadReplica(
                    factory, durable_config(follower_home), MailboxTransport(spool)
                )

        primary.flush()
        drain()
        assert primary.partition() == reference.partition()
        assert follower.partition() == reference.partition()
        assert follower.lag()["seq_delta"] == 0
        primary.close()
        follower.service.close()
        reference.close()
