"""End-to-end tests for `repro.stream.ClusteringService`, including the
crash-recovery invariant: checkpoint + oplog replay must reproduce
exactly the memberships of an uninterrupted run."""

from __future__ import annotations

import itertools

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.stream import ClusteringService, StreamConfig, add, remove, update


@pytest.fixture(scope="module")
def access_dataset():
    return generate_access(n_profiles=8, n_records=400, seed=3)


@pytest.fixture(scope="module")
def access_events(access_dataset):
    workload = build_workload(
        access_dataset,
        initial_count=120,
        n_snapshots=8,
        mixes=OperationMix(add=0.15, remove=0.04, update=0.04),
        seed=2,
    )
    return workload.event_stream()


def make_factory(dataset):
    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory


def durable_config(tmp_path, **overrides) -> StreamConfig:
    settings = dict(
        n_shards=2,
        batch_max_ops=40,
        train_rounds=2,
        oplog_path=tmp_path / "oplog.jsonl",
        checkpoint_dir=tmp_path / "checkpoints",
    )
    settings.update(overrides)
    return StreamConfig(**settings)


class TestServiceBasics:
    def test_ingest_and_query(self, access_dataset, access_events, tmp_path):
        for n_shards, router in itertools.product((1, 2, 4), ("hash", "least-loaded")):
            config = durable_config(
                tmp_path / f"{router}-{n_shards}", n_shards=n_shards, router=router
            )
            with ClusteringService(make_factory(access_dataset), config) as service:
                service.ingest(access_events)
                service.flush()

                stats = service.stats()
                # ≥ 5 ingest rounds ran, and every shard trained.
                assert stats["batches_applied"] >= 5
                assert stats["applied_seq"] == len(access_events)
                assert stats["backlog"] == stats["pending_ops"] == 0
                for shard_stats in stats["shards"]:
                    assert shard_stats["trained"]
                    assert shard_stats["rounds_predicted"] >= 1

                # Every live object is queryable, routed to the right
                # shard, and its cluster's member list contains it.
                clusters = service.clusters()
                covered = set()
                for obj_id in service.membership.live_ids():
                    gcid = service.cluster_of(obj_id)
                    assert gcid is not None
                    assert obj_id in service.members(gcid)
                    covered.add(gcid)
                assert covered == set(clusters)
                # The global partition covers exactly the live ids.
                assert set().union(*clusters.values()) == service.membership.live_ids()

    def test_tuple_ingest_and_ephemeral_mode(self):
        # No oplog/checkpoints: the service runs fully in memory.
        dataset = generate_access(n_profiles=4, n_records=80, seed=5)
        service = ClusteringService(
            make_factory(dataset),
            StreamConfig(n_shards=2, batch_max_ops=10, train_rounds=1),
        )
        service.ingest(
            ("add", record.id, record.payload) for record in dataset.records[:40]
        )
        service.flush()
        assert service.num_objects() == 40
        assert service.cluster_of(dataset.records[0].id) is not None
        assert service.oplog is None

    def test_reads_lag_until_flush(self, access_dataset):
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(n_shards=2, batch_max_ops=1000, train_rounds=1),
        )
        service.ingest([add(1, access_dataset.records[0].payload)])
        assert service.cluster_of(1) is None  # still pending
        service.flush()
        assert service.cluster_of(1) is not None

    def test_conflicting_client_stream_is_reconciled(self, access_dataset):
        records = access_dataset.records
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(n_shards=2, batch_max_ops=4, train_rounds=1),
        )
        service.ingest([add(record.id, record.payload) for record in records[:8]])
        # Duplicate add → update; update of unknown id → add; remove of
        # unknown id → ignored. One per batch so folding can't mask it.
        service.ingest([add(records[0].id, records[1].payload)])
        service.ingest([update(999, records[2].payload)])
        service.ingest([remove(998)])
        service.flush()
        assert service.num_objects() == 9  # 8 adds + degraded-update add
        assert service.cluster_of(999) is not None
        stats = service.stats()
        assert sum(s["ops_ignored"] for s in stats["shards"]) == 1

    def test_remove_everything(self, access_dataset):
        records = access_dataset.records[:12]
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(n_shards=2, batch_max_ops=6, train_rounds=1),
        )
        service.ingest([add(record.id, record.payload) for record in records])
        service.ingest([remove(record.id) for record in records])
        service.flush()
        assert service.num_objects() == 0
        assert service.clusters() == {}
        assert service.cluster_of(records[0].id) is None

    def test_single_shard_config(self, access_dataset):
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(n_shards=1, batch_max_ops=20, train_rounds=1),
        )
        service.ingest(
            [add(record.id, record.payload) for record in access_dataset.records[:60]]
        )
        service.flush()
        assert service.num_objects() == 60
        assert all(gcid.startswith("s0:") for gcid in service.clusters())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_shards=0)
        with pytest.raises(ValueError):
            StreamConfig(train_rounds=0)

    def test_stats_report_oplog_size_and_per_shard_seq(
        self, access_dataset, access_events, tmp_path
    ):
        """The replication-facing gauges: oplog bytes on disk and the
        last applied seq per shard (what a replica's lag() reads)."""
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:100])
        service.flush()
        stats = service.stats()
        assert stats["oplog_bytes"] > 0
        assert stats["oplog_bytes"] == service.oplog.size_bytes()
        per_shard = [s["last_applied_seq"] for s in stats["shards"]]
        assert all(seq > 0 for seq in per_shard)
        # The last-filled shard saw the batch's final op; nobody saw more.
        assert max(per_shard) == stats["applied_seq"]
        service.close()

        # The gauges survive checkpoint + recovery.
        service = ClusteringService(factory, durable_config(tmp_path / "b"))
        service.ingest(access_events[:100])
        service.flush()
        service.checkpoint()
        service.close()
        recovered = ClusteringService.recover(factory, durable_config(tmp_path / "b"))
        assert [
            s["last_applied_seq"] for s in recovered.stats()["shards"]
        ] == per_shard
        recovered.close()

        # Ephemeral services report zero bytes rather than failing.
        ephemeral = ClusteringService(
            factory, StreamConfig(n_shards=2, batch_max_ops=40, train_rounds=2)
        )
        ephemeral.ingest(access_events[:50])
        assert ephemeral.stats()["oplog_bytes"] == 0


class TestCrashRecovery:
    def test_checkpoint_plus_replay_equals_uninterrupted(
        self, access_dataset, access_events, tmp_path
    ):
        """The acceptance-criteria invariant, over ≥5 rounds and 2 shards.

        Run A ingests the whole stream uninterrupted. Run B ingests a
        prefix, checkpoints mid-stream (which also compacts the oplog),
        ingests further, then "crashes" (the process state is dropped;
        only oplog + checkpoint survive). Recovery must land B on
        exactly A's memberships after the remaining events.
        """
        factory = make_factory(access_dataset)
        events = access_events
        assert len(events) > 400

        config_a = durable_config(tmp_path / "a")
        uninterrupted = ClusteringService(factory, config_a)
        uninterrupted.ingest(events)
        uninterrupted.flush()
        assert uninterrupted.stats()["batches_applied"] >= 5

        config_b = durable_config(tmp_path / "b")
        crashing = ClusteringService(factory, config_b)
        crashing.ingest(events[:150])
        crashing.checkpoint()
        # 215 is not a batch boundary: the tail of these events is
        # logged but unapplied at crash time and must survive via replay.
        crashing.ingest(events[150:215])
        crashing.close()
        del crashing

        recovered = ClusteringService.recover(factory, config_b)
        assert recovered.metrics.recoveries.value == 1
        recovered.ingest(events[215:])
        recovered.flush()

        assert recovered.partition() == uninterrupted.partition()
        assert (
            recovered.membership.live_ids() == uninterrupted.membership.live_ids()
        )
        assert recovered.applied_seq == uninterrupted.applied_seq
        # Per-object global ids agree too (same shard, same cluster sets).
        for obj_id in uninterrupted.membership.live_ids():
            assert recovered.members(
                recovered.cluster_of(obj_id)
            ) == uninterrupted.members(uninterrupted.cluster_of(obj_id))

    def test_recovery_from_log_only(self, access_dataset, access_events, tmp_path):
        """No checkpoint yet: recovery replays the whole log from scratch."""
        factory = make_factory(access_dataset)
        events = access_events[:250]

        config = durable_config(tmp_path)
        first = ClusteringService(factory, config)
        first.ingest(events)
        first.close()
        applied = first.applied_seq
        reference = first.partition()
        del first

        recovered = ClusteringService.recover(factory, config)
        assert recovered.applied_seq == applied
        assert recovered.partition() == reference

    def test_recovered_service_keeps_checkpointing(
        self, access_dataset, access_events, tmp_path
    ):
        """Recovery composes: checkpoint → crash → recover → checkpoint →
        crash → recover still matches the uninterrupted run."""
        factory = make_factory(access_dataset)
        events = access_events

        uninterrupted = ClusteringService(factory, durable_config(tmp_path / "a"))
        uninterrupted.ingest(events)
        uninterrupted.flush()

        config = durable_config(tmp_path / "b")
        service = ClusteringService(factory, config)
        service.ingest(events[:120])
        service.checkpoint()
        service.close()

        service = ClusteringService.recover(factory, config)
        service.ingest(events[120:260])
        service.checkpoint()
        service.close()

        service = ClusteringService.recover(factory, config)
        service.ingest(events[260:])
        service.flush()
        assert service.partition() == uninterrupted.partition()

    def test_mid_stream_flush_boundaries_survive_recovery(
        self, access_dataset, access_events, tmp_path
    ):
        """An explicit flush() cuts a round off the count grid; the WAL
        marker must make replay cut at the same place."""
        factory = make_factory(access_dataset)
        events = access_events[:300]

        def run(config, crash_after=None):
            service = ClusteringService(factory, config)
            service.ingest(events[:90])  # not a multiple of batch_max_ops
            service.flush()
            if crash_after == "flush":
                service.close()
                service = ClusteringService.recover(factory, config)
            service.ingest(events[90:])
            service.flush()
            return service

        reference = run(durable_config(tmp_path / "a"))
        recovered = run(durable_config(tmp_path / "b"), crash_after="flush")
        assert recovered.partition() == reference.partition()

    def test_flush_markers_cannot_be_ingested(self, access_dataset):
        from repro.stream.events import Operation

        service = ClusteringService(
            make_factory(access_dataset), StreamConfig(n_shards=1)
        )
        with pytest.raises(ValueError):
            service.ingest([Operation("flush", 0)])

    def test_older_checkpoint_stays_recoverable_after_compaction(
        self, access_dataset, access_events, tmp_path
    ):
        """Compaction must not strand retained checkpoints: corrupting
        the newest one falls back to the previous + a longer replay,
        even with compact_on_checkpoint enabled (the default)."""
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:150])
        service.checkpoint()
        service.ingest(access_events[150:280])
        service.checkpoint()
        service.ingest(access_events[280:])
        service.flush()
        reference = service.partition()
        service.close()

        newest = max(
            (tmp_path / "checkpoints").glob("checkpoint-*.json"),
            key=lambda p: int(p.stem.split("-")[1]),
        )
        newest.write_text('{"corrupt')
        recovered = ClusteringService.recover(factory, config)
        recovered.flush()
        assert recovered.partition() == reference

    def test_recovery_refuses_log_gap(self, access_dataset, access_events, tmp_path):
        """A log compacted past the only usable checkpoint must fail
        loudly instead of silently dropping operations."""
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:200])
        service.checkpoint()
        service.ingest(access_events[200:260])
        # Simulate an over-eager compaction losing ops the checkpoint
        # does not cover.
        for path in (tmp_path / "checkpoints").glob("checkpoint-*.json"):
            path.unlink()
        service.oplog.compact(upto_seq=120)
        service.close()
        with pytest.raises(RuntimeError, match="oplog gap"):
            ClusteringService.recover(factory, config)

    def test_checkpoint_only_recovery_keeps_sequence_monotonic(
        self, access_dataset, access_events, tmp_path
    ):
        """Recovering from a checkpoint whose oplog was lost must not
        re-issue sequence numbers: later checkpoints have to outrank the
        stale one or the *next* recovery silently rolls everything back."""
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:200])
        service.checkpoint()
        old_applied = service.applied_seq
        service.close()
        (tmp_path / "oplog.jsonl").unlink()  # the log is gone

        recovered = ClusteringService.recover(factory, config)
        assert recovered.applied_seq == old_applied
        recovered.ingest(access_events[200:280])
        recovered.flush()
        assert recovered.applied_seq > old_applied  # no seq reuse
        recovered.checkpoint()
        assert max(recovered.checkpoints.list_seqs()) == recovered.applied_seq
        reference = recovered.partition()
        recovered.close()

        # The fresh checkpoint (not the stale one) drives the next boot.
        again = ClusteringService.recover(factory, config)
        assert again.applied_seq == recovered.applied_seq
        assert again.partition() == reference

    def test_age_cut_boundaries_survive_recovery(
        self, access_dataset, access_events, tmp_path
    ):
        """Age-triggered round cuts land off the count grid; the WAL
        marker they leave must make replay cut at the same places."""
        factory = make_factory(access_dataset)
        events = access_events[:250]

        config = durable_config(tmp_path / "a", batch_max_age=0.0)
        reference = ClusteringService(factory, config)
        # max_age=0: every ingest call age-cuts whatever is pending, so
        # round boundaries follow the (irregular) ingest call sizes.
        for start in range(0, len(events), 17):
            reference.ingest(events[start : start + 17])
        reference.flush()
        # The cuts really were age-driven, not count-driven.
        assert reference.stats()["batches_applied"] > len(events) // 40

        config_b = durable_config(tmp_path / "b", batch_max_age=0.0)
        crashing = ClusteringService(factory, config_b)
        for start in range(0, 170, 17):
            crashing.ingest(events[start : start + 17])
        crashing.close()
        recovered = ClusteringService.recover(factory, config_b)
        for start in range(170, len(events), 17):
            recovered.ingest(events[start : start + 17])
        recovered.flush()
        assert recovered.partition() == reference.partition()

    def test_recovery_rejects_changed_batching_config(
        self, access_dataset, access_events, tmp_path
    ):
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:150])
        service.checkpoint()
        service.close()
        with pytest.raises(ValueError, match="batch_max_ops"):
            ClusteringService.recover(
                factory, durable_config(tmp_path, batch_max_ops=64)
            )
        with pytest.raises(ValueError, match="train_rounds"):
            ClusteringService.recover(
                factory, durable_config(tmp_path, train_rounds=5)
            )

    def test_replay_counts_events_ingested(
        self, access_dataset, access_events, tmp_path
    ):
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:200])
        service.close()
        recovered = ClusteringService.recover(factory, config)
        assert recovered.stats()["events_ingested"] == 200

    def test_skipped_round_still_counts_ignored_ops(self, access_dataset):
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(n_shards=1, batch_max_ops=4, train_rounds=1),
        )
        # Removes of never-seen ids fold to an empty round: no engine
        # work, but the drops must still show up in telemetry.
        service.ingest([remove(i) for i in range(4)])
        stats = service.stats()
        assert stats["shards"][0]["ops_ignored"] == 4
        assert stats["shards"][0]["rounds_observed"] == 0

    def test_checkpoint_requires_directory(self, access_dataset):
        service = ClusteringService(
            make_factory(access_dataset), StreamConfig(n_shards=1)
        )
        with pytest.raises(RuntimeError):
            service.checkpoint()

    def test_shard_count_mismatch_rejected(
        self, access_dataset, access_events, tmp_path
    ):
        factory = make_factory(access_dataset)
        config = durable_config(tmp_path)
        service = ClusteringService(factory, config)
        service.ingest(access_events[:150])
        service.checkpoint()
        service.close()
        with pytest.raises(ValueError):
            ClusteringService.recover(
                factory, durable_config(tmp_path, n_shards=4)
            )
