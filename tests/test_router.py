"""Routing tests: least-loaded assignment, stamped-placement replay,
and the recovery/replica guarantee that stamped operations land on the
same shard everywhere."""

from __future__ import annotations

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.stream import (
    ClusteringService,
    LeastLoadedRouter,
    Operation,
    StreamConfig,
    add,
    make_router,
    remove,
    update,
)
from repro.stream.router import HashRouter, stable_hash


@pytest.fixture(scope="module")
def access_dataset():
    return generate_access(n_profiles=6, n_records=260, seed=7)


@pytest.fixture(scope="module")
def access_events(access_dataset):
    workload = build_workload(
        access_dataset,
        initial_count=90,
        n_snapshots=6,
        mixes=OperationMix(add=0.15, remove=0.05, update=0.04),
        seed=5,
    )
    return workload.event_stream()


def make_factory(dataset):
    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    return factory


def placements(service) -> dict[int, int]:
    return {
        obj_id: service.membership.shard_of(obj_id)
        for obj_id in service.membership.live_ids()
    }


class TestOperationShardStamp:
    def test_shard_survives_dict_roundtrip(self):
        op = add(7, "payload").with_shard(3).with_seq(12)
        assert op.shard == 3 and op.seq == 12
        again = Operation.from_dict(op.to_dict())
        assert again == op

    def test_unstamped_roundtrip_stays_unstamped(self):
        op = add(7, "payload").with_seq(1)
        data = op.to_dict()
        assert "shard" not in data
        assert Operation.from_dict(data).shard is None


class TestLeastLoadedRouter:
    def test_new_objects_go_to_lightest(self):
        router = LeastLoadedRouter(3)
        stamped = router.assign([add(i, "p") for i in range(6)])
        assert [op.shard for op in stamped] == [0, 1, 2, 0, 1, 2]
        assert router.loads() == [2, 2, 2]

    def test_chunked_placement_blocks(self):
        router = LeastLoadedRouter(2, chunk=3)
        stamped = router.assign([add(i, "p") for i in range(7)])
        assert [op.shard for op in stamped] == [0, 0, 0, 1, 1, 1, 0]

    def test_assignment_is_sticky_across_updates_and_readds(self):
        router = LeastLoadedRouter(2)
        (first,) = router.assign([add(1, "p")])
        router.assign([add(2, "p"), add(3, "p")])
        (upd,) = router.assign([update(1, "p2")])
        assert upd.shard == first.shard
        (rem,) = router.assign([remove(1)])
        assert rem.shard == first.shard
        # Load freed by the remove, but placement memory survives.
        (readd,) = router.assign([add(1, "p3")])
        assert readd.shard == first.shard

    def test_remove_frees_load(self):
        router = LeastLoadedRouter(2)
        router.assign([add(1, "p"), add(2, "p"), add(3, "p")])
        assert sorted(router.loads()) == [1, 2]
        router.assign([remove(1)])
        assert sorted(router.loads()) == [1, 1]

    def test_unknown_remove_is_hash_stamped(self):
        router = LeastLoadedRouter(4)
        (rem,) = router.assign([remove(99)])
        assert rem.shard == stable_hash(99) % 4
        assert router.loads() == [0, 0, 0, 0]

    def test_partition_honours_stamp_over_hash(self):
        router = LeastLoadedRouter(2)
        stamped = add(5, "p").with_shard(1)
        unstamped = add(6, "q")
        parts = router.partition([stamped, unstamped])
        assert stamped in parts[1]
        assert unstamped in parts[stable_hash(6) % 2]

    def test_observe_rebuilds_load_state(self):
        primary = LeastLoadedRouter(2)
        stamped = primary.assign([add(i, "p") for i in range(5)])
        follower = LeastLoadedRouter(2)
        for op in stamped:
            follower.observe(op)
        assert follower.loads() == primary.loads()
        assert all(
            follower.shard_of(op.obj_id) == primary.shard_of(op.obj_id)
            for op in stamped
        )

    def test_hash_router_stamps_nothing(self):
        router = HashRouter(2)
        ops = router.assign([add(1, "p")])
        assert ops[0].shard is None

    def test_make_router_validates(self):
        with pytest.raises(ValueError):
            make_router("round-robin", 2)
        with pytest.raises(ValueError):
            LeastLoadedRouter(2, chunk=0)


class TestServiceWithLeastLoaded:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(router="weighted")

    def test_balanced_ingest_and_queries(self, access_dataset, access_events):
        service = ClusteringService(
            make_factory(access_dataset),
            StreamConfig(
                n_shards=2, batch_max_ops=32, train_rounds=2, router="least-loaded"
            ),
        )
        service.ingest(access_events)
        service.flush()
        stats = service.stats()
        assert stats["router"] == "least-loaded"
        per_shard = [shard["objects"] for shard in stats["shards"]]
        # Balanced to within one placement chunk.
        assert abs(per_shard[0] - per_shard[1]) <= 32
        for obj_id in service.membership.live_ids():
            gcid = service.cluster_of(obj_id)
            assert gcid is not None and obj_id in service.members(gcid)

    def test_recovery_replays_identical_placement(
        self, access_dataset, access_events, tmp_path
    ):
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            router="least-loaded",
            oplog_path=tmp_path / "oplog.jsonl",
            checkpoint_dir=tmp_path / "ckpt",
        )
        factory = make_factory(access_dataset)
        with ClusteringService(factory, config) as service:
            half = len(access_events) // 2
            service.ingest(access_events[:half])
            service.checkpoint()
            service.ingest(access_events[half:])
            service.flush()
            reference = placements(service)
            reference_partition = service.partition()

        with ClusteringService.recover(factory, config) as recovered:
            recovered.flush()
            assert placements(recovered) == reference
            assert recovered.partition() == reference_partition

    def test_router_downgrade_refused_at_ingest(
        self, access_dataset, access_events, tmp_path
    ):
        """Recovering stamped state with a hash config is legal (that is
        what a read replica of a least-loaded primary does) — but the
        first *ingest* through the stateless router must refuse, or new
        operations for placed objects would drift to the wrong shard."""
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            router="least-loaded",
            oplog_path=tmp_path / "oplog.jsonl",
            checkpoint_dir=tmp_path / "ckpt",
        )
        factory = make_factory(access_dataset)
        with ClusteringService(factory, config) as service:
            service.ingest(access_events[:64])
            service.checkpoint()
            reference = placements(service)
        hash_config = StreamConfig(
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            router="hash",
            oplog_path=tmp_path / "oplog.jsonl",
            checkpoint_dir=tmp_path / "ckpt",
        )
        with ClusteringService.recover(factory, hash_config) as recovered:
            recovered.flush()
            # Reads over stamped state are fine — placement follows stamps.
            assert placements(recovered) == reference
            # Writes through the stateless router are not.
            with pytest.raises(RuntimeError, match="stamped"):
                recovered.ingest([update(next(iter(reference)), [0.1, 0.2])])

    def test_stamped_flag_survives_checkpoint_of_hash_configured_follower(
        self, access_dataset, access_events, tmp_path
    ):
        """A hash-configured service that *applied* stamped operations
        (the follower-of-a-least-loaded-primary shape) must itself
        refuse later hash ingest — even after its own checkpoint, which
        records router='hash'."""
        ll_config = StreamConfig(
            n_shards=2,
            batch_max_ops=16,
            train_rounds=1,
            router="least-loaded",
            oplog_path=tmp_path / "primary.jsonl",
        )
        factory = make_factory(access_dataset)
        with ClusteringService(factory, ll_config) as primary:
            primary.ingest(access_events[:48])
            primary.flush()
            stamped_ops = list(primary.oplog.iter_from(0))

        follower_config = StreamConfig(
            n_shards=2,
            batch_max_ops=16,
            train_rounds=1,
            router="hash",
            checkpoint_dir=tmp_path / "follower-ckpt",
        )
        follower = ClusteringService(factory, follower_config)
        follower.apply_logged(stamped_ops, expect_after=0)
        follower.flush()
        assert follower.placements_stamped
        follower.checkpoint()
        follower.close()

        with ClusteringService.recover(factory, follower_config) as promoted:
            assert promoted.placements_stamped
            with pytest.raises(RuntimeError, match="stamped"):
                promoted.ingest([add(999_001, [0.3, 0.4])])

    def test_post_recovery_ingest_respects_learned_placement(
        self, access_dataset, tmp_path
    ):
        """After recovery the router must know live placements — a new
        update for a checkpointed object may not drift to another shard."""
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=8,
            train_rounds=1,
            router="least-loaded",
            oplog_path=tmp_path / "oplog.jsonl",
            checkpoint_dir=tmp_path / "ckpt",
        )
        factory = make_factory(access_dataset)
        payload = [0.5, 0.5]
        with ClusteringService(factory, config) as service:
            service.ingest([add(i, payload) for i in range(16)])
            service.flush()
            before = placements(service)
            service.checkpoint()

        with ClusteringService.recover(factory, config) as recovered:
            recovered.ingest([update(i, [0.6, 0.6]) for i in range(16)])
            recovered.flush()
            assert placements(recovered) == before
