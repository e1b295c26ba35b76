"""Storage-backend contract tests: JSONL and sqlite logs/checkpoints.

The two implementations of `LogBackend` / `CheckpointStore` must be
interchangeable at the Operation level — same append/replay/compact
semantics, and crucially the same torn-tail healing after a crash
mid-append ("bit-for-bit" equality of the healed operation sequence).
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.stream import (
    ClusteringService,
    StreamConfig,
    add,
    open_checkpoints,
    open_log,
    remove,
    update,
)

BACKENDS = ("jsonl", "sqlite")


def log_path(tmp_path, backend):
    return tmp_path / f"oplog-{backend}.{'jsonl' if backend == 'jsonl' else 'sqlite'}"


def sample_ops(n):
    """A payload-diverse op mix (codec coverage rides along)."""
    ops = []
    for i in range(n):
        if i % 7 == 3:
            ops.append(update(i - 1, ("tuple", i)))
        elif i % 11 == 5:
            ops.append(remove(i - 2))
        else:
            ops.append(add(i, frozenset({f"tok{i}", f"tok{i + 1}"})))
    return ops


def tear_tail(path, backend):
    """Simulate a kill mid-append: damage the final durable record."""
    if backend == "jsonl":
        # Chop the last line in half — exactly what an interrupted
        # write(2) of the final record leaves behind.
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_bytes(b"".join(lines))
    else:
        # Same failure at the row level: the last record's JSON is cut
        # in half (a torn page / a writer that died mid-transaction
        # under a journal mode that couldn't roll back).
        conn = sqlite3.connect(str(path))
        (last_seq,) = conn.execute("SELECT MAX(seq) FROM oplog").fetchone()
        (record,) = conn.execute(
            "SELECT record FROM oplog WHERE seq = ?", (last_seq,)
        ).fetchone()
        conn.execute(
            "UPDATE oplog SET record = ? WHERE seq = ?",
            (record[: len(record) // 2], last_seq),
        )
        conn.commit()
        conn.close()


class TestLogBackendContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_append_iter_roundtrip(self, tmp_path, backend):
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            stamped = log.append(sample_ops(30))
            assert [op.seq for op in stamped] == list(range(1, 31))
            assert log.last_seq == 30
            replayed = list(log.iter_from())
            assert replayed == stamped
            # Seq-addressed suffix reads.
            assert [op.seq for op in log.iter_from(21)] == list(range(22, 31))
            assert log.size_bytes() > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_after_compaction_boundary(self, tmp_path, backend):
        """compact(upto) then replay(after_seq=upto) is gapless and exact."""
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            log.append(sample_ops(20))
            kept = log.compact(upto_seq=10)
            assert kept == 10
            # The boundary case the recovery path depends on: replaying
            # after exactly the compaction point sees the full suffix…
            assert [op.seq for op in log.iter_from(10)] == list(range(11, 21))
            # …and the prefix is really gone (a full replay starts at 11).
            assert [op.seq for op in log.iter_from()] == list(range(11, 21))
            # Appends continue the sequence across the compaction.
            (next_op,) = log.append([add(999, "after-compact")])
            assert next_op.seq == 21
        with open_log(log_path(tmp_path, backend), backend=backend) as reopened:
            assert reopened.last_seq == 21
            assert [op.seq for op in reopened.iter_from(10)] == list(
                range(11, 22)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compact_reclaims_disk(self, tmp_path, backend):
        """size_bytes (the oplog_bytes gauge) must drop after compaction
        on every backend, not sit at the high-water mark."""
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            log.append([add(i, f"payload-{i:06d}") for i in range(3000)])
            before = log.size_bytes()
            log.compact(upto_seq=2999)
            assert log.size_bytes() < before / 2
            # Still fully usable afterwards.
            (op,) = log.append([add(9999, "tail")])
            assert op.seq == 3001

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_append_stamped_requires_contiguity(self, tmp_path, backend):
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            stamped = log.append(sample_ops(5))
            follower = open_log(
                log_path(tmp_path, backend + "-follower"), backend=backend
            )
            assert follower.append_stamped(stamped[:3]) == 3
            with pytest.raises(ValueError, match="contiguity"):
                follower.append_stamped([stamped[4]])  # skips seq 4
            # The refused batch burned nothing.
            assert follower.last_seq == 3
            follower.append_stamped(stamped[3:])
            assert list(follower.iter_from()) == stamped
            follower.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iter_from_shares_healed_tail_bound(self, tmp_path, backend):
        path = log_path(tmp_path, backend)
        with open_log(path, backend=backend) as log:
            log.append(sample_ops(12))
        tear_tail(path, backend)
        with open_log(path, backend=backend) as healed:
            assert healed.last_seq == 11
            assert [op.seq for op in healed.iter_from(0)] == list(range(1, 12))
            # Healing is physical, not just a read-time filter: the next
            # append reuses the torn record's seq.
            (op,) = healed.append([add(500, "replacement")])
            assert op.seq == 12

    def test_sqlite_crash_semantics_match_jsonl(self, tmp_path):
        """Kill mid-append on both backends → identical healed Operations.

        The satellite acceptance check: after tearing the final record
        of each log, reopening must yield the same operation sequence
        bit-for-bit at the Operation level (same dict encodings, same
        seqs, same next assigned seq).
        """
        ops = sample_ops(25)
        logs = {}
        for backend in BACKENDS:
            path = log_path(tmp_path, backend)
            with open_log(path, backend=backend) as log:
                log.append(ops)
            tear_tail(path, backend)
            logs[backend] = open_log(path, backend=backend)
        jsonl, sqlite_log = logs["jsonl"], logs["sqlite"]
        assert jsonl.last_seq == sqlite_log.last_seq == 24
        jsonl_ops = list(jsonl.iter_from())
        sqlite_ops = list(sqlite_log.iter_from())
        assert jsonl_ops == sqlite_ops
        assert [op.to_dict() for op in jsonl_ops] == [
            op.to_dict() for op in sqlite_ops
        ]
        # Post-heal appends stay in lockstep too.
        assert jsonl.append([add(1000, "x")]) == sqlite_log.append([add(1000, "x")])
        for log in logs.values():
            log.close()

    def test_open_log_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="unknown log backend"):
            open_log(tmp_path / "x", backend="parquet")


class TestTruncateThroughBoundaries:
    """`truncate_through(T)`: iter_from, shipping catch-up, and crash
    recovery behave correctly at exactly T, one before, and one after —
    on both backends. These are the seams compaction can silently
    corrupt: one seq of slop either way is divergence, not staleness."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iter_from_around_the_truncation_seq(self, tmp_path, backend):
        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            log.append(sample_ops(40))
            report = log.truncate_through(20)
            assert report["truncated_through"] == 20
            assert report["kept_ops"] == 20
            assert report["log_bytes"] == log.size_bytes()
            assert log.bytes_reclaimed == report["reclaimed_bytes"]
            if backend == "jsonl":
                # Bytes come back immediately; sqlite pages may round.
                assert report["reclaimed_bytes"] > 0
            # Truncation drops history, never the tail position.
            assert log.last_seq == 40
            # At exactly T: the full surviving suffix. One after: one
            # fewer. One before: the dropped record does NOT reappear —
            # the stream starts at 21 and the *caller's* gap check owns
            # refusing it.
            assert [op.seq for op in log.iter_from(20)] == list(range(21, 41))
            assert [op.seq for op in log.iter_from(21)] == list(range(22, 41))
            assert next(iter(log.iter_from(19))).seq == 21
            # The reclaimed gauge accumulates across truncations.
            second = log.truncate_through(30)
            assert (
                log.bytes_reclaimed
                == report["reclaimed_bytes"] + second["reclaimed_bytes"]
            )
            assert [op.seq for op in log.iter_from(30)] == list(range(31, 41))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replica_catchup_around_the_truncation_seq(self, tmp_path, backend):
        from repro.replica import (
            InProcessTransport,
            LogShipper,
            ReplicationGap,
            SnapshotArtifact,
        )

        with open_log(log_path(tmp_path, backend), backend=backend) as log:
            log.append(sample_ops(40))
            log.truncate_through(20)
            # A follower holding exactly T (or past it) catches up from
            # segments alone…
            shipper = LogShipper(log, max_segment_ops=64)
            at_boundary, past_boundary = InProcessTransport(), InProcessTransport()
            shipper.attach(at_boundary, from_seq=20)
            shipper.attach(past_boundary, from_seq=21)
            shipper.ship()
            assert [(s.first_seq, s.last_seq) for s in at_boundary.poll()] == [
                (21, 40)
            ]
            assert [(s.first_seq, s.last_seq) for s in past_boundary.poll()] == [
                (22, 40)
            ]
            # …one before is unshippable: a hard refusal without a
            # snapshot source, a snapshot + suffix with one.
            strict = LogShipper(log)
            stranded = InProcessTransport()
            strict.attach(stranded, from_seq=19)
            with pytest.raises(ReplicationGap, match="compacted past follower"):
                strict.ship()
            healing = LogShipper(log, snapshots=lambda: {"applied_seq": 20})
            healed = InProcessTransport()
            healing.attach(healed, from_seq=19)
            healing.ship()
            artifacts = healed.poll()
            assert isinstance(artifacts[0], SnapshotArtifact)
            assert artifacts[0].applied_seq == 20
            assert (artifacts[1].first_seq, artifacts[-1].last_seq) == (21, 40)
            assert healing.stats()[0]["snapshots_shipped"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_recovery_around_the_truncation_seq(self, tmp_path, backend):
        dataset = generate_access(n_profiles=4, n_records=100, seed=5)
        events = build_workload(
            dataset,
            initial_count=40,
            n_snapshots=3,
            mixes=OperationMix(add=0.1, remove=0.02, update=0.02),
            seed=4,
        ).event_stream()

        def factory():
            return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

        config = StreamConfig(
            n_shards=2,
            batch_max_ops=16,
            train_rounds=2,
            oplog_path=tmp_path / "oplog",
            checkpoint_dir=tmp_path / "checkpoints",
            log_backend=backend,
            checkpoint_backend="json" if backend == "jsonl" else "sqlite",
            compact_on_checkpoint=False,  # truncations below are the test's
        )
        service = ClusteringService(factory, config)
        service.ingest(events[:-6])
        service.checkpoint()
        boundary = service.applied_seq
        service.ingest(events[-6:])  # logged suffix, pending past boundary
        assert service.oplog.last_seq >= boundary + 2
        live_partition = service.partition()
        service.close()

        # Truncating exactly through the checkpoint seq: recovery
        # replays the suffix and reproduces the pre-crash state.
        with open_log(config.oplog_path, backend=backend) as log:
            log.truncate_through(boundary)
        recovered = ClusteringService.recover(factory, config)
        assert recovered.applied_seq == boundary
        assert recovered.partition() == live_partition
        recovered.close()

        # One past it: the first op recovery needs is gone — a loud
        # gap, never a silent divergence.
        with open_log(config.oplog_path, backend=backend) as log:
            log.truncate_through(boundary + 1)
        with pytest.raises(RuntimeError, match="oplog gap"):
            ClusteringService.recover(factory, config)


class TestCheckpointStoreContract:
    @pytest.mark.parametrize("backend", ("json", "sqlite"))
    def test_save_load_prune(self, tmp_path, backend):
        store = open_checkpoints(tmp_path / backend, backend=backend, keep=2)
        for seq in (10, 25, 40):
            store.save({"applied_seq": seq, "marker": seq * 2})
        assert store.list_seqs() == [25, 40]
        assert store.load_latest()["marker"] == 80
        store.close()
        # A fresh handle sees the same durable state.
        reopened = open_checkpoints(tmp_path / backend, backend=backend, keep=2)
        assert reopened.load_latest()["applied_seq"] == 40
        reopened.close()

    @pytest.mark.parametrize("backend", ("json", "sqlite"))
    def test_corrupt_newest_snapshot_is_skipped(self, tmp_path, backend):
        store = open_checkpoints(tmp_path / backend, backend=backend, keep=3)
        store.save({"applied_seq": 10, "good": True})
        store.save({"applied_seq": 20, "good": True})
        store.close()
        if backend == "json":
            (tmp_path / backend / "checkpoint-20.json").write_text('{"corrupt')
        else:
            conn = sqlite3.connect(str(tmp_path / backend / "checkpoints.sqlite"))
            conn.execute(
                "UPDATE checkpoints SET state = ? WHERE applied_seq = 20",
                ('{"corrupt',),
            )
            conn.commit()
            conn.close()
        reopened = open_checkpoints(tmp_path / backend, backend=backend, keep=3)
        assert reopened.load_latest()["applied_seq"] == 10
        reopened.close()

    def test_open_checkpoints_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoint backend"):
            open_checkpoints(tmp_path, backend="zip")


class TestSqliteBackedService:
    """The crash-recovery invariant holds on sqlite storage, and the
    resulting state is backend-independent."""

    def test_config_validates_backends(self, tmp_path):
        with pytest.raises(ValueError, match="log_backend"):
            StreamConfig(log_backend="csv")
        with pytest.raises(ValueError, match="checkpoint_backend"):
            StreamConfig(checkpoint_backend="csv")

    def test_recovery_invariant_and_backend_independence(self, tmp_path):
        dataset = generate_access(n_profiles=6, n_records=240, seed=3)
        workload = build_workload(
            dataset,
            initial_count=80,
            n_snapshots=5,
            mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
            seed=2,
        )
        events = workload.event_stream()

        def factory():
            return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

        def config_for(root, log_backend, checkpoint_backend):
            return StreamConfig(
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                oplog_path=root / "oplog",
                checkpoint_dir=root / "checkpoints",
                log_backend=log_backend,
                checkpoint_backend=checkpoint_backend,
            )

        reference = ClusteringService(
            factory, config_for(tmp_path / "jsonl", "jsonl", "json")
        )
        reference.ingest(events)
        reference.flush()

        config = config_for(tmp_path / "sqlite", "sqlite", "sqlite")
        crashing = ClusteringService(factory, config)
        crashing.ingest(events[:100])
        crashing.checkpoint()  # snapshot + sqlite-side compaction
        crashing.ingest(events[100:130])  # logged, partially unapplied
        crashing.close()
        del crashing

        recovered = ClusteringService.recover(factory, config)
        recovered.ingest(events[130:])
        recovered.flush()

        assert recovered.partition() == reference.partition()
        assert recovered.membership.live_ids() == reference.membership.live_ids()
        assert recovered.applied_seq == reference.applied_seq
        recovered.close()
        reference.close()
