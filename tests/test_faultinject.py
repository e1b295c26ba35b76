"""Fault-injection tests: sweep a crash through every durability boundary.

Each scenario is run once uninjected to enumerate its crash points
(`FaultInjector` dry run), then re-run crashing before each point in
turn, asserting the published/stored state is never partially visible
— the systematic version of the ad-hoc "kill it mid-write" tests.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    ErrorInjector,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    sample_crash_points,
    tear_file,
)
from repro.replica import LogSegment, MailboxTransport, SnapshotArtifact
from repro.stream import add, open_checkpoints
from repro.stream.oplog import OperationLog


def snapshot_artifact(applied_seq=7):
    state = {"applied_seq": applied_seq, "n_shards": 1, "shards": ["stub"]}
    return SnapshotArtifact.from_state(state, primary_seq=9, shipped_at=1.0)


def segment(first=1, n=3):
    ops = tuple(add(100 + i, f"p{i}").with_seq(first + i) for i in range(n))
    return LogSegment(first, first + n - 1, ops, primary_seq=first + n - 1, shipped_at=1.0)


def crash_point_count(scenario) -> int:
    """Dry-run a scenario callable against a fresh env; returns op count."""
    with FaultInjector() as injector:
        scenario()
    return len(injector)


class TestPublishAtomicity:
    @pytest.mark.parametrize("make_artifact", [snapshot_artifact, segment])
    def test_crash_at_every_publish_point_leaves_nothing_visible(
        self, tmp_path, make_artifact
    ):
        artifact = make_artifact()
        total = crash_point_count(
            lambda: MailboxTransport(tmp_path / "dry").publish(artifact)
        )
        assert total >= 3  # temp fsync, rename, directory fsync
        for crash_at in range(1, total + 1):
            spool = tmp_path / f"crash-{crash_at}"
            transport = MailboxTransport(spool)
            with pytest.raises(InjectedCrash):
                with FaultInjector(crash_at=crash_at):
                    transport.publish(artifact)
            # All-or-nothing: before the rename nothing is visible;
            # after it the complete artifact is — a *partial* artifact
            # is never pollable at any crash point.
            reader = MailboxTransport(spool)
            assert reader.poll() in ([], [artifact])
            assert reader.quarantined == 0
            # The "restarted publisher" retries and the artifact arrives
            # complete — leftover temp files don't get in the way.
            MailboxTransport(spool).publish(artifact)
            assert MailboxTransport(spool).poll() == [artifact]

    def test_publish_trace_is_deterministic(self, tmp_path):
        traces = []
        for run in range(2):
            with FaultInjector() as injector:
                MailboxTransport(tmp_path / f"run-{run}").publish(segment())
            traces.append([kind for kind, _ in injector.trace])
        assert traces[0] == traces[1]

    def test_torn_mailbox_file_is_quarantined_not_fatal(self, tmp_path):
        spool = tmp_path / "mail"
        publisher = MailboxTransport(spool)
        good = segment(first=1)
        damaged = segment(first=4)
        publisher.publish(good)
        publisher.publish(damaged)
        (torn_path,) = [
            p for p in publisher.pending() if "000000000004" in p.name
        ]
        assert tear_file(torn_path, seed=7) > 0

        consumer = MailboxTransport(spool)
        assert consumer.poll() == [good]  # the damage is not fatal…
        assert consumer.quarantined == 1  # …and is set aside, with evidence:
        assert list(spool.glob("*.quarantined"))
        # A quarantined file is not re-read forever.
        assert consumer.poll() == []
        assert consumer.quarantined == 1

    def test_transient_read_errors_stop_the_drain_without_quarantining(
        self, tmp_path
    ):
        """Only proven damage is quarantined; an OSError on read (fd
        pressure, a lock on a synced spool) must leave the file pending
        for a later poll — and must stop the drain there, so later
        artifacts are neither delivered out of order nor deleted."""
        spool = tmp_path / "mail"
        publisher = MailboxTransport(spool)
        good = segment(first=1)
        behind = segment(first=11, n=2)
        publisher.publish(good)
        publisher.publish(behind)
        # A directory wearing a segment file's name: open() raises
        # IsADirectoryError (an OSError) even for root, unlike chmod.
        (spool / "segment-000000000009-000000000009.json").mkdir()
        consumer = MailboxTransport(spool)
        assert consumer.poll() == [good]  # stops at the unreadable file
        assert consumer.quarantined == 0
        assert [p.name for p in consumer.pending()] == [
            "segment-000000000009-000000000009.json",
            "segment-000000000011-000000000012.json",
        ]
        # Once the blip clears, the stream resumes in order.
        (spool / "segment-000000000009-000000000009.json").rmdir()
        assert consumer.poll() == [behind]

    def test_unlink_failure_does_not_lose_delivered_artifacts(
        self, tmp_path, monkeypatch
    ):
        """An OSError on consume-time unlink must not discard the drain:
        the artifact is delivered, the file stays, and the next poll's
        redelivery is dropped by the follower's duplicate handling."""
        import pathlib

        spool = tmp_path / "mail"
        good = segment(first=1)
        MailboxTransport(spool).publish(good)
        consumer = MailboxTransport(spool)
        with monkeypatch.context() as patched:
            patched.setattr(
                pathlib.Path,
                "unlink",
                lambda self, *a, **k: (_ for _ in ()).throw(OSError("locked")),
            )
            assert consumer.poll() == [good]
        # The blip cleared: the leftover file is redelivered, then gone.
        assert consumer.poll() == [good]
        assert consumer.poll() == []

    def test_tear_file_is_deterministic(self, tmp_path):
        kept = []
        for run in range(2):
            path = tmp_path / f"victim-{run}"
            path.write_bytes(b"x" * 100)
            kept.append(tear_file(path, seed=13))
        assert kept[0] == kept[1] and 0 < kept[0] < 100


class TestCheckpointSaveAtomicity:
    def test_crash_at_every_save_point_keeps_a_loadable_store(self, tmp_path):
        old_state = {"applied_seq": 5, "shards": ["old"]}
        new_state = {"applied_seq": 9, "shards": ["new"]}
        total = crash_point_count(
            lambda: open_checkpoints(tmp_path / "dry").save(dict(new_state))
        )
        assert total >= 3  # file fsync, rename, directory fsync
        for crash_at in range(1, total + 1):
            directory = tmp_path / f"crash-{crash_at}"
            store = open_checkpoints(directory)
            store.save(dict(old_state))
            with pytest.raises(InjectedCrash):
                with FaultInjector(crash_at=crash_at):
                    store.save(dict(new_state))
            # Whatever the crash point: the newest *readable* snapshot
            # is exactly the old or the new one, never garbage.
            recovered = open_checkpoints(directory).load_latest()
            assert recovered in (old_state, new_state)
            # The restarted process saves again and the new state wins.
            open_checkpoints(directory).save(dict(new_state))
            assert open_checkpoints(directory).load_latest() == new_state


class TestLogTruncateAtomicity:
    N_OPS = 20
    TRUNCATE_THROUGH = 10

    def _build_log(self, path) -> OperationLog:
        log = OperationLog(path)
        log.append([add(i, f"p{i}") for i in range(self.N_OPS)])
        return log

    def test_crash_at_every_truncate_point_leaves_log_usable(self, tmp_path):
        def dry():
            log = self._build_log(tmp_path / "dry.jsonl")
            log.truncate_through(self.TRUNCATE_THROUGH)
            log.close()

        total = crash_point_count(dry)
        assert total >= 3  # suffix fsync, rename, directory fsync
        for crash_at in range(1, total + 1):
            path = tmp_path / f"crash-{crash_at}.jsonl"
            log = self._build_log(path)
            with pytest.raises(InjectedCrash):
                with FaultInjector(crash_at=crash_at):
                    log.truncate_through(self.TRUNCATE_THROUGH)
            log.close()
            # The "restarted process" reopens whichever file survived:
            # the full log or the truncated suffix — contiguous either
            # way, with the tail position intact and appends working.
            reopened = OperationLog(path)
            seqs = [op.seq for op in reopened.iter_from(0)]
            assert seqs in (
                list(range(1, self.N_OPS + 1)),
                list(range(self.TRUNCATE_THROUGH + 1, self.N_OPS + 1)),
            )
            assert reopened.last_seq == self.N_OPS
            (appended,) = reopened.append([add(999, "post-crash")])
            assert appended.seq == self.N_OPS + 1
            reopened.close()


class TestSqliteTruncateAtomicity:
    """Exhaustive crash sweep of sqlite ``truncate_through``.

    The sqlite backend commits inside the C library, below every os-level
    boundary :class:`FaultInjector` can intercept — so this sweep drives
    the *named* boundaries (``fire()`` crossings) instead: a census run
    counts them, then one run per (boundary, crossing) crashes exactly
    there. Whatever the crash point, the reopened log must hold either
    the full history or the truncated suffix — contiguous either way,
    with ``last_seq`` intact and appends working.
    """

    N_OPS = 20
    TRUNCATE_THROUGH = 10

    def _build_log(self, path):
        from repro.stream import SqliteOperationLog

        log = SqliteOperationLog(path)
        log.append([add(i, f"p{i}") for i in range(self.N_OPS)])
        return log

    def test_crash_at_every_named_boundary_leaves_log_usable(self, tmp_path):
        from repro.stream import SqliteOperationLog

        log = self._build_log(tmp_path / "dry.sqlite")
        with ErrorInjector() as census:  # no specs: pure boundary census
            log.truncate_through(self.TRUNCATE_THROUGH)
        log.close()
        assert census.hits.get("oplog.compact", 0) >= 2  # DELETE + VACUUM legs
        assert census.hits.get("oplog.fsync", 0) >= 1  # the COMMIT

        full = list(range(1, self.N_OPS + 1))
        suffix = list(range(self.TRUNCATE_THROUGH + 1, self.N_OPS + 1))
        for boundary, crossings in sorted(census.hits.items()):
            for crash_at in range(1, crossings + 1):
                path = tmp_path / f"crash-{boundary}-{crash_at}.sqlite"
                log = self._build_log(path)
                with pytest.raises(InjectedCrash):
                    with ErrorInjector(FaultSpec(boundary, crash_at=crash_at)):
                        log.truncate_through(self.TRUNCATE_THROUGH)
                log.close()
                reopened = SqliteOperationLog(path)
                seqs = [op.seq for op in reopened.iter_from(0)]
                assert seqs in (full, suffix), (
                    f"{boundary} crash #{crash_at}: partially-truncated "
                    f"log visible after reopen: {seqs}"
                )
                # Truncation never moves the durable upper bound.
                assert reopened.last_seq == self.N_OPS
                (appended,) = reopened.append([add(999, "post-crash")])
                assert appended.seq == self.N_OPS + 1
                reopened.close()


class TestSharedOplogTearSweep:
    """Torn-tail sweep over the *tenant-stamped* shared oplog.

    The multi-tenant service funnels every tenant through one log; a
    torn tail there must heal on reopen, and each tenant's recovered
    membership must equal exactly the adds that survived in the healed
    log — no tenant may see a neighbour's ops or its own lost ones.
    """

    N_PER_TENANT = 12

    def _populate(self, root):
        from repro.serve import Service

        svc = Service.open(
            engine_factory=TestRoutedAssignmentRecovery._factory,
            n_shards=2,
            batch_max_ops=8,
            train_rounds=1,
            root_dir=root,
        )
        for i in range(self.N_PER_TENANT):
            svc.tenant("alpha").ingest([add(i, f"tok{i % 5} shared{i % 3}")])
            svc.tenant("bravo").ingest([add(100 + i, f"tok{i % 4} other{i % 2}")])
        # Simulated crash: abandon the service without close() — close
        # checkpoints, and a checkpoint would mask the log damage this
        # sweep exists to exercise. Only the log handle is released so
        # buffered lines reach the file the tear will bite.
        svc.manager.oplog.close()

    @staticmethod
    def _logged_adds(path):
        """id set per tenant actually present in the (healed) log."""
        from repro.stream.events import ADD

        log = OperationLog(path)
        try:
            by_tenant: dict = {}
            for op in log.iter_from(0):
                if op.kind == ADD:
                    by_tenant.setdefault(op.tenant, set()).add(op.obj_id)
            return by_tenant
        finally:
            log.close()

    def test_torn_shared_log_recovers_each_tenant_exactly(self, tmp_path):
        import shutil

        from repro.serve import Service

        pristine = tmp_path / "pristine"
        self._populate(pristine)
        losses = 0
        for seed in (3, 11, 19, 27):
            root = tmp_path / f"tear-{seed}"
            shutil.copytree(pristine, root)
            tear_file(root / "oplog.jsonl", seed=seed)
            # Reading heals the torn tail; what survived is the truth
            # every tenant's recovered state must reproduce.
            surviving = self._logged_adds(root / "oplog.jsonl")
            expected_total = sum(len(ids) for ids in surviving.values())
            if expected_total < 2 * self.N_PER_TENANT:
                losses += 1

            with Service.open(
                engine_factory=TestRoutedAssignmentRecovery._factory,
                n_shards=2,
                batch_max_ops=8,
                train_rounds=1,
                root_dir=root,
            ) as svc:
                for tenant in ("alpha", "bravo"):
                    handle = svc.tenant(tenant)
                    handle.flush()
                    live = set().union(*handle.clusters().values(), set())
                    assert live == surviving.get(tenant, set()), (
                        f"seed {seed}: tenant {tenant} recovered {sorted(live)}, "
                        f"healed log says {sorted(surviving.get(tenant, set()))}"
                    )
                # The healed service is a working service.
                assert svc.tenant("alpha").ingest([add(900, "post tear")]) == 1
        assert losses > 0  # the sweep tore real data somewhere


class TestHarness:
    def test_sample_crash_points_is_seeded_and_bounded(self):
        first = sample_crash_points(50, 10, seed=3)
        assert first == sample_crash_points(50, 10, seed=3)
        assert first != sample_crash_points(50, 10, seed=4)
        assert len(first) == 10 and all(1 <= p <= 50 for p in first)
        assert sample_crash_points(3, 10, seed=0) == [1, 2, 3]
        assert sample_crash_points(0, 5, seed=0) == []


class TestRoutedAssignmentRecovery:
    """Sweep a crash through the least-loaded (routed-assignment) oplog
    path: whatever survives, recovery must place every live object on
    exactly the shard its logged stamp names — and do so reproducibly."""

    N_SHARDS = 2

    def _config(self, base):
        from repro.stream import StreamConfig

        return StreamConfig(
            n_shards=self.N_SHARDS,
            batch_max_ops=8,
            train_rounds=1,
            router="least-loaded",
            oplog_path=base / "oplog.jsonl",
            checkpoint_dir=base / "ckpt",
            fsync=True,
        )

    @staticmethod
    def _factory():
        from repro.clustering.objectives import CorrelationObjective
        from repro.core import DynamicC
        from repro.similarity import JaccardSimilarity, SimilarityGraph

        return DynamicC(
            SimilarityGraph(JaccardSimilarity(), store_threshold=0.05),
            CorrelationObjective(),
            seed=0,
        )

    def _scenario(self, base):
        from repro.stream import ClusteringService, remove, update

        with ClusteringService(self._factory, self._config(base)) as service:
            for i in range(24):
                service.ingest([add(i, f"tok{i % 5} shared{i % 3}")])
            service.checkpoint()
            for i in range(8):
                service.ingest([update(i, f"tok{i % 4} changed")])
            for i in range(4):
                service.ingest([remove(i)])
            service.flush()
            service.checkpoint()

    @staticmethod
    def _stamped_placements(config):
        """Last logged shard stamp per id, net of removes (the truth the
        recovered membership must reproduce for every live id)."""
        from repro.stream import open_log
        from repro.stream.events import FLUSH, REMOVE

        log = open_log(config.oplog_path)
        try:
            stamped: dict[int, int] = {}
            for op in log.iter_from(0):
                if op.kind == FLUSH:
                    continue
                if op.kind == REMOVE:
                    stamped.pop(op.obj_id, None)
                elif op.shard is not None:
                    stamped[op.obj_id] = op.shard
            return stamped
        finally:
            log.close()

    def test_crash_sweep_preserves_routed_placement(self, tmp_path):
        from repro.stream import ClusteringService

        total = 0
        with FaultInjector() as injector:
            self._scenario(tmp_path / "dry")
        total = len(injector)
        assert total >= 10  # appends fsync + two checkpoint saves

        for crash_at in sample_crash_points(total, k=10, seed=29):
            base = tmp_path / f"crash-{crash_at}"
            with pytest.raises(InjectedCrash):
                with FaultInjector(crash_at=crash_at):
                    self._scenario(base)

            config = self._config(base)
            stamped = self._stamped_placements(config)
            recoveries = []
            for _ in range(2):
                with ClusteringService.recover(self._factory, config) as rec:
                    rec.flush()
                    live = rec.membership.live_ids()
                    # Every live object whose stamp survived compaction
                    # sits exactly where the stamp says (ids whose adds
                    # were compacted away are covered by the checkpoint
                    # and the reproducibility check below).
                    for obj_id in live & set(stamped):
                        assert rec.membership.shard_of(obj_id) == stamped[obj_id], (
                            f"crash@{crash_at}: object {obj_id} recovered onto "
                            f"shard {rec.membership.shard_of(obj_id)}, stamp says "
                            f"{stamped[obj_id]}"
                        )
                    recoveries.append((sorted(live), rec.partition()))
            assert recoveries[0] == recoveries[1]  # recovery is reproducible
