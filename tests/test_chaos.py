"""End-to-end chaos drills: seeded fault schedules against whole topologies.

Where ``test_faultinject.py`` sweeps single durability seams, these
drills run *scenarios* — a primary shipping to a durable follower, a
multi-tenant service with per-tenant checkpoint paths — under injected
crashes and I/O errors, and pin the operational story:

* **failover** — kill the primary at a swept crash point mid-burst,
  promote the surviving follower: no acknowledged operation is lost,
  and nothing unlogged at the promoted node is visible;
* **spool faults** — transient poll errors heal under the follower's
  retry policy; exhaustion degrades health without killing the daemon;
  a real replication gap flips ``/readyz`` until a resync heals it;
* **degraded serving** — one tenant's full disk (persistent ENOSPC on
  its checkpoint path) sheds that tenant's writes with a typed,
  retryable rejection while neighbours ingest on; a shared-oplog
  failure 503s ingest for everyone but reads keep serving — and both
  recover through probes once the fault lifts.

Every schedule is seeded; there is no timing dependence beyond the
(tiny, configurable) degraded-mode probe windows.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from repro.clustering.objectives import CorrelationObjective
from repro.core import DynamicC
from repro.errors import DegradedError
from repro.faults import (
    ErrorInjector,
    FaultInjector,
    InjectedCrash,
    RetryPolicy,
    eio,
    enospc,
    sample_crash_points,
)
from repro.replica import LogShipper, MailboxTransport, ReadReplica
from repro.replica.follower import FollowerDaemon
from repro.serve import Service
from repro.similarity import JaccardSimilarity, SimilarityGraph
from repro.stream import ClusteringService, StreamConfig, add
from repro.stream.events import ADD


def factory():
    return DynamicC(
        SimilarityGraph(JaccardSimilarity(), store_threshold=0.05),
        CorrelationObjective(),
        seed=0,
    )


CUT = dict(n_shards=2, batch_max_ops=8, train_rounds=1)


def op(i):
    return add(i, f"tok{i % 5} shared{i % 3}")


#: A quick retry policy for drills: real backoff structure, no real sleeps.
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.0, max_delay_s=0.0, seed=0, sleep=lambda s: None
)


# ---------------------------------------------------------------------------
# Drill 1: kill the primary mid-burst, promote the follower
# ---------------------------------------------------------------------------
class TestFailoverDrill:
    """Acknowledged-durability failover, as a deterministic crash sweep.

    The ack protocol under test: a batch is *acknowledged* only after
    the primary has appended it (fsync) and shipped it to the durable
    spool the follower tails. The primary process is then killed at
    every sampled filesystem-op crash point; the follower drains the
    spool and ``promote()``s. No acked op may be lost, and nothing may
    be visible at the promoted primary that is not in its durable log.
    """

    N_BATCHES = 6
    BATCH = 5

    def _primary_config(self, base) -> StreamConfig:
        return StreamConfig(
            **CUT,
            oplog_path=base / "primary" / "oplog.jsonl",
            checkpoint_dir=base / "primary" / "ckpt",
            fsync=True,
        )

    def _follower_config(self, base) -> StreamConfig:
        return StreamConfig(
            **CUT,
            oplog_path=base / "follower" / "oplog.jsonl",
            checkpoint_dir=base / "follower" / "ckpt",
        )

    def _burst(self, base, acked) -> None:
        """The primary process: ingest → ship → ack, batch by batch."""
        service = ClusteringService(factory, self._primary_config(base))
        try:
            shipper = LogShipper(service.oplog, snapshots=None, max_segment_ops=8)
            shipper.attach(MailboxTransport(base / "spool"), from_seq=0)
            for batch in range(self.N_BATCHES):
                service.ingest(
                    [op(batch * self.BATCH + i) for i in range(self.BATCH)]
                )
                shipper.ship(heartbeat=False)
                acked[0] = service.oplog.last_seq
            service.flush()
            shipper.ship(heartbeat=False)
            acked[0] = service.oplog.last_seq
        finally:
            service.close()

    def _promote_survivor(self, base):
        follower = ReadReplica.bootstrap(
            factory,
            self._follower_config(base),
            MailboxTransport(base / "spool"),
            name="heir",
        )
        follower.poll()
        # Read the durable log *before* promote(): promotion checkpoints,
        # and checkpointing compacts the replayed prefix away.
        logged = list(follower.service.oplog.iter_from(0))
        return follower.promote(), logged

    def test_no_acked_op_lost_no_unacked_op_visible(self, tmp_path):
        acked = [0]
        with FaultInjector() as injector:
            self._burst(tmp_path / "dry", acked)
        total = len(injector)
        full_ack = acked[0]
        assert total >= 20  # per-batch fsyncs plus 7 three-op publishes
        assert full_ack == self.N_BATCHES * self.BATCH + 1  # ops + flush marker

        for crash_at in sample_crash_points(total, k=8, seed=17):
            base = tmp_path / f"crash-{crash_at}"
            acked = [0]
            with pytest.raises(InjectedCrash):
                with FaultInjector(crash_at=crash_at):
                    self._burst(base, acked)

            promoted, logged = self._promote_survivor(base)
            try:
                seqs = [o.seq for o in logged]
                # The promoted log is a contiguous acked-covering prefix:
                # nothing acknowledged is missing, and nothing beyond the
                # shipped watermark leaked in.
                assert seqs == list(range(1, len(seqs) + 1))
                assert promoted.oplog.last_seq >= acked[0], (
                    f"crash@{crash_at}: acked through {acked[0]} but the "
                    f"promoted log ends at {promoted.oplog.last_seq}"
                )
                assert promoted.applied_seq <= promoted.oplog.last_seq
                # Visible state is exactly the durable log — an op the
                # dead primary logged but never shipped (unacked) cannot
                # appear, and every logged add is served.
                logged_adds = {o.obj_id for o in logged if o.kind == ADD}
                promoted.flush()
                assert promoted.membership.live_ids() == logged_adds
                # The promoted primary is a working primary.
                promoted.ingest([op(900 + crash_at)])
                promoted.flush()
                assert 900 + crash_at in promoted.membership.live_ids()
            finally:
                promoted.close()


# ---------------------------------------------------------------------------
# Drill 2: follower under spool faults — retry, degrade, gap + resync
# ---------------------------------------------------------------------------
class TestFollowerSpoolFaults:
    def _topology(self, tmp_path, daemon_kwargs=None):
        config = StreamConfig(
            **CUT,
            oplog_path=tmp_path / "primary" / "oplog.jsonl",
            checkpoint_dir=tmp_path / "primary" / "ckpt",
        )
        primary = ClusteringService(factory, config)
        shipper = LogShipper(
            primary.oplog,
            snapshots=primary.checkpoints.load_latest,
            max_segment_ops=8,
        )
        spool = tmp_path / "spool"
        uplink = MailboxTransport(spool)
        shipper.attach(uplink, from_seq=0)
        shipper.uplink = uplink  # the attached handle, for resync()
        daemon = FollowerDaemon(
            factory,
            StreamConfig(**CUT),
            spool,
            retry=FAST_RETRY,
            **(daemon_kwargs or {}),
        )
        return primary, shipper, daemon

    def test_transient_poll_errors_heal_inside_one_drain(self, tmp_path):
        primary, shipper, daemon = self._topology(tmp_path)
        try:
            primary.ingest([op(i) for i in range(8)])
            shipper.ship(heartbeat=False)
            with ErrorInjector(eio("ship.poll", fail_times=2)):
                applied = daemon.run_once()
            # Two injected failures fit inside the 3-attempt retry: the
            # drain succeeded, nothing was consumed by the failed tries.
            assert applied == 8
            assert daemon.poll_error is None and daemon.gap is None
            assert daemon.bootstrapped
            assert daemon.health.report()["ready"] is True
        finally:
            daemon.close()
            primary.close()

    def test_exhaustion_degrades_without_killing_the_daemon(self, tmp_path):
        primary, shipper, daemon = self._topology(tmp_path)
        try:
            primary.ingest([op(i) for i in range(8)])
            shipper.ship(heartbeat=False)
            daemon.run_once()  # bootstrap while healthy
            primary.ingest([op(100 + i) for i in range(8)])
            shipper.ship(heartbeat=False)

            with ErrorInjector(eio("ship.poll")) as injector:  # persistent
                assert daemon.run_once() == 0
                assert daemon.poll_error is not None
                report = daemon.health.report()
                # Stale but serving: degraded, not failing — a load
                # balancer keeps routing reads to consistent state.
                assert report["checks"]["spool"]["status"] == "degraded"
                assert report["ready"] is True
                assert daemon.replica.partition()  # reads still answer
                # Nothing was consumed while the spool was unreachable.
                assert len(daemon.transport.pending()) == 1

                injector.lift()
                assert daemon.run_once() == 8
            assert daemon.poll_error is None
            assert daemon.health.report()["checks"]["spool"]["status"] == "ok"
        finally:
            daemon.close()
            primary.close()

    def test_replication_gap_flips_readyz_until_resync(self, tmp_path):
        primary, shipper, daemon = self._topology(tmp_path)
        try:
            primary.ingest([op(i) for i in range(8)])
            shipper.ship(heartbeat=False)
            daemon.run_once()
            assert daemon.health.report()["ready"] is True

            # Lose a shipped segment from the spool (media damage, a
            # sync tool eating a file), then ship the next one.
            primary.ingest([op(100 + i) for i in range(8)])
            shipper.ship(heartbeat=False)
            (lost,) = daemon.transport.pending()
            lost.unlink()
            primary.ingest([op(200 + i) for i in range(8)])
            shipper.ship(heartbeat=False)

            assert daemon.run_once() == 0
            assert daemon.gap is not None
            report = daemon.health.report()
            assert report["checks"]["spool"]["status"] == "failing"
            assert report["ready"] is False  # stop routing reads here

            # Primary-side heal: snapshot, resync the transport, ship.
            primary.flush()
            primary.checkpoint()
            shipper.resync(shipper.uplink)
            shipper.ship(heartbeat=False)
            # A snapshot restore counts zero *ops*; success shows up as
            # the gap clearing and the cursor jumping to the snapshot.
            daemon.run_once()
            assert daemon.gap is None
            assert daemon.replica.received_seq >= 24
            assert daemon.health.report()["ready"] is True
            primary.flush()
            shipper.ship(heartbeat=False)
            daemon.run_once()
            assert daemon.replica.partition() == primary.partition()
        finally:
            daemon.close()
            primary.close()


# ---------------------------------------------------------------------------
# Drill 3: multi-tenant degraded serving under ENOSPC
# ---------------------------------------------------------------------------
def open_service(tmp_path, **kwargs):
    return Service.open(
        engine_factory=factory,
        **CUT,
        root_dir=tmp_path / "root",
        degraded_probe_s=0.05,
        degraded_probe_max_s=0.4,
        **kwargs,
    )


def await_recovery(check, deadline_s=5.0):
    """Poll until ``check()`` is true (probe windows are wall-clock)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if check():
            return True
        time.sleep(0.02)
    return False


class TestTenantIsolationUnderEnospc:
    def test_one_tenants_full_disk_does_not_take_down_neighbours(self, tmp_path):
        """Acceptance: persistent ENOSPC on one tenant's checkpoint path
        leaves other tenants ingesting; ``/readyz`` reports the affected
        check degraded and recovers once the fault is lifted."""
        with open_service(tmp_path) as svc:
            svc.tenant("alpha").ingest([op(i) for i in range(8)])
            svc.tenant("bravo").ingest([op(100 + i) for i in range(8)])

            sick_dir = "tenants/bravo/"
            with ErrorInjector(
                enospc("checkpoint.save", path_substring=sick_dir)
            ) as injector:
                with pytest.raises(DegradedError) as caught:
                    svc.tenant("bravo").checkpoint()
                assert caught.value.tenant == "bravo"
                assert caught.value.reason == "checkpoint.save"

                # Neighbours are untouched: ingest AND checkpoint flow.
                assert svc.tenant("alpha").ingest([op(20 + i) for i in range(4)]) == 4
                assert svc.tenant("alpha").checkpoint() is not None

                # The sick tenant's writes shed typed and retryable...
                with pytest.raises(DegradedError) as rejected:
                    svc.tenant("bravo").ingest([op(300)])
                assert rejected.value.tenant == "bravo"
                assert rejected.value.retry_after_s is not None
                # ...while its reads keep serving.
                assert svc.tenant("bravo").num_objects() == 8

                report = svc.health.report()
                assert report["checks"]["tenant:bravo:durability"]["status"] == "degraded"
                assert report["checks"]["tenant:alpha:durability"]["status"] == "ok"
                assert report["checks"]["durability"]["status"] == "ok"
                assert report["ready"] is True  # degraded ≠ down

                stats = svc.stats()
                assert stats["degraded_rejections_total"] >= 1
                assert stats["durability"]["tenants"]["bravo"]["state"] != "closed"

                injector.lift()
                # Recovery is probe-driven: /readyz scrapes double as
                # the re-test, no operator intervention needed.
                assert await_recovery(
                    lambda: svc.health.report()["checks"][
                        "tenant:bravo:durability"
                    ]["status"]
                    == "ok"
                )

            assert svc.tenant("bravo").ingest([op(301)]) == 1
            assert svc.tenant("bravo").checkpoint() is not None
            assert svc.health.report()["status"] == "ok"

    def test_shared_oplog_failure_sheds_all_writes_but_serves_reads(self, tmp_path):
        with open_service(tmp_path) as svc:
            svc.tenant("alpha").ingest([op(i) for i in range(8)])
            svc.tenant("alpha").flush()

            with ErrorInjector(enospc("oplog.append")) as injector:
                with pytest.raises(DegradedError) as caught:
                    svc.tenant("alpha").ingest([op(50)])
                assert caught.value.tenant is None  # the shared path is down
                assert caught.value.reason == "oplog.append"

                # The open breaker fast-fails every tenant without even
                # touching the log again — including first-touch ones.
                with pytest.raises(DegradedError):
                    svc.tenant("charlie").ingest([op(60)])

                # Reads serve throughout.
                assert svc.tenant("alpha").num_objects() == 8
                assert svc.tenant("alpha").partition()

                report = svc.health.report()
                assert report["checks"]["durability"]["status"] == "failing"
                assert report["ready"] is False  # ingest is down node-wide

                injector.lift()

                def recovered():
                    try:
                        return svc.tenant("alpha").ingest([op(51)]) == 1
                    except DegradedError:
                        return False

                # The half-open trial is the next real append.
                assert await_recovery(recovered)

            report = svc.health.report()
            assert report["checks"]["durability"]["status"] == "ok"
            assert report["ready"] is True
            assert svc.stats()["durability"]["oplog"]["state"] == "closed"

    def test_degraded_eviction_skips_the_sick_tenant(self, tmp_path):
        """LRU eviction under a sick checkpoint path parks a healthy
        neighbour instead, and never wedges the activation loop."""
        with open_service(tmp_path, max_resident_tenants=2) as svc:
            svc.tenant("alpha").ingest([op(i) for i in range(4)])
            svc.tenant("bravo").ingest([op(100 + i) for i in range(4)])
            with ErrorInjector(
                enospc("checkpoint.save", path_substring="tenants/alpha/")
            ):
                # Touch order makes alpha the LRU candidate; its path is
                # sick, so bravo (next LRU) is parked instead.
                svc.tenant("charlie").ingest([op(200)])
                resident = svc.manager.resident()
                assert "charlie" in resident
                assert "alpha" in resident  # unevictable, still resident
                assert "bravo" not in resident


def test_chaos_sweep_reports_one_record_per_cell(tmp_path, monkeypatch, capsys):
    """The sweep sums each cell over its rounds; a failure exits 1 with its seed."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "chaos_sweep.py"
    spec = importlib.util.spec_from_file_location("chaos_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def cell(name, check):
        def runner(budget, round_no):
            record = sweep.Cell(name, "oplog.append", "eio")
            record.case(f"seed{7 + 100 * round_no}", check)
            return record

        return runner

    out = tmp_path / "fault_matrix.json"
    matrix = [cell("ok", lambda: None), cell("bad", lambda: 1 / 0)]
    monkeypatch.setattr(sweep, "MATRIX", matrix)
    monkeypatch.setattr(sys, "argv", ["sweep", "--budget-s", "0.05", "--out", str(out)])
    assert sweep.main() == 1
    report = json.loads(out.read_text())
    ok, bad = report["cells"]
    assert (ok["cell"], bad["cell"]) == ("ok", "bad") and bad["rounds"] >= 2
    assert ok["cases"] == ok["passed"] == ok["rounds"]
    assert bad["cases"] == bad["failed"] == report["failed"] == bad["rounds"]
    failure = "seed7: ZeroDivisionError: division by zero"
    assert bad["first_failure"] == failure
    assert capsys.readouterr().err == f"[chaos] FAILED bad: {failure}\n"
