"""Tests for the live HTTP operational surface (`repro.obs.server`).

Covers the acceptance scrape: a replicated ``repro.serve.Service``
started with ``obs_server=`` must answer all five endpoints with
well-formed payloads; ``/readyz`` must flip to 503 when a health check
turns failing; servers must shut down cleanly with the service; and a
``FollowerDaemon`` must report ready only after it has bootstrapped
from the spool.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.obs import HealthRegistry, ObsServer, Telemetry, failing, ok, parse_listen
from repro.replica.follower import FollowerDaemon
from repro.replica.transport import MailboxTransport
from repro.serve import Service
from repro.stream import ClusteringService, StreamConfig

from test_obs import parse_prometheus


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


def get(address, path):
    """GET http://address/path → (status, headers, body bytes).

    Non-2xx answers are returned, not raised, so tests can assert on
    503 bodies the same way as on 200s.
    """
    try:
        with urllib.request.urlopen(f"http://{address}{path}", timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def get_json(address, path):
    status, _, body = get(address, path)
    return status, json.loads(body)


class TestParseListen:
    def test_host_port(self):
        assert parse_listen("127.0.0.1:9100") == ("127.0.0.1", 9100)

    def test_bare_port_binds_loopback(self):
        assert parse_listen("0") == ("127.0.0.1", 0)
        assert parse_listen("9100") == ("127.0.0.1", 9100)

    @pytest.mark.parametrize("bad", ["host:", "host:notaport", "host:70000", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_listen(bad)


class TestObsServerStandalone:
    def test_all_five_endpoints(self):
        telemetry = Telemetry()
        telemetry.counter("ops_total", help="ops").inc(3)
        with telemetry.span("work"):
            pass
        health = HealthRegistry()
        health.register("always", lambda: ok("fine"))
        with ObsServer("127.0.0.1:0", telemetry=telemetry, health=health) as server:
            server.start()
            address = server.address

            status, headers, body = get(address, "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            samples = parse_prometheus(body.decode())
            assert samples["repro_ops_total"][frozenset()] == 3.0

            status, snapshot = get_json(address, "/metrics.json")
            assert status == 200
            assert snapshot["metrics"]["ops_total"] == 3

            status, trace = get_json(address, "/traces")
            assert status == 200
            assert {e["name"] for e in trace["traceEvents"]} >= {"work"}

            status, alive = get_json(address, "/healthz")
            assert status == 200 and alive == {"status": "alive"}

            status, report = get_json(address, "/readyz")
            assert status == 200
            assert report["status"] == "ok" and report["ready"] is True
            assert report["checks"]["always"]["detail"] == "fine"

    def test_unknown_path_404(self):
        with ObsServer("127.0.0.1:0") as server:
            server.start()
            status, body = get_json(server.address, "/nope")
            assert status == 404 and "error" in body

    def test_readyz_503_on_failing_check(self):
        health = HealthRegistry()
        health.register("db", lambda: failing("disk full"))
        with ObsServer("127.0.0.1:0", health=health) as server:
            server.start()
            status, report = get_json(server.address, "/readyz")
            assert status == 503
            assert report["status"] == "failing" and report["ready"] is False

    def test_healthz_stays_200_while_readyz_fails(self):
        # Liveness and readiness are different questions: a failing
        # check must not make the orchestrator restart the process.
        health = HealthRegistry()
        health.register("db", lambda: failing("disk full"))
        with ObsServer("127.0.0.1:0", health=health) as server:
            server.start()
            assert get(server.address, "/healthz")[0] == 200
            assert get(server.address, "/readyz")[0] == 503

    def test_close_is_idempotent_and_frees_port(self):
        server = ObsServer("127.0.0.1:0").start()
        host, port = server.address.rsplit(":", 1)
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=2)
        # The port is actually released: a new server can bind it.
        rebound = ObsServer(f"{host}:{port}").start()
        assert get(rebound.address, "/healthz")[0] == 200
        rebound.close()


class TestServiceSurface:
    def test_single_service_scrape(self, dataset, events, tmp_path):
        service = ClusteringService(
            make_factory(dataset),
            StreamConfig(
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                oplog_path=tmp_path / "oplog.jsonl",
                telemetry="on",
                obs_server="127.0.0.1:0",
            ),
        )
        try:
            service.ingest(events[:160])
            service.flush()
            address = service.obs_address
            samples = parse_prometheus(get(address, "/metrics")[2].decode())
            visibility = samples["repro_e2e_visibility_seconds"]
            assert any(
                dict(key).get("replica") == "primary" for key in visibility
            ), "visibility quantiles missing primary label"
            assert samples["repro_commit_watermark_ts"]
            assert samples["repro_applied_watermark_ts"]
            status, report = get_json(address, "/readyz")
            assert status == 200
            assert set(report["checks"]) == {"backlog", "checkpoints", "oplog"}
        finally:
            service.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"http://{address}/healthz", timeout=2)

    def test_replicated_topology_acceptance_scrape(self, dataset, events, tmp_path):
        """The acceptance test: every endpoint live on a replicated
        Service, per-replica visibility quantiles present."""
        topology = Service.open(
            engine_factory=make_factory(dataset),
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            root_dir=tmp_path / "state",
            telemetry="on",
            obs_server="127.0.0.1:0",
        )
        try:
            tenant = topology.tenant("t")
            tenant.add_replica(name="r0")
            tenant.ingest(events[:200])
            tenant.flush()
            topology.sync()
            address = topology.obs_address

            status, headers, body = get(address, "/metrics")
            assert status == 200
            samples = parse_prometheus(body.decode())
            replicas = {
                dict(key).get("replica")
                for key in samples["repro_e2e_visibility_seconds"]
            }
            assert replicas >= {"serve:t", "r0"}  # the tenant pool and its replica
            assert samples["repro_commit_watermark_ts"]
            assert samples["repro_applied_watermark_ts"]

            status, snapshot = get_json(address, "/metrics.json")
            assert status == 200 and "metrics" in snapshot

            status, trace = get_json(address, "/traces")
            assert status == 200
            tids = {e["args"].get("node") for e in trace["traceEvents"] if e.get("ph") == "X"}

            status, _, _ = get(address, "/healthz")
            assert status == 200

            status, report = get_json(address, "/readyz")
            assert status == 200
            assert "replica:r0" in report["checks"]
            assert report["checks"]["replica:r0"]["status"] == "ok"
            lag_data = report["checks"]["replica:r0"]["data"]
            assert lag_data["seq_delta"] == 0
            assert lag_data["visibility_lag_s"] is not None
        finally:
            topology.close()

    def test_forced_degraded_flips_readyz(self, dataset, events, tmp_path):
        service = ClusteringService(
            make_factory(dataset),
            StreamConfig(
                n_shards=2,
                batch_max_ops=32,
                train_rounds=2,
                oplog_path=tmp_path / "oplog.jsonl",
                obs_server="127.0.0.1:0",
            ),
        )
        try:
            service.ingest(events[:80])
            address = service.obs_address
            assert get(address, "/readyz")[0] == 200
            # Force the oplog probe to fail by yanking its handle —
            # the storage equivalent of a full/detached disk.
            service.oplog._handle.close()
            status, report = get_json(address, "/readyz")
            assert status == 503
            assert report["checks"]["oplog"]["status"] == "failing"
            # Liveness is unaffected.
            assert get(address, "/healthz")[0] == 200
        finally:
            service.obs_server.close()
            service.batcher._pending.clear()  # nothing flushable onto a dead log


class TestFollowerDaemon:
    def make_primary(self, dataset, tmp_path, spool):
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            oplog_path=tmp_path / "primary-oplog.jsonl",
            checkpoint_dir=tmp_path / "primary-ckpt",
        )
        primary = ClusteringService(make_factory(dataset), config)
        from repro.replica import LogShipper

        shipper = LogShipper(
            primary.oplog, snapshots=primary.checkpoints.load_latest
        )
        transport = MailboxTransport(spool)
        shipper.attach(transport)
        return primary, shipper, transport

    def follower_config(self, tmp_path):
        return StreamConfig(n_shards=2, batch_max_ops=32, train_rounds=2)

    def test_ready_only_after_bootstrap(self, dataset, events, tmp_path):
        spool = tmp_path / "spool"
        primary, shipper, _ = self.make_primary(dataset, tmp_path, spool)
        primary.ingest(events[:120])
        primary.flush()
        primary.checkpoint()
        shipper.ship()

        daemon = FollowerDaemon(
            make_factory(dataset),
            self.follower_config(tmp_path),
            spool,
            name="f1",
            listen="127.0.0.1:0",
        )
        try:
            address = daemon.obs_address
            # Before the first poll: alive, but gated out of the pool.
            assert get(address, "/healthz")[0] == 200
            status, report = get_json(address, "/readyz")
            assert status == 503
            assert report["gated"] is True and report["ready"] is False

            assert daemon.run_once() > 0
            assert daemon.bootstrapped

            status, report = get_json(address, "/readyz")
            assert status == 200
            assert report["gated"] is False and report["ready"] is True
            assert set(report["checks"]) >= {"spool", "service"}

            # The follower converged to the primary's partition.
            assert daemon.replica.service.partition() == primary.partition()
        finally:
            daemon.close()
            primary.close()

    def test_heartbeat_alone_opens_the_gate(self, dataset, tmp_path):
        # A live-but-idle primary still counts as bootstrapped: the
        # follower has proof of a primary and an (empty) state to serve.
        spool = tmp_path / "spool"
        primary, shipper, _ = self.make_primary(dataset, tmp_path, spool)
        shipper.ship(heartbeat=True)
        daemon = FollowerDaemon(
            make_factory(dataset), self.follower_config(tmp_path), spool, name="f1"
        )
        try:
            assert not daemon.bootstrapped
            daemon.run_once()
            assert daemon.bootstrapped
        finally:
            daemon.close()
            primary.close()

    def test_gap_flips_spool_check_failing_but_keeps_serving(
        self, dataset, events, tmp_path
    ):
        spool = tmp_path / "spool"
        primary, shipper, transport = self.make_primary(dataset, tmp_path, spool)
        primary.ingest(events[:120])
        primary.flush()
        primary.checkpoint()
        shipper.ship()

        daemon = FollowerDaemon(
            make_factory(dataset), self.follower_config(tmp_path), spool, name="f1"
        )
        try:
            daemon.run_once()
            assert daemon.bootstrapped and daemon.gap is None
            before = daemon.replica.service.partition()

            # Ship a segment the follower can't connect to (a hole).
            from repro.replica.segment import LogSegment
            from repro.stream import add

            hole = tuple(
                add(9000 + i, "px").with_seq(10_000 + i) for i in range(3)
            )
            MailboxTransport(spool).publish(
                LogSegment(10_000, 10_002, hole, primary_seq=10_002, shipped_at=1.0)
            )
            assert daemon.run_once() == 0
            assert daemon.gap is not None
            report = daemon.health.report()
            assert report["status"] == "failing" and report["ready"] is False
            assert report["checks"]["spool"]["status"] == "failing"
            # Stale but consistent state keeps serving.
            assert daemon.replica.service.partition() == before

            # A primary-side resync heals it (the shipper addresses its
            # own attached transport; both point at the same spool).
            shipper.resync(transport)
            daemon.run_once()
            assert daemon.gap is None
            assert daemon.health.report()["ready"] is True
        finally:
            daemon.close()
            primary.close()

    def test_main_max_polls_runs_and_exits(self, dataset, events, tmp_path, capsys):
        # The CLI end-to-end with the built-in demo factory: the primary
        # side must use the *same* factory for states to line up.
        from repro.replica.follower import demo_factory, main

        spool = tmp_path / "spool"
        config = StreamConfig(
            n_shards=2,
            batch_max_ops=256,
            train_rounds=3,
            oplog_path=tmp_path / "primary-oplog.jsonl",
            checkpoint_dir=tmp_path / "primary-ckpt",
        )
        primary = ClusteringService(demo_factory, config)
        from repro.data.workload import OperationMix, build_workload
        from repro.replica import LogShipper

        demo_dataset = generate_access(n_profiles=8, n_records=500, seed=3)
        workload = build_workload(
            demo_dataset,
            initial_count=60,
            n_snapshots=3,
            mixes=OperationMix(add=0.1),
            seed=2,
        )
        primary.ingest(workload.event_stream()[:100])
        primary.flush()
        primary.checkpoint()
        shipper = LogShipper(primary.oplog, snapshots=primary.checkpoints.load_latest)
        shipper.attach(MailboxTransport(spool))
        shipper.ship()
        primary.close()

        code = main(
            [
                "--spool",
                str(spool),
                "--name",
                "cli-follower",
                "--max-polls",
                "2",
                "--poll-interval",
                "0.01",
                "--batch-max-ops",
                "256",
                "--train-rounds",
                "3",
                "--quiet",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "cli-follower" in err and "endpoints at http://" in err

    def test_load_factory_errors_are_actionable(self):
        from repro.replica.follower import load_factory

        with pytest.raises(SystemExit, match="cannot import"):
            load_factory("no.such.module:factory")
        with pytest.raises(SystemExit, match="no attribute"):
            load_factory("json:nope")
        with pytest.raises(SystemExit, match="module:attr"):
            load_factory("bare")
