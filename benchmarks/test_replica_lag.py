"""Replica lag & catch-up — the `repro.replica` perf trajectory.

Not a paper figure: benchmarks the replication layer on the synthetic
Access workload so future scaling PRs (async shipping, parallel
replica apply, snapshot shipping) have numbers to beat. One tenant of
a durable ``repro.serve.Service`` ingests the stream in bursts; after
each burst we record how far its replicas have fallen behind (seq
delta) and how long one ``Service.sync()`` takes to catch them up,
plus end-to-end shipped-bytes accounting. Emits a table and
``benchmarks/results/replica_lag.json``.

Correctness is asserted only loosely here (partition equality at the
end — the hard invariants live in ``tests/test_replica.py``); absolute
timings are machine-dependent and deliberately not gated.

The run executes with telemetry ON (one shared recorder across the
tenant pool, shipper and replicas), so alongside the lag JSON it
uploads the full observability artefact set: ``replica_lag_metrics.json``
(the merged snapshot, span p50/p95/p99 included),
``replica_lag_metrics.prom`` (the recorder's typed, labeled Prometheus
exposition — the same text ``/metrics`` serves) and
``replica_lag_trace.json`` (Chrome trace — load at ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.eval import render_table
from repro.obs import Histogram, Telemetry, write_metrics_json
from repro.serve import Service

from conftest import RESULTS_DIR

N_REPLICAS = 2
BURSTS = 6
TENANT = "access"


def test_replica_lag(emit, tmp_path):
    dataset = generate_access(n_profiles=10, n_records=700, seed=9)
    workload = build_workload(
        dataset,
        initial_count=250,
        n_snapshots=8,
        mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
        seed=4,
    )
    events = workload.event_stream()

    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    telemetry = Telemetry()
    service = Service.open(
        engine_factory=factory,
        n_shards=2,
        batch_max_ops=64,
        train_rounds=2,
        root_dir=tmp_path / "state",
        telemetry=telemetry,
        max_segment_ops=256,
    )
    tenant = service.tenant(TENANT)
    replicas = [
        tenant.add_replica(name=f"replica-{index}") for index in range(N_REPLICAS)
    ]

    ingest_latency = Histogram()
    sync_latency = Histogram()
    rows = []
    burst_size = (len(events) + BURSTS - 1) // BURSTS
    for burst in range(BURSTS):
        chunk = events[burst * burst_size : (burst + 1) * burst_size]
        if not chunk:
            break
        ingest_start = time.perf_counter()
        tenant.ingest(chunk)
        ingest_s = time.perf_counter() - ingest_start
        ingest_latency.record(ingest_s)

        behind = max(s["behind"] for s in service.stats()["shipping"])
        sync_start = time.perf_counter()
        applied = sum(service.sync(heartbeat=True)["applied"].values())
        sync_s = time.perf_counter() - sync_start
        sync_latency.record(sync_s)
        rows.append(
            {
                "burst": burst,
                "ops": len(chunk),
                "ingest_s": ingest_s,
                "behind_before_sync": behind,
                "ops_applied_on_sync": applied,
                "sync_s": sync_s,
                "catchup_ops_per_s": applied / sync_s if sync_s > 0 else 0.0,
                "max_seq_delta_after": max(
                    replica.lag()["seq_delta"] for replica in replicas
                ),
                "max_visibility_lag_s_after": max(
                    replica.lag()["visibility_lag_s"]
                    for replica in replicas
                    if replica.lag()["visibility_lag_s"] is not None
                ),
            }
        )

    tenant.flush()
    service.sync(heartbeat=True)
    primary_partition = tenant.partition()
    for replica in replicas:
        assert replica.partition() == primary_partition
        assert replica.lag()["seq_delta"] == 0

    # Per-node e2e visibility percentiles (ingest → queryable on that
    # node: the tenant pool and each replica), straight from the shared
    # recorder.
    visibility = telemetry.snapshot()["metrics"]["e2e_visibility_seconds"]
    expected_nodes = {f"replica={service.config.node_name}:{TENANT}"} | {
        f"replica=replica-{index}" for index in range(N_REPLICAS)
    }
    assert set(visibility) == expected_nodes
    for node, hist in visibility.items():
        assert hist["count"] > 0 and hist["p99"] >= 0.0, node

    emit(
        render_table(
            ["burst", "ops", "behind", "applied", "sync s", "catchup ops/s"],
            [
                [
                    r["burst"],
                    r["ops"],
                    r["behind_before_sync"],
                    r["ops_applied_on_sync"],
                    r["sync_s"],
                    r["catchup_ops_per_s"],
                ]
                for r in rows
            ],
            title=(
                f"\n== repro.replica lag/catch-up on Access "
                f"({N_REPLICAS} replicas, single-threaded) =="
            ),
            precision=1,
        )
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "replica_lag.json", "w") as handle:
        json.dump(
            {
                "workload": "access",
                "n_replicas": N_REPLICAS,
                "events": len(events),
                "bursts": rows,
                "latency": {
                    "ingest": ingest_latency.snapshot(),
                    "sync": sync_latency.snapshot(),
                },
                # End-to-end freshness: per-node percentiles of the
                # primary-ingest→queryable-here histogram, plus the
                # final watermark trio each replica reports.
                "visibility": {
                    "e2e_visibility_seconds": visibility,
                    "watermarks": {
                        lag["name"]: {
                            "primary_watermark_ts": lag["primary_watermark_ts"],
                            "applied_watermark_ts": lag["applied_watermark_ts"],
                            "visibility_lag_s": lag["visibility_lag_s"],
                        }
                        for lag in (replica.lag() for replica in replicas)
                    },
                },
                "final": {
                    "primary_oplog_bytes": service.stats()["oplog"]["bytes"],
                    "clusters": len(primary_partition),
                    "shipping": service.stats()["shipping"],
                },
            },
            handle,
            indent=2,
        )
        handle.write("\n")

    # The observability artefact set for CI upload: one merged snapshot
    # (metrics + recent spans) over the whole tenant→shipper→replica
    # pipeline, the recorder's Prometheus exposition, and the Chrome
    # trace.
    merged = service.stats()
    write_metrics_json(RESULTS_DIR / "replica_lag_metrics.json", merged)
    (RESULTS_DIR / "replica_lag_metrics.prom").write_text(telemetry.to_prometheus())
    telemetry.write_chrome_trace(RESULTS_DIR / "replica_lag_trace.json")
    span_names = {
        name.split("=", 1)[1]
        for name in merged["telemetry"]["metrics"]["span_seconds"]
    }
    # The shared recorder really did see every pipeline stage.
    assert {"serve.ingest", "shard.apply", "ship.publish", "replica.poll"} <= span_names

    # Sanity floors only — the trajectory lives in the JSON artefact.
    assert all(r["catchup_ops_per_s"] > 0 for r in rows)
    assert all(r["max_seq_delta_after"] == 0 for r in rows)
    service.close()
