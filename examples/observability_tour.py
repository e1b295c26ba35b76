"""A tour of `repro.obs`: one recorder, every layer, two artifacts.

Runs a replicated ``repro.serve.Service`` (one durable tenant, two read
replicas) with telemetry on, then walks what a single shared recorder
collected: span latency percentiles per pipeline stage, component
registries, replica freshness, the Prometheus exposition, and a Chrome
trace (load ``trace.json`` at ``chrome://tracing`` or ui.perfetto.dev —
service and replica activity land on separate rows):

    python examples/observability_tour.py

Artifacts are written next to this script's temp state dir and their
paths printed at the end.
"""

import pathlib
import tempfile

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.obs import Telemetry, write_metrics_json
from repro.serve import Service

# ---------------------------------------------------------------------------
# 1. One Telemetry instance, threaded through the whole topology.
#    telemetry="on" would also work; passing the *instance* lets the
#    caller keep a handle on the one collection point that tenant
#    pools, shipper and replicas all report into.
# ---------------------------------------------------------------------------
telemetry = Telemetry()

dataset = generate_access(n_profiles=8, n_records=500, seed=3)
workload = build_workload(
    dataset,
    initial_count=150,
    n_snapshots=8,
    mixes=OperationMix(add=0.14, remove=0.03, update=0.04),
    seed=2,
)
events = workload.event_stream()

def factory():
    return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-obs-"))
service = Service.open(
    engine_factory=factory,
    n_shards=2,
    batch_max_ops=48,
    train_rounds=2,
    root_dir=state_dir / "state",
    fsync=True,  # so the trace shows where durability is paid
    telemetry=telemetry,
)
tenant = service.tenant("access")
replicas = [tenant.add_replica(name=f"replica-{index}") for index in range(2)]

# ---------------------------------------------------------------------------
# 2. Drive the pipeline: burst ingest, replica catch-up, a checkpoint.
#    Every stage traces itself — nothing here mentions telemetry again.
# ---------------------------------------------------------------------------
burst = len(events) // 4
for start in range(0, len(events), burst):
    tenant.ingest(events[start : start + burst])
    service.sync()
tenant.flush()
service.sync()
tenant.checkpoint()
print(f"ran {len(events)} events through one tenant + 2 replicas\n")

# ---------------------------------------------------------------------------
# 3. What the recorder saw: per-stage latency percentiles, free with
#    every span site. span_seconds is a labeled histogram family — one
#    streaming p50/p95/p99 series per instrumented code path.
# ---------------------------------------------------------------------------
merged = service.stats()  # tenants + shipper + replicas, one snapshot
families = merged["telemetry"]["metrics"]["span_seconds"]
print(f"{'span':<24}{'count':>7}{'p50 ms':>10}{'p95 ms':>10}{'p99 ms':>10}")
for key, series in sorted(families.items()):
    name = key.split("=", 1)[1]
    print(
        f"{name:<24}{series['count']:>7}"
        f"{series['p50'] * 1e3:>10.2f}"
        f"{series['p95'] * 1e3:>10.2f}"
        f"{series['p99'] * 1e3:>10.2f}"
    )

# Replica freshness: clamped wall-clock staleness plus the skew-immune
# monotonic age of the last applied artifact.
print()
for lag in (replica.lag() for replica in replicas):
    print(
        f"{lag['name']}: seq_delta={lag['seq_delta']} "
        f"staleness={lag['staleness_s']:.3f}s "
        f"applied_age={lag['applied_age_s']:.3f}s"
    )

trace_snapshot = merged["telemetry"]["trace"]
print(
    f"\ntracer: {trace_snapshot['spans_recorded']} spans recorded, "
    f"{trace_snapshot['spans_dropped']} dropped (bounded ring buffer)"
)

# ---------------------------------------------------------------------------
# 4. The artifact set: the recorder's typed, labeled Prometheus text
#    exposition (the same text /metrics serves), the JSON snapshot, and
#    the Chrome trace.
# ---------------------------------------------------------------------------
write_metrics_json(state_dir / "metrics.json", merged)
(state_dir / "metrics.prom").write_text(telemetry.to_prometheus())
telemetry.write_chrome_trace(state_dir / "trace.json")

prom_lines = (state_dir / "metrics.prom").read_text().splitlines()
samples = [line for line in prom_lines if not line.startswith("#")]
print(f"\nmetrics.prom: {len(samples)} samples, e.g.")
for line in samples[:4]:
    print(f"  {line}")
print("  ...")
print(
    f"\nartifacts:\n  {state_dir / 'metrics.json'}\n"
    f"  {state_dir / 'metrics.prom'}\n"
    f"  {state_dir / 'trace.json'}  <- load at ui.perfetto.dev"
)
service.close()
