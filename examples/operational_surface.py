"""A tour of the live operational surface: HTTP endpoints, health,
structured logs, and freshness watermarks.

Boots a multi-tenant ``repro.serve.Service`` with a tenant replica and
``obs_server=``, then scrapes its own endpoints the way a monitoring
stack would, printing what came back at each step: the Prometheus
exposition (watch the ``e2e_visibility_seconds{replica=...}``
quantiles — seconds from ingest to queryable on each node), the health
report behind ``/readyz`` (including the replica's ``replica:r0`` lag
check), and the structured log lines the service emitted along the
way. Then it breaks the oplog on purpose to show readiness flip to
503 while liveness stays 200:

    python examples/operational_surface.py

Pair it with the standalone follower for the cross-process version —
ship into a spool directory and run
``python -m repro.replica.follower --spool <dir> --listen 127.0.0.1:9101``
in another shell.
"""

import io
import json
import pathlib
import tempfile
import urllib.error
import urllib.request

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.serve import Service


def scrape(address, path):
    try:
        with urllib.request.urlopen(f"http://{address}{path}", timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:  # 503 still carries a JSON body
        return exc.code, exc.read().decode()


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


# ---------------------------------------------------------------------------
# 1. obs_server="host:0" binds a free loopback port; log_stream turns on
#    structured JSON-lines logging (here into a buffer so the example
#    can show the lines; use sys.stderr in a real deployment).
# ---------------------------------------------------------------------------
log_lines = io.StringIO()
state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-ops-"))
service = Service.open(
    engine_factory=factory,
    n_shards=2,
    batch_max_ops=48,
    train_rounds=2,
    root_dir=state_dir,
    telemetry="on",
    obs_server="127.0.0.1:0",
    log_stream=log_lines,
)
tenant = service.tenant("demo")
tenant.add_replica(name="r0")
address = service.obs_address
print(f"operational surface live at http://{address}\n")

# ---------------------------------------------------------------------------
# 2. Push a workload through and let the replica catch up.
# ---------------------------------------------------------------------------
tenant.ingest(events[:400])
tenant.flush()
service.sync()
service.checkpoint()

# ---------------------------------------------------------------------------
# 3. /metrics — the freshness lines a dashboard would alert on.
# ---------------------------------------------------------------------------
status, body = scrape(address, "/metrics")
print(f"GET /metrics -> {status}; freshness families:")
for line in body.splitlines():
    if "watermark" in line or "e2e_visibility" in line:
        if not line.startswith("#"):
            print(f"  {line}")

# ---------------------------------------------------------------------------
# 4. /readyz — every named check, worst-wins aggregate.
# ---------------------------------------------------------------------------
status, body = scrape(address, "/readyz")
report = json.loads(body)
print(f"\nGET /readyz -> {status} ({report['status']})")
for name, check in report["checks"].items():
    print(f"  {name:16s} {check['status']:9s} {check['detail']}")

# ---------------------------------------------------------------------------
# 5. The structured log: one JSON object per line; lines emitted inside
#    a span carry trace/span ids that match /traces.
# ---------------------------------------------------------------------------
print("\nstructured log sample:")
for line in log_lines.getvalue().splitlines()[:3]:
    print(f"  {line}")

# ---------------------------------------------------------------------------
# 6. Break the oplog on purpose: readiness flips to 503 so a balancer
#    pulls the node, liveness stays 200 so nothing restarts it.
# ---------------------------------------------------------------------------
service.manager.oplog._handle.close()
ready_status, _ = scrape(address, "/readyz")
alive_status, _ = scrape(address, "/healthz")
print(f"\nafter killing the oplog handle: /readyz -> {ready_status}, "
      f"/healthz -> {alive_status}")

service.obs_server.close()
print(f"\nstate dir: {state_dir} (safe to delete)")
