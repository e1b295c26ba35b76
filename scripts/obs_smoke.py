#!/usr/bin/env python
"""CI smoke test for the live operational surface.

Starts a replicated multi-tenant ``repro.serve.Service`` with
``obs_server=`` on a free loopback port, pushes a workload through it
(one tenant replica attached and synced), then scrapes the endpoints
over actual HTTP exactly the way a monitoring stack would:

* ``/metrics`` must answer 200 with parseable Prometheus text carrying
  the tenant-labeled families (``tenant_ops_total``,
  ``quota_rejections_total``, ``resident_tenants``…), the freshness
  families (``e2e_visibility_seconds``, commit/applied watermarks) and
  the stream, shard and engine families (``stream_batches_applied_total``,
  ``shard_rounds_total``, ``engine_rounds_capped_total``…);
* the values ``/metrics`` reports must equal the ``stats()`` numbers:
  both views read the same instruments;
* ``/metrics.json`` and ``/traces`` must answer 200 with valid JSON;
* ``/healthz`` must answer 200;
* ``/readyz`` must answer 200 with every health check reporting —
  per-tenant probes and the replica's ``replica:t0`` lag check.

Exits non-zero (with a reason on stderr) on any failed expectation —
wired into CI so "the scrape broke" is a red build, not a 3 a.m. page.

Usage: python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import sys
import urllib.request
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.clustering.objectives import DBIndexObjective  # noqa: E402
from repro.core import DynamicC  # noqa: E402
from repro.data.generators import generate_access  # noqa: E402
from repro.data.workload import OperationMix, tenant_stream  # noqa: E402
from repro.errors import QuotaExceeded  # noqa: E402
from repro.serve import Service  # noqa: E402


def fail(reason: str) -> None:
    print(f"obs smoke FAILED: {reason}", file=sys.stderr)
    raise SystemExit(1)


def scrape(address: str, path: str) -> bytes:
    try:
        with urllib.request.urlopen(f"http://{address}{path}", timeout=10) as resp:
            if resp.status != 200:
                fail(f"GET {path} -> {resp.status}")
            return resp.read()
    except OSError as exc:
        fail(f"GET {path} raised {exc!r}")
    raise AssertionError("unreachable")


def validate_prometheus(text: str) -> dict[str, dict[frozenset, float]]:
    """Minimal scraper-side validation: every sample line must parse
    and belong to a # TYPE'd family. Returns sample values by sample
    name (``_count``/``_sum`` lines under their own), then label set."""
    typed: set[str] = set()
    samples: dict[str, dict[frozenset, float]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            typed.add(line.split(" ", 3)[2])
            continue
        if line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        try:
            number = float(value)
        except ValueError:
            fail(f"unparseable sample value in {line!r}")
        name, _, label_text = body.partition("{")
        base = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
        if base not in typed:
            fail(f"sample {name!r} outside any # TYPE'd family")
        labels = frozenset(
            tuple(pair.split("=", 1))
            for pair in label_text.rstrip("}").replace('"', "").split(",")
            if pair
        )
        samples.setdefault(name, {})[labels] = number
    if not samples:
        fail("/metrics body contained no samples")
    return samples


def check_agreement(samples: dict[str, dict[frozenset, float]], service) -> None:
    """``/metrics`` and ``stats()`` must report the same numbers."""

    def sample(family: str, **labels) -> float:
        value = samples.get(family, {}).get(frozenset(labels.items()))
        if value is None:
            fail(f"no {family} sample labeled {labels} on /metrics")
        return value

    def agree(what: str, scraped: float, reported) -> None:
        if scraped != reported:
            fail(f"{what}: /metrics says {scraped}, stats() says {reported}")

    stats = service.stats()
    agree(
        "tenant ops",
        sum(samples["repro_tenant_ops_total"].values()),
        stats["ops_total"],
    )
    agree(
        "quota rejections",
        sum(samples["repro_quota_rejections_total"].values()),
        stats["quota_rejections_total"],
    )
    tenant = service.tenant("tenant-000").stats()
    node = "serve:tenant-000"
    agree(
        "tenant-000 batches applied",
        sample("repro_stream_batches_applied_total", replica=node),
        tenant["batches_applied"],
    )
    agree(
        "tenant-000 ops",
        sample("repro_stream_ops_total", replica=node),
        tenant["ops_total"],
    )
    for index, shard in enumerate(tenant["shards"]):
        labels = {"replica": node, "shard": str(index)}
        for phase in ("observe", "predict"):
            key = "rounds_observed" if phase == "observe" else "rounds_predicted"
            agree(
                f"tenant-000 shard {index} {phase} rounds",
                sample("repro_shard_rounds_total", phase=phase, **labels),
                shard[key],
            )
        agree(
            f"tenant-000 shard {index} capped rounds",
            sample("repro_engine_rounds_capped_total", **labels),
            shard["rounds_capped"],
        )
    if not tenant["batches_applied"]:
        fail("tenant-000 applied no batch: the agreement check proves nothing")


def serve_stage(dataset, factory) -> None:
    """The Service front door scrapes with tenant-labeled and freshness
    families, per-tenant health probes and the replica lag check."""
    stream = tenant_stream(
        dataset,
        n_tenants=3,
        n_ops=150,
        mix=OperationMix(add=0.60, remove=0.15, update=0.25),
        seed=5,
    )
    with TemporaryDirectory() as scratch:
        service = Service.open(
            engine_factory=factory,
            n_shards=2,
            batch_max_ops=32,
            train_rounds=2,
            root_dir=Path(scratch) / "state",
            telemetry="on",
            obs_server="127.0.0.1:0",
            quota_max_pending=64,
        )
        try:
            for tenant, op in stream:
                service.tenant(tenant).ingest([op])
            service.flush()
            service.tenant("tenant-000").add_replica(name="t0")
            service.sync()
            # Provoke one typed rejection so the rejection family has
            # a labeled sample to scrape.
            try:
                service.tenant("tenant-000").ingest(
                    [("add", 9000 + i, (0.0, 0.0, 0.0)) for i in range(65)]
                )
            except QuotaExceeded:
                pass
            else:
                fail("oversized batch was not rejected by the backlog quota")

            address = service.obs_address
            print(f"scraping http://{address} (serve)", file=sys.stderr)
            text = scrape(address, "/metrics").decode()
            samples = validate_prometheus(text)
            for family in (
                "repro_tenant_ops_total",
                "repro_quota_rejections_total",
                "repro_tenant_activations_total",
                "repro_resident_tenants",
                "repro_e2e_visibility_seconds",
                "repro_commit_watermark_ts",
                "repro_applied_watermark_ts",
                "repro_serve_ingest_seconds",
                "repro_stream_ops_total",
                "repro_stream_batches_applied_total",
                "repro_stream_batch_seconds",
                "repro_shard_rounds_total",
                "repro_shard_round_seconds",
                "repro_engine_merges_applied_total",
                "repro_engine_rounds_capped_total",
            ):
                if family not in samples:
                    fail(f"{family} missing from serve /metrics")
            if 'tenant="tenant-000"' not in text:
                fail("no tenant-labeled sample on the serve /metrics surface")
            check_agreement(samples, service)

            json.loads(scrape(address, "/metrics.json"))
            trace = json.loads(scrape(address, "/traces"))
            if "traceEvents" not in trace:
                fail("/traces is not a Chrome trace")
            json.loads(scrape(address, "/healthz"))

            report = json.loads(scrape(address, "/readyz"))
            if not report.get("ready"):
                fail(f"serve /readyz not ready: {report}")
            checks = report.get("checks", {})
            for check in ("oplog", "residency", "tenant:tenant-000", "replica:t0"):
                if check not in checks:
                    fail(f"{check!r} check missing from serve /readyz: {report}")
        finally:
            service.close()
    print("serve surface OK", file=sys.stderr)


def main() -> int:
    dataset = generate_access(n_profiles=6, n_records=240, seed=3)

    def factory():
        return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

    serve_stage(dataset, factory)
    print("obs smoke OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
