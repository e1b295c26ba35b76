"""Stats oracle: every count and size a ``stats()`` view reports, pinned.

Two seeded scenarios run end to end:

* a durable multi-tenant :class:`repro.serve.Service` with two tenants
  under ``max_resident_tenants=1`` (so a tenant is evicted and later
  reactivated), one backlog-quota rejection, one tenant replica plus
  ``sync()``, and a close followed by a reopen;
* a standalone durable :class:`repro.stream.ClusteringService` that is
  closed mid-stream and rebuilt with ``recover``.

The test compares ``Service.stats()``, ``TenantHandle.stats()``,
``ReadReplica.stats()`` and ``ClusteringService.stats()`` against
``tests/golden/stats_oracle.json``. Every count and size must match
exactly. Keys derived from the clock only have their key and type
pinned: latency dicts (plus their ``count``), ``*_ts``, ``*_age_s``,
``staleness_s``, ``visibility_lag_s``, ``throughput_events_per_s`` and
the ``p50_s``/``p95_s``/``p99_s`` trio. Operations carry a fixed
``ingest_ts``, so log sizes do not depend on the wall clock.

The golden values were recorded from the implementation that kept
plain stream-layer counters next to the obs instruments, so this test
is the behaviour oracle for keeping one metric source. Never
regenerate it to make a failure pass.
"""

from __future__ import annotations

import json
import pathlib
import warnings

import numpy as np
import pytest

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.errors import QuotaExceeded
from repro.obs import Telemetry
from repro.serve import Service
from repro.similarity.euclidean import EuclideanSimilarity
from repro.similarity.graph import SimilarityGraph
from repro.stream import ClusteringService, Operation, StreamConfig

GOLDEN = pathlib.Path(__file__).parent / "golden" / "stats_oracle.json"

#: Fixed ingest stamp: log records, and so log sizes, are byte-stable.
TS = 1_700_000_000.5

LATENCY_KEYS = {
    "count", "total_s", "mean_s", "min_s", "max_s", "last_s",
    "p50_s", "p95_s", "p99_s",
}
CLOCK_KEYS = {
    "throughput_events_per_s", "staleness_s", "visibility_lag_s",
    "p50_s", "p95_s", "p99_s",
}


def _is_clock_key(key) -> bool:
    return isinstance(key, str) and (
        key in CLOCK_KEYS or key.endswith("_ts") or key.endswith("_age_s")
    )


def view(value, key=None):
    """``value`` with clock-derived entries replaced by their type name."""
    if isinstance(value, dict):
        if set(value) == LATENCY_KEYS:
            return {
                name: value[name] if name == "count" else type(value[name]).__name__
                for name in sorted(value)
            }
        return {name: view(item, name) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [view(item) for item in value]
    if _is_clock_key(key):
        return type(value).__name__
    return value


def factory():
    return DynamicC(
        SimilarityGraph(EuclideanSimilarity(scale=1.0), store_threshold=0.2),
        DBIndexObjective(),
        seed=0,
    )


def events(seed: int, n_add: int, id_base: int) -> list[Operation]:
    """Blob adds, then updates and removes of live ids, plus one remove
    of an id never added (discarded by round normalisation)."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 12.0, size=(6, 2))
    ops: list[Operation] = []
    live: list[int] = []
    for offset in range(n_add):
        point = centres[offset % len(centres)] + rng.normal(0.0, 0.4, size=2)
        obj_id = id_base + offset
        ops.append(Operation("add", obj_id, np.round(point, 3), ingest_ts=TS))
        live.append(obj_id)
        if offset % 9 == 8:
            moved = live[int(rng.integers(len(live)))]
            target = centres[int(rng.integers(len(centres)))]
            ops.append(Operation("update", moved, np.round(target, 3), ingest_ts=TS))
        if offset % 13 == 12:
            gone = live.pop(int(rng.integers(len(live))))
            ops.append(Operation("remove", gone, ingest_ts=TS))
    ops.append(Operation("remove", id_base + 10 * n_add, ingest_ts=TS))
    return ops


def ingest_in_chunks(target, ops, size=7):
    for start in range(0, len(ops), size):
        target.ingest(ops[start : start + size])


def serve_views(root, telemetry=None) -> dict:
    options = dict(
        engine_factory=factory,
        n_shards=2,
        batch_max_ops=16,
        train_rounds=2,
        root_dir=root,
        max_resident_tenants=1,
        quota_max_pending=40,
        telemetry=telemetry,
    )
    stream_a = events(seed=1, n_add=90, id_base=0)
    stream_b = events(seed=2, n_add=50, id_base=10_000)
    out = {}
    service = Service.open(**options)
    a, b = service.tenant("a"), service.tenant("b")
    ingest_in_chunks(a, stream_a[:60])
    ingest_in_chunks(b, stream_b)  # activates b, evicts a
    ingest_in_chunks(a, stream_a[60:80])  # reactivates a, evicts b
    oversized = [
        Operation("add", 50_000 + i, np.array([0.5, 0.5]), ingest_ts=TS)
        for i in range(41)
    ]
    with pytest.raises(QuotaExceeded):
        a.ingest(oversized)
    replica = a.add_replica(name="a-r0")
    ingest_in_chunks(a, stream_a[80:])
    service.sync()
    out["service"] = service.stats()
    out["tenant_a"] = a.stats()
    out["tenant_b"] = b.stats()
    out["replica"] = replica.stats()
    service.close()

    reopened = Service.open(**options)
    out["reopened_before"] = reopened.stats()
    ingest_in_chunks(reopened.tenant("b"), stream_b[:10])
    reopened.flush()
    out["reopened_after"] = reopened.stats()
    out["reopened_tenant_b"] = reopened.tenant("b").stats()
    reopened.close()
    return out


def stream_views(tmp_path, telemetry=None) -> dict:
    config = StreamConfig(
        n_shards=2,
        batch_max_ops=16,
        train_rounds=2,
        oplog_path=tmp_path / "oplog.jsonl",
        checkpoint_dir=tmp_path / "checkpoints",
        telemetry=telemetry,
    )
    ops = events(seed=3, n_add=80, id_base=0)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        service = ClusteringService(factory, config)
        ingest_in_chunks(service, ops[:50])
        service.checkpoint()
        ingest_in_chunks(service, ops[50:75])  # leaves a logged, unapplied tail
        out["before_crash"] = service.stats()
        service.close()
        recovered = ClusteringService.recover(factory, config)
    out["recovered"] = recovered.stats()
    ingest_in_chunks(recovered, ops[75:])
    recovered.flush()
    recovered.checkpoint()
    out["recovered_after"] = recovered.stats()
    recovered.close()
    return out


def all_views(tmp_path, telemetry=None) -> dict:
    return view(
        {
            "serve": serve_views(tmp_path / "serve", telemetry),
            "stream": stream_views(tmp_path / "stream", telemetry),
        }
    )


def test_stats_match_the_oracle(tmp_path):
    got = json.loads(json.dumps(all_views(tmp_path)))
    want = json.loads(GOLDEN.read_text())
    assert got.keys() == want.keys()
    for layer in want:
        for name in want[layer]:
            assert got[layer][name] == want[layer][name], f"{layer}.{name} drifted"


@pytest.mark.parametrize("setting", ["on", "shared"])
def test_stats_do_not_depend_on_the_telemetry_setting(tmp_path, setting):
    # "shared": one Telemetry instance across the reopen and the
    # recover, so a rebuilt component must still count from zero.
    telemetry = Telemetry() if setting == "shared" else setting

    def without_telemetry(views):
        for layer in views.values():
            for snapshot in layer.values():
                snapshot.pop("telemetry", None)
                snapshot.pop("obs_address", None)
        return views

    off = without_telemetry(all_views(tmp_path / "off"))
    on = without_telemetry(all_views(tmp_path / "on", telemetry=telemetry))
    assert on == off
