"""The benchmark's workloads: inputs from a seed, measured in passes.

Every workload is a closed loop with one client in one process and no
threads. One run drives several *parts*: independent inputs derived
from the run's seed (``PARTS``), so a run's figures average over input
structure as well as over time. A *pass* drives one part once from a
fresh start: set-up (timed as ``setup_s``), then the timed phase. The
runner repeats *cycles* (every part once) until the run's time is used
and pools the samples. Heavy correctness checks (batch references,
run-alone oracles) run untimed after each part's first pass; every
later pass of a part must end in the same partitions.

The end-to-end metrics are defined on every workload, read through
each workload's own calls:

* a *write* is one ingest call: a predict round's ``DynamicC.ingest``
  on ``paper-dbindex``, one single-operation ``TenantHandle.ingest`` on
  ``serve-resident``; ``ops_per_s`` counts data operations written per
  second of the timed phases;
* a *round* is a call that completes an engine round: ingest plus
  recluster on ``paper-dbindex``; on ``serve-resident`` a write that
  closes its tenant's count-cut batch (every ``BATCH``-th operation of
  that tenant), which applies the round before it returns;
* ``recluster_ms_p50`` is ``DynamicC.recluster`` on ``paper-dbindex``
  (the paper's Fig. 7 quantity); on ``serve-resident`` it is what a
  round adds to a write: p50 of rounds minus p50 of the other writes;
* a *read* is one ``cluster_of`` or one ``members`` call, two per
  written add or update on ``paper-dbindex`` and two per write (against
  a uniformly chosen tenant) on ``serve-resident``;
* *visible* runs from the start of the write carrying an add to the
  return of the first call after which ``cluster_of`` sees it. On
  ``paper-dbindex`` ``DynamicC.ingest`` already places every add in the
  clustering, so there an add's visibility is the latency of the ingest
  call of its round: the write latency weighted by adds per round;
* ``f1_vs_batch`` is the pair F1, pooled over parts (and tenants), of
  the final clustering against an untimed ``HillClimbing`` run over the
  same final objects in one graph.

On ``paper-dbindex`` the four ``*_p50`` metrics (round, recluster,
write, visible) are the median over the run's parts of each part's
mean per call, pooled over its passes. On a shared 2-vCPU host a slow
spell added about the same few milliseconds to every call, large or
small, so a median of single calls or of single passes moved most:
over one set of ten seeds the quartile distance ÷ median was 0.28 for
the median over passes and 0.18 for this figure. The ``p90`` and
``p99`` figures are per call, pooled over passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.batch import HillClimbing
from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_cora
from repro.data.workload import OperationMix, build_workload, tenant_stream
from repro.errors import DegradedError, QuotaExceeded
from repro.eval.pair_metrics import pair_metrics
from repro.serve import Service
from repro.stream import events

from .measure import SelfTimer, VisibilityTracker

clock = time.perf_counter

# --- paper-dbindex: a scaled Cora-style DB-index run (Figs. 6-7) ----------
# Poisson duplicate counts: with the generator's capped zipf tail, the
# few largest entities dominate DB-index cost and one seed's rounds ran
# 25% slower than another's, more than any bound the benchmark can hold.
CORA = dict(n_entities=300, n_duplicates=1300, distribution="poisson")
CORA_INITIAL = 600
OBSERVE_ROUNDS = 3
PREDICT_ROUNDS = 110
CORA_MIX = OperationMix(add=0.0085, remove=0.001, update=0.002)

# --- serve-resident: zipfian tenants over repro.serve ---------------------
N_TENANTS = 16
TENANT_SKEW = 0.8
KEY_SKEW = 1.1
SERVE_MIX = OperationMix(add=0.60, remove=0.15, update=0.25)
CORA_SERVE = dict(n_entities=150, n_duplicates=750, distribution="zipf")
PRELOAD_POOL = 256  # records set aside for per-tenant preload adds
#: Writes per pass: long enough for most tenants to close rounds within it.
MAIN_OPS = 1280
BATCH = 16
N_SHARDS = 2
TRAIN_ROUNDS = 2
SYNC_EVERY = 64


@dataclass
class Samples:
    """Everything one run measures, pooled over its passes."""

    setups: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    writes: list[float] = field(default_factory=list)
    #: serve-resident: writes that did not close a round (``rounds``
    #: holds the ones that did).
    plain_writes: list[float] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)
    recluster: list[float] = field(default_factory=list)
    reads: list[float] = field(default_factory=list)
    visible: VisibilityTracker = field(default_factory=VisibilityTracker)
    #: paper-dbindex: kind (``writes``, ``rounds``, ``recluster``,
    #: ``visible``) -> part -> the mean per call of each of its passes.
    pass_means: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    replica_visible: VisibilityTracker = field(default_factory=VisibilityTracker)
    #: Final groups of every part, ids keyed by part (and tenant), for
    #: one pooled pair F1: served clustering vs. the batch reference.
    f1_served: list = field(default_factory=list)
    f1_reference: list = field(default_factory=list)
    #: part -> digests of its final partitions, one per pass.
    digests: dict[int, set] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    #: Layer timer of a traced run; ``traced`` says whether this pass
    #: carries the wrappers. Workloads switch accounting on only while
    #: they measure (set-up and timed phase), never during checks.
    timer: SelfTimer | None = None
    traced: bool = False

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def measuring(self, on: bool) -> None:
        if self.timer is not None:
            self.timer.enabled = on and self.traced

    def f1_vs_batch(self) -> float | None:
        if not self.f1_reference:
            return None
        return pair_metrics(self.f1_served, self.f1_reference).f1


def _keyed(key, partition) -> list:
    """Groups with ids made unique across parts and tenants."""
    return [[(key, obj_id) for obj_id in group] for group in partition]


def _digest(partitions) -> str:
    text = repr(sorted(sorted(sorted(group) for group in p) for p in partitions))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PaperDBIndex:
    """DynamicC over a DB-index objective, round by round as in the harness."""

    name = "paper-dbindex"
    why = (
        "the paper's own setting (Figs. 6-7): DynamicC over the DB-index objective "
        "on Cora-style records; only similarity, clustering, core and ml do work"
    )
    flush_policy = "none: engine state in memory, no log, no checkpoints"

    def __init__(self, part: int, seed: int, state_root: pathlib.Path) -> None:
        self.part = part
        self.dataset = generate_cora(**CORA, seed=seed)
        self.workload = build_workload(
            self.dataset,
            initial_count=CORA_INITIAL,
            n_snapshots=OBSERVE_ROUNDS + PREDICT_ROUNDS,
            mixes=CORA_MIX,
            seed=seed + 1,
        )
        self.similarity_thresholds = {
            type(self.dataset.similarity): self.dataset.store_threshold
        }
        self.state_dir = None  # in memory only

    def run_pass(self, index: int, s: Samples, checks: bool) -> float:
        """One pass; returns its measured wall time (setup + timed)."""
        workload = self.workload
        s.measuring(True)
        start = clock()
        graph = self.dataset.graph()
        for obj_id, payload in workload.initial.items():
            graph.add_object(obj_id, payload)
        method = DynamicC(graph, DBIndexObjective(), seed=0)
        method.bootstrap(HillClimbing(DBIndexObjective()).cluster(graph))
        for snapshot in workload.snapshots[:OBSERVE_ROUNDS]:
            method.observe_round(
                added=snapshot.added, removed=snapshot.removed, updated=snapshot.updated
            )
        method.train()
        setup = clock() - start
        s.setups.append(setup)

        visible = s.visible
        per_call = {
            "writes": s.writes,
            "rounds": s.rounds,
            "recluster": s.recluster,
            "visible": visible.samples,
        }
        first = {kind: len(values) for kind, values in per_call.items()}
        timed_start = clock()
        for snapshot in workload.snapshots[OBSERVE_ROUNDS:]:
            began = clock()
            method.ingest(
                added=snapshot.added, removed=snapshot.removed, updated=snapshot.updated
            )
            ingested = clock()
            clustering = method.clustering
            for obj_id in snapshot.added:
                visible.wrote(self.name, obj_id, began)
            visible.probe(self.name, ingested, clustering.__contains__)
            reclustering = clock()
            method.recluster()
            done = clock()
            s.writes.append(ingested - began)
            s.rounds.append(done - began)
            s.recluster.append(done - reclustering)
            n_ops = len(snapshot.added) + len(snapshot.removed) + len(snapshot.updated)
            s.ops += n_ops
            s.attempted += n_ops
            clustering = method.clustering
            for obj_id in (*snapshot.added, *snapshot.updated):
                t0 = clock()
                cid = clustering.cluster_of(obj_id)
                t1 = clock()
                clustering.members(cid)
                t2 = clock()
                s.reads.append(t1 - t0)
                s.reads.append(t2 - t1)
        timed = clock() - timed_start
        s.measuring(False)
        s.timed_s += timed
        visible.finish(lambda key, obj_id: obj_id in method.clustering)
        for kind, values in per_call.items():
            means = s.pass_means.setdefault(kind, {}).setdefault(self.part, [])
            means.append(statistics.fmean(values[first[kind] :]))

        partition = method.clustering.as_partition()
        s.digests.setdefault(self.part, set()).add(_digest([partition]))
        live = workload.live_ids_after(len(workload.snapshots))
        s.check("partition_covers_live_ids", set(method.clustering.labels()) == live)
        if checks:
            reference = HillClimbing(DBIndexObjective()).cluster(graph).as_partition()
            s.f1_served.extend(_keyed(self.part, partition))
            s.f1_reference.extend(_keyed(self.part, reference))
        return setup + timed


class ServeWorkload:
    """Zipfian tenants through ``Service.open(root_dir=...)``, all resident.

    One replica follows the hottest tenant and is synced every
    ``SYNC_EVERY`` writes.
    """

    name = "serve-resident"
    why = (
        "the serving path: ingest, oplog append, batcher, shard apply, engine; "
        "plus ingest-to-replica visibility; activation and checkpoints idle"
    )
    flush_policy = (
        "default: shared oplog appended without fsync; checkpoints always "
        "fsync'd (taken only on eviction, which never happens here)"
    )

    def __init__(self, part: int, seed: int, state_root: pathlib.Path) -> None:
        self.part = part
        self.state_dir = state_root / f"{self.name}-{part}"
        dataset = generate_cora(**CORA_SERVE, seed=seed)
        self.dataset = dataset
        self.similarity_thresholds = {type(dataset.similarity): dataset.store_threshold}
        pool = dataset.records[:PRELOAD_POOL]
        main = dataclasses.replace(dataset, records=dataset.records[PRELOAD_POOL:])
        self.stream = tenant_stream(
            main,
            n_tenants=N_TENANTS,
            n_ops=MAIN_OPS,
            tenant_skew=TENANT_SKEW,
            key_skew=KEY_SKEW,
            mix=SERVE_MIX,
            seed=seed,
        )
        self.tenants = [f"tenant-{index:03d}" for index in range(N_TENANTS)]
        rng = np.random.default_rng(seed + 7)
        self.preload = {
            name: [
                events.add(pool[int(i)].id, pool[int(i)].payload)
                for i in rng.permutation(len(pool))
            ]
            for name in self.tenants
        }
        # Reads: any tenant, uniformly (readers are not the writers), and
        # a uniform pick among that tenant's objects known to be visible.
        self.read_tenants = [
            self.tenants[int(i)] for i in rng.integers(N_TENANTS, size=len(self.stream))
        ]
        self.read_picks = rng.random(len(self.stream))
        per_tenant = {name: 0 for name in self.tenants}
        for name, _ in self.stream:
            per_tenant[name] += 1
        ranked = sorted(self.tenants, key=lambda name: (-per_tenant[name], name))
        self.hottest, self.coldest = ranked[0], ranked[-1]
        self.preload_chunks: dict[str, int] | None = None

    def _factory(self):
        return DynamicC(self.dataset.graph(), DBIndexObjective(), seed=0)

    @staticmethod
    def _config(pass_dir: pathlib.Path | None = None) -> dict:
        """Durable under ``pass_dir``; ephemeral (the run-alone oracle) without."""
        config = dict(n_shards=N_SHARDS, batch_max_ops=BATCH, train_rounds=TRAIN_ROUNDS)
        if pass_dir is not None:
            config["root_dir"] = pass_dir
        return config

    @staticmethod
    def _trained(handle) -> bool:
        return all(shard["trained"] for shard in handle.stats(legacy=False)["shards"])

    def run_pass(self, index: int, s: Samples, checks: bool) -> float:
        pass_dir = self.state_dir / f"pass-{index}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        s.measuring(True)
        start = clock()
        svc = Service.open(engine_factory=self._factory, **self._config(pass_dir))
        try:
            return self._drive(svc, pass_dir, start, s, checks)
        finally:
            s.measuring(False)
            svc.close()
            shutil.rmtree(pass_dir, ignore_errors=True)

    def _drive(self, svc, pass_dir, start, s: Samples, checks: bool) -> float:
        handles = {name: svc.tenant(name) for name in self.tenants}
        # -- set-up: bulk preload through batched ingest until trained --
        excluded = 0.0
        chunks_used: dict[str, int] = {}
        visible_ids: dict[str, dict[int, None]] = {}
        for name in self.tenants:
            handle, pool = handles[name], self.preload[name]
            chunks = 0
            while True:
                handle.ingest(pool[chunks * BATCH : (chunks + 1) * BATCH])
                chunks += 1
                s.measuring(False)
                probe_start = clock()
                trained = self._trained(handle)
                excluded += clock() - probe_start
                s.measuring(True)
                if trained or (chunks + 1) * BATCH > len(pool):
                    break
            s.check("engines_trained_after_preload", trained)
            chunks_used[name] = chunks
            visible_ids[name] = dict.fromkeys(op.obj_id for op in pool[: chunks * BATCH])
        replica = handles[self.hottest].add_replica()
        setup = clock() - start - excluded
        s.setups.append(setup)
        if self.preload_chunks is None:
            self.preload_chunks = chunks_used
        s.check("preload_deterministic", chunks_used == self.preload_chunks)
        # visible_ids doubles as an ordered set; reads index into a list
        # view rebuilt only when the tenant's set changed.
        read_lists = {name: list(ids) for name, ids in visible_ids.items()}
        stale: set[str] = set()

        # -- timed phase ------------------------------------------------
        counts = {name: chunks_used[name] * BATCH for name in self.tenants}
        removing: dict[str, set[int]] = {name: set() for name in self.tenants}
        visible, replica_visible = s.visible, s.replica_visible
        accepted = attempted = failed = 0
        hottest = self.hottest
        timed_start = clock()
        for i, (name, op) in enumerate(self.stream):
            handle = handles[name]
            attempted += 1
            began = clock()
            try:
                accepted += handle.ingest([op])
            except (QuotaExceeded, DegradedError):
                failed += 1
            ended = clock()
            latency = ended - began
            s.writes.append(latency)
            counts[name] += 1
            closes_round = counts[name] % BATCH == 0
            (s.rounds if closes_round else s.plain_writes).append(latency)
            ids = visible_ids[name]
            if op.kind == events.ADD:
                if op.obj_id in removing[name]:
                    # The old copy stays visible until its remove is
                    # applied, so a read cannot tell when this add lands.
                    s.notes["readds_not_sampled"] = s.notes.get("readds_not_sampled", 0) + 1
                else:
                    visible.wrote(name, op.obj_id, began)
                    if name == hottest:
                        replica_visible.wrote(name, op.obj_id, began)
            elif op.kind == events.REMOVE:
                removing[name].add(op.obj_id)
                visible.removed(name, op.obj_id)
                if name == hottest:
                    replica_visible.removed(name, op.obj_id)
                if op.obj_id in ids:
                    del ids[op.obj_id]
                    stale.add(name)
            if closes_round:
                removing[name].clear()
            if visible.pending(name):
                cluster_of = handle.cluster_of
                seen = visible.probe(
                    name, ended, lambda obj_id: cluster_of(obj_id) is not None
                )
                if seen:
                    ids.update(dict.fromkeys(seen))
                    stale.add(name)
            # Two reads against a uniformly chosen tenant's visible objects.
            target = self.read_tenants[i]
            if target in stale:
                read_lists[target] = list(visible_ids[target])
                stale.discard(target)
            choices = read_lists[target]
            obj_id = choices[int(self.read_picks[i] * len(choices))]
            reader = handles[target]
            t0 = clock()
            gcid = reader.cluster_of(obj_id)
            t1 = clock()
            reader.members(gcid)
            t2 = clock()
            s.reads.append(t1 - t0)
            s.reads.append(t2 - t1)
            if (i + 1) % SYNC_EVERY == 0:
                svc.sync()
                synced = clock()
                replica_visible.probe(
                    hottest, synced, lambda obj_id: replica.cluster_of(obj_id) is not None
                )
        timed = clock() - timed_start
        if s.timer is not None:
            s.timer.count("stream.oplog.bytes", (pass_dir / "oplog.jsonl").stat().st_size)
        s.measuring(False)
        s.timed_s += timed
        s.ops += accepted
        s.attempted += attempted
        s.failed += failed

        # -- untimed: final flush, exclusions and checks ------------------
        for name in self.tenants:
            handles[name].flush()
        visible.finish(lambda key, obj_id: handles[key].cluster_of(obj_id) is not None)
        svc.sync()
        replica_visible.finish(lambda key, obj_id: replica.cluster_of(obj_id) is not None)
        s.check("replica_equals_primary", replica.partition() == handles[hottest].partition())
        s.check("accepted_equals_attempted", accepted == attempted and failed == 0)
        partitions = {name: handles[name].partition() for name in self.tenants}
        s.digests.setdefault(self.part, set()).add(
            _digest(partitions[name] for name in self.tenants)
        )
        if checks:
            self._oracle_checks(partitions, s)
        return setup + timed

    def _tenant_ops(self, name: str) -> list:
        preload = self.preload[name][: self.preload_chunks[name] * BATCH]
        return preload + [op for tenant, op in self.stream if tenant == name]

    def _oracle_checks(self, partitions: dict, s: Samples) -> None:
        """Tenant == run-alone, live-id coverage, and F1 against batch.

        ``f1_vs_batch`` pools every tenant: each tenant's reference is
        one ``HillClimbing`` run over its final objects in a single graph.
        """
        for role, name in (("hottest", self.hottest), ("coldest", self.coldest)):
            with Service.open(engine_factory=self._factory, **self._config()) as alone:
                handle = alone.tenant(name)
                handle.ingest(self._tenant_ops(name))
                handle.flush()
                s.check(f"{role}_tenant_equals_run_alone", handle.partition() == partitions[name])
        for name in self.tenants:
            live: dict[int, object] = {}
            for op in self._tenant_ops(name):
                if op.kind == events.REMOVE:
                    live.pop(op.obj_id, None)
                else:
                    live[op.obj_id] = op.payload
            final = partitions[name]
            s.check(
                "partitions_cover_live_ids",
                set().union(*final) == set(live) if final else not live,
            )
            graph = self.dataset.graph()
            for obj_id, payload in live.items():
                graph.add_object(obj_id, payload)
            batch = HillClimbing(DBIndexObjective()).cluster(graph).as_partition()
            s.f1_served.extend(_keyed((self.part, name), final))
            s.f1_reference.extend(_keyed((self.part, name), batch))


#: workload -> number of independent parts (inputs) per run. One seed
#: yields several small inputs rather than one, so that a run's figures
#: average over input structure as well as over time.
PARTS = {"paper-dbindex": 6, "serve-resident": 4}
WORKLOADS = tuple(PARTS)


def make(name: str, seed: int, state_root: pathlib.Path) -> list:
    """The parts of one run: same workload, inputs from seeds derived from ``seed``."""
    if name not in PARTS:
        raise ValueError(f"unknown workload {name!r}")
    parts = []
    for part in range(PARTS[name]):
        sub_seed = int(np.random.SeedSequence([seed, part]).generate_state(1)[0])
        workload = PaperDBIndex if name == "paper-dbindex" else ServeWorkload
        parts.append(workload(part, sub_seed, state_root))
    return parts
