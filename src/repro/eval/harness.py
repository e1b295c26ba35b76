"""Experiment harness: run clustering methods over dynamic workloads.

This is the machinery behind every figure/table bench: it feeds a
:class:`~repro.data.workload.DynamicWorkload` to a method, times each
round's re-clustering, and records the per-round clustering labels so
quality metrics (pair F1 against the batch reference, objective scores)
can be computed afterwards.

Supported execution modes (§7.1 "Comparison"):

* batch reference — re-cluster from scratch every snapshot;
* incremental methods (Naive / Greedy / DynamicC) — stateful rounds;
* DynamicC's two evaluation scenarios: **DynamicSet** (each round starts
  from DynamicC's own previous output — the default stateful mode) and
  **GreedySet** (each round starts from the reference method's previous
  output, via ``reset_from``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.clustering.incremental import IncrementalClusterer
from repro.clustering.state import Clustering
from repro.core.dynamicc import DynamicC
from repro.data.workload import DynamicWorkload
from repro.eval.pair_metrics import PairMetrics, pair_metrics
from repro.similarity.graph import SimilarityGraph


class BatchAlgorithm(Protocol):
    """Anything with a HillClimbing-compatible ``cluster`` method."""

    def cluster(self, graph: SimilarityGraph, initial=None, log=None, restrict_to=None) -> Clustering:
        ...


ScoreFn = Callable[[Clustering], float]


@dataclass
class RoundRecord:
    """Observed outcome of one snapshot for one method."""

    index: int
    phase: str  # "observe" or "predict"
    latency: float
    num_clusters: int
    labels: dict[int, int]
    score: float | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class MethodRun:
    """Per-round results of one method over one workload."""

    name: str
    rounds: list[RoundRecord] = field(default_factory=list)
    train_time: float = 0.0
    bootstrap_labels: dict[int, int] = field(default_factory=dict)

    def predict_rounds(self) -> list[RoundRecord]:
        return [r for r in self.rounds if r.phase == "predict"]

    def latencies(self) -> list[float]:
        return [r.latency for r in self.predict_rounds()]

    def total_latency(self) -> float:
        return sum(self.latencies())

    def scores(self) -> list[float]:
        return [r.score for r in self.predict_rounds() if r.score is not None]


def _load_initial(graph: SimilarityGraph, workload: DynamicWorkload) -> None:
    for obj_id, payload in workload.initial.items():
        graph.add_object(obj_id, payload)


def _apply_snapshot_to_graph(graph: SimilarityGraph, snapshot) -> None:
    for obj_id in snapshot.removed:
        graph.remove_object(obj_id)
    for obj_id, payload in snapshot.updated.items():
        graph.update_object(obj_id, payload)
    for obj_id, payload in snapshot.added.items():
        graph.add_object(obj_id, payload)


def run_batch_per_round(
    workload: DynamicWorkload,
    batch_factory: Callable[[], BatchAlgorithm],
    score_fn: ScoreFn | None = None,
    name: str = "batch",
) -> MethodRun:
    """Re-cluster from scratch every snapshot (the paper's ground truth)."""
    graph = workload.dataset.graph()
    _load_initial(graph, workload)
    run = MethodRun(name=name)

    batch = batch_factory()
    start = time.perf_counter()
    clustering = batch.cluster(graph)
    bootstrap_latency = time.perf_counter() - start
    run.bootstrap_labels = clustering.labels()
    run.rounds.append(
        RoundRecord(
            index=0,
            phase="predict",
            latency=bootstrap_latency,
            num_clusters=clustering.num_clusters(),
            labels=clustering.labels(),
            score=score_fn(clustering) if score_fn else None,
        )
    )
    for index, snapshot in enumerate(workload.snapshots, start=1):
        _apply_snapshot_to_graph(graph, snapshot)
        batch = batch_factory()
        start = time.perf_counter()
        clustering = batch.cluster(graph)
        latency = time.perf_counter() - start
        run.rounds.append(
            RoundRecord(
                index=index,
                phase="predict",
                latency=latency,
                num_clusters=clustering.num_clusters(),
                labels=clustering.labels(),
                score=score_fn(clustering) if score_fn else None,
            )
        )
    return run


def run_incremental(
    workload: DynamicWorkload,
    method_factory: Callable[[SimilarityGraph], IncrementalClusterer],
    bootstrap: Callable[[SimilarityGraph], Clustering] | None = None,
    train_rounds: int = 0,
    score_fn: ScoreFn | None = None,
    reset_from: MethodRun | None = None,
    name: str | None = None,
) -> MethodRun:
    """Run a stateful incremental method over the workload.

    Parameters
    ----------
    bootstrap:
        Builds the round-0 clustering over the initial records (usually
        the batch algorithm); all-singletons when omitted.
    train_rounds:
        For DynamicC methods: the first ``train_rounds`` snapshots are
        consumed as *observation* rounds (batch runs + evolution
        capture) followed by model fitting; other methods process them
        normally but the rounds are tagged "observe" so benches can
        compare prediction rounds only.
    reset_from:
        GreedySet mode — before each prediction round the method's
        clustering is reset to this run's previous-round labels.
    score_fn:
        Optional clustering score recorded per round.
    """
    graph = workload.dataset.graph()
    _load_initial(graph, workload)
    method = method_factory(graph)
    run = MethodRun(name=name or method.name)

    if bootstrap is not None:
        method.bootstrap(bootstrap(graph))
    else:
        method.bootstrap(Clustering.singletons(graph))
    run.bootstrap_labels = method.clustering.labels()

    is_dynamicc = isinstance(method, DynamicC)
    trained = False
    for index, snapshot in enumerate(workload.snapshots, start=1):
        observing = is_dynamicc and index <= train_rounds
        if is_dynamicc and not observing and not trained:
            start = time.perf_counter()
            method.train()
            run.train_time += time.perf_counter() - start
            trained = True
        if reset_from is not None and not observing:
            # GreedySet: start this round from the reference method's
            # clustering *after the previous snapshot*.
            if index == 1:
                previous = reset_from.bootstrap_labels
            else:
                previous = next(
                    r.labels for r in reset_from.rounds if r.index == index - 1
                )
            method.bootstrap(Clustering.from_labels(graph, previous))

        if observing:
            start = time.perf_counter()
            method.observe_round(
                added=snapshot.added,
                removed=snapshot.removed,
                updated=snapshot.updated,
            )
            latency = time.perf_counter() - start
            run.train_time += latency
        else:
            # Graph maintenance is untimed — it is identical for every
            # method including the batch reference, whose timing also
            # excludes it (§7.1 reports *re-clustering* latency).
            method.ingest(
                added=snapshot.added,
                removed=snapshot.removed,
                updated=snapshot.updated,
            )
            start = time.perf_counter()
            method.recluster()
            latency = time.perf_counter() - start

        clustering = method.clustering
        extra: dict = {}
        if is_dynamicc and not observing:
            stats = method.last_round_stats
            extra = {
                "verifications": stats.verifications,
                "merges": stats.merges_applied,
                "splits": stats.splits_applied,
                "candidates": stats.candidates_scored,
                "rejected": stats.rejected,
                "capped": stats.capped,
            }
        run.rounds.append(
            RoundRecord(
                index=index,
                phase="observe" if observing else "predict",
                latency=latency,
                num_clusters=clustering.num_clusters(),
                labels=clustering.labels(),
                score=score_fn(clustering) if score_fn else None,
                extra=extra,
            )
        )
    if is_dynamicc and not trained:
        raise ValueError(
            "train_rounds consumed every snapshot; leave prediction rounds"
        )
    return run


def f1_against_reference(run: MethodRun, reference: MethodRun) -> list[PairMetrics]:
    """Per-round pair metrics of a method against the batch reference.

    Reference round indices are matched by snapshot index (the batch run
    has a round 0 for the initial clustering; incremental runs start at
    round 1).
    """
    ref_by_index = {r.index: r for r in reference.rounds}
    out = []
    for record in run.predict_rounds():
        ref = ref_by_index[record.index]
        out.append(pair_metrics(record.labels, ref.labels))
    return out
