"""Integration tests: the full DynamicC life cycle on small workloads."""

import numpy as np
import pytest

from repro.clustering.baselines import GreedyIncremental, NaiveIncremental
from repro.clustering.batch import DBSCAN, HillClimbing
from repro.clustering.objectives import CorrelationObjective, DBIndexObjective
from repro.core import DynamicC, DynamicCConfig, make_dynamic_dbscan
from repro.data.generators import generate_access, generate_cora
from repro.data.workload import OperationMix, build_workload
from repro.eval import pair_metrics
from repro.eval.harness import (
    f1_against_reference,
    run_batch_per_round,
    run_incremental,
)


@pytest.fixture(scope="module")
def cora_workload():
    dataset = generate_cora(n_entities=40, n_duplicates=140, seed=21)
    workload = build_workload(
        dataset,
        initial_count=70,
        n_snapshots=6,
        mixes=OperationMix(add=0.2, remove=0.03, update=0.03),
        seed=5,
    )
    return dataset, workload


@pytest.fixture(scope="module")
def cora_reference(cora_workload):
    _, workload = cora_workload
    return run_batch_per_round(workload, lambda: HillClimbing(DBIndexObjective()))


class TestDynamicCLifecycle:
    def test_untrained_apply_round_raises(self, paper_graph):
        dyn = DynamicC(paper_graph, CorrelationObjective())
        with pytest.raises(RuntimeError):
            dyn.apply_round(added={100: "x"})

    def test_observe_then_train_then_predict(self, cora_workload):
        dataset, workload = cora_workload
        graph = dataset.graph()
        for obj_id, payload in workload.initial.items():
            graph.add_object(obj_id, payload)
        objective = DBIndexObjective()
        dyn = DynamicC(graph, objective, seed=1)
        dyn.bootstrap(HillClimbing(DBIndexObjective()).cluster(graph))

        for snapshot in workload.snapshots[:3]:
            _, stats = dyn.observe_round(
                added=snapshot.added,
                removed=snapshot.removed,
                updated=snapshot.updated,
            )
            assert stats.samples["merge_positive"] >= 0
        report = dyn.train()
        assert report.merge_samples > 0
        # The θ rule guarantees ~100% *nomination* recall regardless of the
        # 0.5-threshold recall reported here.
        assert 0.0 < report.merge_theta <= 1.0

        before = objective.score(dyn.clustering)
        snapshot = workload.snapshots[3]
        dyn.apply_round(
            added=snapshot.added, removed=snapshot.removed, updated=snapshot.updated
        )
        dyn.clustering.check_invariants()
        stats = dyn.last_round_stats
        assert stats.iterations >= 1

    def test_convergence_within_iteration_cap(self, cora_workload):
        dataset, workload = cora_workload
        run = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), config=DynamicCConfig(), seed=2),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        for record in run.predict_rounds():
            assert record.extra["verifications"] >= 0

    @pytest.mark.parametrize("cap", [1, 25])
    def test_round_stopped_by_iteration_cap_is_counted(self, cora_workload, cap):
        _, workload = cora_workload
        config = DynamicCConfig(max_full_iterations=cap)
        run = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), config=config, seed=2),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        first = run.predict_rounds()[0].extra
        # The round's single iteration changed the clustering, so under a
        # cap of 1 it stopped without the converging no-change iteration.
        assert first["merges"] + first["splits"] > 0
        assert first["capped"] == (1 if cap == 1 else 0)

    def test_quality_close_to_batch(self, cora_workload, cora_reference):
        _, workload = cora_workload
        run = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), seed=3),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        metrics = f1_against_reference(run, cora_reference)
        assert np.mean([m.f1 for m in metrics]) > 0.8

    def test_beats_naive_quality(self, cora_workload, cora_reference):
        _, workload = cora_workload
        dyn = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), seed=3),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        naive = run_incremental(
            workload,
            lambda g: NaiveIncremental(g, threshold=0.4),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
        )
        dyn_f1 = np.mean([m.f1 for m in f1_against_reference(dyn, cora_reference)])
        naive_f1 = np.mean(
            [m.f1 for m in f1_against_reference(naive, cora_reference)[3:]]
        )
        assert dyn_f1 > naive_f1

    def test_faster_than_batch(self, cora_workload, cora_reference):
        _, workload = cora_workload
        run = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), seed=3),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        batch_latency = sum(r.latency for r in cora_reference.rounds[4:])
        assert run.total_latency() < batch_latency

    def test_retraining_hook(self, cora_workload):
        _, workload = cora_workload
        config = DynamicCConfig(retrain_every=1)
        run = run_incremental(
            workload,
            lambda g: DynamicC(g, DBIndexObjective(), config=config, seed=4),
            bootstrap=lambda g: HillClimbing(DBIndexObjective()).cluster(g),
            train_rounds=3,
        )
        assert len(run.predict_rounds()) == 3


class TestBaselines:
    def test_naive_merge_only(self, paper_graph):
        naive = NaiveIncremental(paper_graph, threshold=0.5)
        # Remove the extra objects so we start from the old clustering.
        naive.bootstrap(
            __import__("repro.clustering", fromlist=["Clustering"]).Clustering.singletons(
                paper_graph
            )
        )
        naive.apply_round(added={})
        assert naive.clustering.num_objects() == 7

    def test_naive_assigns_new_to_closest(self, tiny_cora):
        graph = tiny_cora.graph()
        records = tiny_cora.records
        for record in records[:40]:
            graph.add_object(record.id, record.payload)
        naive = NaiveIncremental(graph, threshold=0.3)
        from repro.clustering import Clustering

        naive.bootstrap(Clustering.singletons(graph))
        naive.apply_round()  # settle pending
        added = {r.id: r.payload for r in records[40:45]}
        naive.apply_round(added=added)
        naive.clustering.check_invariants()
        assert naive.clustering.num_objects() == 45

    def test_greedy_improves_objective(self, tiny_cora):
        graph = tiny_cora.graph()
        for record in tiny_cora.records[:50]:
            graph.add_object(record.id, record.payload)
        objective = DBIndexObjective()
        greedy = GreedyIncremental(graph, objective)
        from repro.clustering import Clustering

        greedy.bootstrap(Clustering.singletons(graph))
        added = {r.id: r.payload for r in tiny_cora.records[50:60]}
        greedy.apply_round(added=added)
        greedy.clustering.check_invariants()
        # Greedy restructures: the result should not be all singletons.
        assert greedy.clustering.num_clusters() < greedy.clustering.num_objects()


class TestDynamicDBSCAN:
    def test_tracks_batch_dbscan(self):
        dataset = generate_access(n_profiles=8, n_records=400, seed=13)
        workload = build_workload(
            dataset,
            initial_count=150,
            n_snapshots=5,
            mixes=OperationMix(add=0.15, remove=0.02, update=0.02),
            seed=3,
        )
        sim_eps, min_pts = 0.4, 4
        from repro.core import DBSCANBatchAdapter

        reference = run_batch_per_round(
            workload, lambda: DBSCANBatchAdapter(sim_eps, min_pts)
        )
        run = run_incremental(
            workload,
            lambda g: make_dynamic_dbscan(
                g, sim_eps, min_pts, config=DynamicCConfig(candidate_scope="local")
            ),
            bootstrap=lambda g: DBSCAN(sim_eps, min_pts).run(g).clustering,
            train_rounds=2,
        )
        metrics = f1_against_reference(run, reference)
        assert np.mean([m.f1 for m in metrics]) > 0.85
