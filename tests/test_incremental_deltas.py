"""Property tests for the incremental hot path.

Three guarantees the serving layer leans on:

* every objective's incremental ``delta_merge`` / ``delta_split`` /
  ``delta_move`` matches the exact copy-mutate-rescore oracle
  (``exact_delta_*``) to 1e-9 on seeded random graphs and clusterings;
* the maintained per-cluster aggregates (k-means vector sums, DB-index
  term/scatter caches, the Clustering intra/adjacency sums) survive
  long random merge/split/move sequences driven through the ``apply_*``
  gateways — a fresh objective rescoring from scratch agrees at every
  checkpoint, and the DB-index caches equal a fresh rebuild, bit for
  bit, after every applied change;
* the scoped greedy-pass hill climber (dirty-cluster worklist) produces
  exactly the clustering the exhaustive full-rescan greedy produces.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.clustering.batch import HillClimbing
from repro.clustering.objectives import (
    CorrelationObjective,
    DBIndexObjective,
    KMeansObjective,
)
from repro.clustering.state import Clustering
from repro.similarity.euclidean import EuclideanSimilarity
from repro.similarity.graph import SimilarityGraph


def random_graph(seed: int, n: int = 24) -> SimilarityGraph:
    """Clumpy 2-d point set — sparse but connected similarity structure."""
    rng = random.Random(seed)
    graph = SimilarityGraph(EuclideanSimilarity(scale=1.0), store_threshold=0.2)
    centers = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(4)]
    for obj_id in range(n):
        cx, cy = centers[rng.randrange(len(centers))]
        graph.add_object(
            obj_id,
            np.array([cx + rng.gauss(0, 0.7), cy + rng.gauss(0, 0.7)]),
        )
    return graph


def random_clustering(graph: SimilarityGraph, seed: int, k: int = 6) -> Clustering:
    rng = random.Random(seed)
    labels = {obj_id: rng.randrange(k) for obj_id in graph.object_ids()}
    return Clustering.from_labels(graph, labels)


def make_objectives():
    return [
        CorrelationObjective(),
        DBIndexObjective(),
        KMeansObjective(k=4, penalty=10.0),
    ]


def make_oracle(objective):
    """A fresh twin used only for exact copy-rescore scoring, so the
    cached instance under test can never leak state into its oracle."""
    if isinstance(objective, KMeansObjective):
        return KMeansObjective(k=objective.k, penalty=objective.penalty)
    return type(objective)()


class TestDeltasMatchExactOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_all_deltas_match_copy_rescore(self, seed):
        graph = random_graph(seed)
        rng = random.Random(seed + 100)
        for objective in make_objectives():
            clustering = random_clustering(graph, seed + 1)
            if isinstance(objective, KMeansObjective):
                objective.bind_graph_payloads(clustering)
            oracle = make_oracle(objective)
            if isinstance(oracle, KMeansObjective):
                oracle.bind_graph_payloads(clustering)

            cids = list(clustering.cluster_ids())
            # Merges: every adjacent pair plus a few arbitrary ones.
            pairs = set()
            for cid in cids:
                for other in clustering.neighbor_clusters(cid):
                    pairs.add((min(cid, other), max(cid, other)))
            for _ in range(4):
                a, b = rng.sample(cids, 2)
                pairs.add((min(a, b), max(a, b)))
            for a, b in sorted(pairs):
                assert objective.delta_merge(clustering, a, b) == pytest.approx(
                    oracle.exact_delta_merge(clustering, a, b), abs=1e-9
                ), f"{objective.name} delta_merge({a},{b}) seed={seed}"

            # Splits: a random member out of every multi-member cluster.
            for cid in cids:
                members = sorted(clustering.members_view(cid))
                if len(members) < 2:
                    continue
                part = {rng.choice(members)}
                assert objective.delta_split(clustering, cid, part) == pytest.approx(
                    oracle.exact_delta_split(clustering, cid, part), abs=1e-9
                ), f"{objective.name} delta_split({cid}) seed={seed}"

            # Moves: random objects into random other clusters.
            objects = sorted(clustering.labels())
            for _ in range(8):
                obj_id = rng.choice(objects)
                target = rng.choice(cids)
                if target == clustering.cluster_of(obj_id):
                    continue
                assert objective.delta_move(clustering, obj_id, target) == pytest.approx(
                    oracle.exact_delta_move(clustering, obj_id, target), abs=1e-9
                ), f"{objective.name} delta_move({obj_id}->{target}) seed={seed}"

            # Group merges: chains of 3 mutually-listed clusters.
            if len(cids) >= 3:
                group = rng.sample(cids, 3)
                assert objective.delta_merge_group(
                    clustering, group
                ) == pytest.approx(
                    oracle.exact_delta_merge_group(clustering, group), abs=1e-9
                ), f"{objective.name} delta_merge_group seed={seed}"


class TestSubEpsilonEdges:
    """Edges at or below ``Clustering._ADJ_EPS`` are stored (the graph
    accepts thresholds down to 0) but never enter the cluster adjacency;
    the deltas must prune cross weights the way the mutations do."""

    def test_split_and_move_match_oracle(self):
        graph = SimilarityGraph(EuclideanSimilarity(scale=1.0), store_threshold=1e-15)
        for obj_id, x in enumerate((0.0, 0.1, 21.5, 21.6)):
            graph.add_object(obj_id, np.array([x, 0.0]))
        assert 0.0 < graph.neighbors(0)[3] <= Clustering._ADJ_EPS
        clustering = Clustering.from_labels(graph, {0: 0, 1: 0, 2: 0, 3: 1})
        source, target = clustering.cluster_of(0), clustering.cluster_of(3)
        objective, oracle = DBIndexObjective(), DBIndexObjective()
        assert objective.delta_split(clustering, source, {2}) == pytest.approx(
            oracle.exact_delta_split(clustering, source, {2}), abs=1e-9
        )
        assert objective.delta_move(clustering, 2, target) == pytest.approx(
            oracle.exact_delta_move(clustering, 2, target), abs=1e-9
        )


class TestAggregatesSurviveLongSequences:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_gateway_mutations_keep_caches_exact(self, seed):
        graph = random_graph(seed, n=30)
        rng = random.Random(seed + 50)
        for objective in make_objectives():
            clustering = random_clustering(graph, seed + 2)
            if isinstance(objective, KMeansObjective):
                objective.bind_graph_payloads(clustering)
            objective.score(clustering)  # warm the caches

            for step in range(60):
                cids = list(clustering.cluster_ids())
                op = rng.choice(("merge", "split", "move"))
                if op == "merge" and len(cids) >= 2:
                    a, b = rng.sample(cids, 2)
                    objective.apply_merge(clustering, a, b)
                elif op == "split":
                    cid = rng.choice(cids)
                    members = sorted(clustering.members_view(cid))
                    if len(members) < 2:
                        continue
                    objective.apply_split(clustering, cid, {rng.choice(members)})
                else:
                    obj_id = rng.choice(sorted(clustering.labels()))
                    target = rng.choice(cids)
                    if not clustering.contains_cluster(target):
                        continue
                    if clustering.cluster_of(obj_id) == target:
                        continue
                    objective.apply_move(clustering, obj_id, target)

                if step % 10 == 9:
                    clustering.check_invariants()
                    oracle = make_oracle(objective)
                    if isinstance(oracle, KMeansObjective):
                        oracle.bind_graph_payloads(clustering)
                    assert objective.score(clustering) == pytest.approx(
                        oracle.score(clustering.copy()), abs=1e-8
                    ), f"{objective.name} drifted at step {step} seed={seed}"


def spread_graph(seed: int, n: int = 30) -> SimilarityGraph:
    """Clumps about 21 apart storing every edge: cross-clump similarities
    sit around ``Clustering._ADJ_EPS``, so splits and moves divide cross
    weights into halves the adjacency drops."""
    rng = random.Random(seed)
    graph = SimilarityGraph(EuclideanSimilarity(scale=1.0), store_threshold=1e-15)
    for obj_id in range(n):
        clump = rng.randrange(3)
        graph.add_object(
            obj_id, np.array([21.0 * clump + rng.gauss(0, 0.3), rng.gauss(0, 0.3)])
        )
    return graph


def assert_dbindex_cache_exact(objective: DBIndexObjective, clustering: Clustering):
    """Every cached statistic equals a fresh objective's, bit for bit
    (terms with their binding partners); the running total to 1e-8."""
    fresh = DBIndexObjective()
    fresh._refresh(clustering)
    assert objective._cached_version == clustering.version
    assert objective._sigmas == fresh._sigmas
    assert objective._sizes == fresh._sizes
    assert objective._terms == fresh._terms
    assert objective._total == pytest.approx(fresh._total, abs=1e-8)


def random_change(objective, clustering, rng) -> bool:
    """Apply one random merge, split or move through the gateways."""
    cids = list(clustering.cluster_ids())
    op = rng.choice(("merge", "split", "move"))
    if op == "merge" and len(cids) >= 2:
        objective.apply_merge(clustering, *rng.sample(cids, 2))
    elif op == "split":
        cid = rng.choice(cids)
        members = sorted(clustering.members_view(cid))
        if len(members) < 2:
            return False
        objective.apply_split(clustering, cid, {rng.choice(members)})
    else:
        obj_id = rng.choice(sorted(clustering.labels()))
        target = rng.choice(cids)
        if clustering.cluster_of(obj_id) == target:
            return False
        objective.apply_move(clustering, obj_id, target)
    return True


class TestDBIndexCacheExactness:
    """The DB-index caches (σ, sizes, R terms with their binding
    partners) equal a fresh rebuild after *every* applied change."""

    @pytest.mark.parametrize(
        "make_graph,seed",
        [(random_graph, 5), (random_graph, 6), (spread_graph, 7), (spread_graph, 8)],
    )
    def test_exact_after_every_change(self, make_graph, seed):
        graph = make_graph(seed, n=30)
        rng = random.Random(seed + 50)
        clustering = random_clustering(graph, seed + 2)
        objective = DBIndexObjective()
        objective.score(clustering)
        applied = 0
        for _ in range(120):
            if random_change(objective, clustering, rng):
                applied += 1
                assert_dbindex_cache_exact(objective, clustering)
        assert applied >= 60
        assert objective.score(clustering) == pytest.approx(
            DBIndexObjective().score(clustering.copy()), abs=1e-8
        )

    def test_rebuild_catches_bindings_the_rows_drop(self):
        """A cross weight in (ε, 2ε] that a split divides into two halves
        at or below ε drops out of every row: the neighbour borders
        neither half, yet its cached term was bound to the split cluster."""
        graph = SimilarityGraph(EuclideanSimilarity(scale=1.0), store_threshold=1e-15)
        points = [(-6.0, 0.0), (0.0, 0.0), (21.2, 1.13), (21.23, 0.0)]
        for obj_id, point in enumerate(points):
            graph.add_object(obj_id, np.array(point))
        clustering = Clustering.from_labels(graph, {0: 0, 1: 1, 2: 2, 3: 2})
        lone, pair = clustering.cluster_of(0), clustering.cluster_of(2)
        objective = DBIndexObjective()
        objective.score(clustering)
        # Object 1's two sub-ε edges into the pair enter the adjacency
        # as one summed weight when it moves.
        objective.apply_move(clustering, 1, lone)
        weight = clustering.neighbor_clusters(lone)[pair]
        assert Clustering._ADJ_EPS < weight <= 2 * Clustering._ADJ_EPS
        assert objective._terms[lone][1] == pair
        objective.apply_split(clustering, pair, {3})
        assert not clustering.neighbor_clusters(lone)
        assert_dbindex_cache_exact(objective, clustering)
        assert objective._terms[lone][1] is None


class TestScopedGreedyEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("make", [CorrelationObjective, DBIndexObjective])
    def test_scoped_matches_full_rescan(self, seed, make):
        graph = random_graph(seed, n=28)

        scoped = HillClimbing(make())
        result_scoped = scoped.cluster(graph)

        exhaustive_objective = make()
        # Forcing "global" locality disables the dirty worklist, so
        # every pass rescans every cluster — the pre-scoping behaviour.
        exhaustive_objective.locality = "global"
        exhaustive = HillClimbing(exhaustive_objective)
        result_full = exhaustive.cluster(graph)

        assert result_scoped.as_partition() == result_full.as_partition()
        fresh = make()
        assert fresh.score(result_scoped) == pytest.approx(
            make().score(result_full), abs=1e-9
        )

    @pytest.mark.parametrize("seed", [21, 22])
    def test_scoped_not_worse_than_steepest_start(self, seed):
        """Greedy-pass (scoped) still strictly improves on singletons and
        lands within the same optimisation regime as the literal
        steepest oracle on small seeded graphs."""
        graph = random_graph(seed, n=16)
        objective = DBIndexObjective()
        greedy = HillClimbing(DBIndexObjective()).cluster(graph)
        steepest = HillClimbing(DBIndexObjective(), strategy="steepest").cluster(graph)
        singletons_score = objective.score(Clustering.singletons(graph))
        greedy_score = DBIndexObjective().score(greedy)
        steepest_score = DBIndexObjective().score(steepest)
        # ≤: a seeded graph may admit no improving change at all, in
        # which case both searches must leave singletons untouched.
        assert greedy_score <= singletons_score + 1e-9
        assert steepest_score <= singletons_score + 1e-9
        # The scoped greedy search must stay in the same ballpark as the
        # exact oracle (it may differ by path, not by regime).
        assert greedy_score <= steepest_score * 1.25 + 1e-9
