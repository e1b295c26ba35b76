"""Unit tests for the dynamic similarity graph."""

import pytest

from repro.clustering.batch import HillClimbing
from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_cora
from repro.data.workload import OperationMix, build_workload
from repro.similarity import (
    JaccardSimilarity,
    SimilarityGraph,
    TokenBlockingIndex,
    WeightedCombination,
)
from repro.similarity.table import TableSimilarity

from paper_example import PAPER_EDGES, PAPER_IDS, build_paper_graph


class TestConstruction:
    def test_paper_total_weight(self, paper_graph):
        # Example 4.1: F(L1) = total weight = 5.2 over singletons.
        assert paper_graph.total_weight == pytest.approx(5.2)

    def test_edge_count(self, paper_graph):
        assert paper_graph.edge_count() == len(PAPER_EDGES)

    def test_similarity_lookup(self, paper_graph):
        assert paper_graph.similarity(
            PAPER_IDS["r1"], PAPER_IDS["r7"]
        ) == pytest.approx(1.0)
        assert paper_graph.similarity(PAPER_IDS["r1"], PAPER_IDS["r4"]) == 0.0

    def test_self_similarity_zero(self, paper_graph):
        assert paper_graph.similarity(PAPER_IDS["r1"], PAPER_IDS["r1"]) == 0.0

    def test_store_threshold_validation(self):
        with pytest.raises(ValueError):
            SimilarityGraph(JaccardSimilarity(), store_threshold=1.5)

    def test_duplicate_add_rejected(self, paper_graph):
        with pytest.raises(KeyError):
            paper_graph.add_object(PAPER_IDS["r1"], "r1")

    def test_missing_remove_rejected(self, paper_graph):
        with pytest.raises(KeyError):
            paper_graph.remove_object(999)

    def test_threshold_filters_edges(self):
        table = TableSimilarity({("a", "b"): 0.04, ("a", "c"): 0.5})
        graph = SimilarityGraph(table, store_threshold=0.1)
        for obj_id, payload in enumerate(["a", "b", "c"], start=1):
            graph.add_object(obj_id, payload)
        assert graph.similarity(1, 2) == 0.0  # below threshold: not stored
        assert graph.similarity(1, 3) == 0.5


class TestDynamicOperations:
    def test_remove_updates_weight(self):
        graph = build_paper_graph()
        graph.remove_object(PAPER_IDS["r7"])  # drops the 1.0 edge
        assert graph.total_weight == pytest.approx(4.2)
        assert PAPER_IDS["r7"] not in graph

    def test_update_rescores(self):
        table = TableSimilarity({("a", "b"): 0.9, ("a2", "b"): 0.2})
        graph = SimilarityGraph(table, store_threshold=0.1)
        graph.add_object(1, "a")
        graph.add_object(2, "b")
        assert graph.similarity(1, 2) == pytest.approx(0.9)
        graph.update_object(1, "a2")
        assert graph.similarity(1, 2) == pytest.approx(0.2)
        assert graph.payload(1) == "a2"

    def test_version_bumps(self):
        graph = build_paper_graph()
        v0 = graph.version
        graph.remove_object(PAPER_IDS["r6"])
        assert graph.version > v0

    def test_add_after_remove(self):
        graph = build_paper_graph()
        graph.remove_object(PAPER_IDS["r6"])
        graph.add_object(PAPER_IDS["r6"], "r6")
        assert graph.similarity(PAPER_IDS["r6"], PAPER_IDS["r4"]) == pytest.approx(0.8)


class TestAggregates:
    def test_intra_weight(self, paper_graph):
        members = {PAPER_IDS["r4"], PAPER_IDS["r5"], PAPER_IDS["r6"]}
        assert paper_graph.intra_weight(members) == pytest.approx(0.9 + 0.8 + 0.7)

    def test_cross_weight(self, paper_graph):
        left = {PAPER_IDS["r1"], PAPER_IDS["r2"]}
        right = {PAPER_IDS["r3"], PAPER_IDS["r7"]}
        assert paper_graph.cross_weight(left, right) == pytest.approx(0.9 + 1.0)

    def test_cross_weight_requires_disjoint(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.cross_weight({1, 2}, {2, 3})

    def test_component_of(self, paper_graph):
        component = paper_graph.component_of([PAPER_IDS["r4"]])
        assert component == {PAPER_IDS["r4"], PAPER_IDS["r5"], PAPER_IDS["r6"]}

    def test_components_partition_objects(self, paper_graph):
        components = paper_graph.components()
        all_ids = set()
        for component in components:
            assert not (component & all_ids)
            all_ids |= component
        assert all_ids == set(PAPER_IDS.values())
        assert len(components) == 2  # {r1,r2,r3,r7} and {r4,r5,r6}

    def test_edges_iterated_once(self, paper_graph):
        edges = list(paper_graph.edges())
        assert len(edges) == paper_graph.edge_count()
        assert all(a < b for a, b, _ in edges)


class TestBatchedMaintenance:
    def test_noop_update_returns_early(self):
        """Satellite: a payload-identical update must not rescore edges
        (and must not bump the version, so derived caches stay valid)."""
        table = TableSimilarity({("a", "b"): 0.9})
        graph = SimilarityGraph(table, store_threshold=0.1)
        graph.add_object(1, "a")
        graph.add_object(2, "b")
        version = graph.version
        calls = 0
        original = table.similarity

        def counting(x, y):
            nonlocal calls
            calls += 1
            return original(x, y)

        table.similarity = counting
        graph.update_object(1, "a")
        assert calls == 0
        assert graph.version == version
        assert graph.similarity(1, 2) == pytest.approx(0.9)

    def test_noop_update_with_numpy_payload(self):
        import numpy as np

        from repro.similarity import EuclideanSimilarity

        graph = SimilarityGraph(EuclideanSimilarity(scale=1.0))
        graph.add_object(1, np.array([1.0, 2.0]))
        graph.add_object(2, np.array([1.1, 2.1]))
        version = graph.version
        graph.update_object(1, np.array([1.0, 2.0]))  # equal array, new object
        assert graph.version == version
        graph.update_object(1, np.array([9.0, 9.0]))  # a real change rescores
        assert graph.version > version

    def test_update_of_missing_object_rejected(self):
        graph = build_paper_graph()
        with pytest.raises(KeyError):
            graph.update_object(999, "zzz")

    def test_add_objects_matches_serial_adds(self):
        """The batched round-level insert must build the exact graph the
        serial path builds (same edges, same total weight)."""
        payloads = {
            1: "alpha beta",
            2: "beta gamma",
            3: "gamma delta",
            4: "alpha delta",
        }
        serial = SimilarityGraph(JaccardSimilarity(), store_threshold=0.05)
        for obj_id, payload in payloads.items():
            serial.add_object(obj_id, payload)
        batched = SimilarityGraph(JaccardSimilarity(), store_threshold=0.05)
        batched.add_objects(payloads)
        assert dict(batched.neighbors(1)) == dict(serial.neighbors(1))
        assert batched.total_weight == pytest.approx(serial.total_weight)
        assert batched.edge_count() == serial.edge_count()
        # One structural change for the whole round.
        assert batched.version == 1

    def test_add_objects_scores_each_pair_once(self):
        fn = JaccardSimilarity()
        calls = 0
        original = fn.similarity

        def counting(a, b):
            nonlocal calls
            calls += 1
            return original(a, b)

        fn.similarity = counting
        graph = SimilarityGraph(fn, store_threshold=0.0)
        graph.add_objects({i: f"tok{i} shared" for i in range(5)})
        assert calls == 5 * 4 // 2  # each unordered pair exactly once

    def test_prepare_runs_once_per_object(self):
        fn = JaccardSimilarity()
        prepares = 0
        original = fn.prepare

        def counting(payload):
            nonlocal prepares
            prepares += 1
            return original(payload)

        fn.prepare = counting
        graph = SimilarityGraph(fn, store_threshold=0.0)
        graph.add_objects({i: f"tok{i} shared" for i in range(6)})
        assert prepares == 6


# ---------------------------------------------------------------------------
# Count-based Jaccard scoring against the per-pair reference
# ---------------------------------------------------------------------------
def _identity(payload):
    return payload


def _reference():
    """Plain Jaccard behind a wrapper: the graph scores it pair by pair."""
    return WeightedCombination([(JaccardSimilarity(), 1.0)])


def _cora_workload(seed):
    dataset = generate_cora(n_entities=30, n_duplicates=120, seed=seed)
    return build_workload(
        dataset,
        initial_count=80,
        n_snapshots=8,
        mixes=OperationMix(add=0.1, remove=0.04, update=0.06),
        seed=seed + 1,
    )


def _replay(graph, workload):
    """Seeded add/remove/update rounds, then the edge cases by hand."""
    graph.add_objects(workload.initial)
    for snapshot in workload.snapshots:
        for obj_id in snapshot.removed:
            graph.remove_object(obj_id)
        for obj_id, payload in snapshot.updated.items():
            graph.update_object(obj_id, payload)
        graph.add_objects(snapshot.added)
    live = sorted(graph.object_ids())
    fresh = max(live) + 1
    graph.add_objects({fresh: frozenset(), fresh + 1: frozenset()})  # empty sets
    reused, donor, noop = live[0], live[1], live[2]
    graph.remove_object(reused)
    graph.add_object(reused, graph.payload(donor) | {"reused-token"})
    graph.update_object(noop, frozenset(set(graph.payload(noop))))  # no-op
    graph.update_object(donor, frozenset())  # non-empty -> empty
    graph.add_object(fresh + 2, graph.payload(reused))
    return graph


def _rows(graph):
    """Every adjacency row in stored order, with exact floats."""
    return {obj_id: list(graph.neighbors(obj_id).items()) for obj_id in graph.object_ids()}


class TestCountScoring:
    """Token-blocked Jaccard scored from shared-token counts must store
    the per-pair reference's rows (same order, same floats) and total
    weight, exactly."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("max_block_size", [4, 200, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.6])
    def test_matches_per_pair_reference(self, seed, max_block_size, threshold):
        workload = _cora_workload(seed)
        counted, reference = (
            _replay(
                SimilarityGraph(
                    similarity,
                    index=TokenBlockingIndex(key=_identity, max_block_size=max_block_size),
                    store_threshold=threshold,
                ),
                workload,
            )
            for similarity in (JaccardSimilarity(), _reference())
        )
        assert counted._count_scoring and not reference._count_scoring
        assert _rows(counted) == _rows(reference)
        assert counted.total_weight == reference.total_weight
        assert counted.edge_count() > 0

    @pytest.mark.parametrize("reverse", [False, True])
    def test_edge_exactly_at_threshold_kept(self, reverse):
        """A subset scores exactly ``count / size``: the bound's edge case."""
        payloads = [frozenset("abcd"), frozenset("a"), frozenset("abcde")]
        if reverse:
            payloads.reverse()
        graph = SimilarityGraph(
            JaccardSimilarity(),
            index=TokenBlockingIndex(key=_identity),
            store_threshold=0.25,
        )
        graph.add_objects(dict(enumerate(payloads)))
        assert graph._count_scoring
        by_payload = {graph.payload(i): i for i in graph.object_ids()}
        assert graph.similarity(by_payload[frozenset("abcd")], by_payload[frozenset("a")]) == 0.25
        assert graph.similarity(by_payload[frozenset("abcde")], by_payload[frozenset("a")]) == 0.0

    @pytest.mark.parametrize(
        "key",
        [
            None,  # default tokenize(str(payload)): not the payload's tokens
            lambda payload: payload if len(payload) % 2 else list(payload) * 2,
        ],
        ids=["default-key", "mismatch-mid-stream"],
    )
    def test_mismatched_key_falls_back(self, key):
        workload = _cora_workload(5)
        counted, reference = (
            _replay(
                SimilarityGraph(
                    similarity, index=TokenBlockingIndex(key=key), store_threshold=0.25
                ),
                workload,
            )
            for similarity in (JaccardSimilarity(), _reference())
        )
        assert not counted._count_scoring
        assert _rows(counted) == _rows(reference)
        assert counted.total_weight == reference.total_weight

    def test_unguarded_edges_equal_brute_force(self):
        workload = _cora_workload(7)
        blocked = _replay(
            SimilarityGraph(
                JaccardSimilarity(),
                index=TokenBlockingIndex(key=_identity, max_block_size=None),
                store_threshold=0.0,
            ),
            workload,
        )
        brute = _replay(SimilarityGraph(JaccardSimilarity(), store_threshold=0.0), workload)
        assert set(blocked.edges()) == set(brute.edges())

    def test_dynamicc_partitions_match_reference(self):
        dataset = generate_cora(n_entities=30, n_duplicates=120, seed=13)
        workload = build_workload(
            dataset,
            initial_count=70,
            n_snapshots=8,
            mixes=OperationMix(add=0.1, remove=0.02, update=0.04),
            seed=14,
        )
        partitions, graphs = [], []
        for similarity in (dataset.similarity, _reference()):
            graph = SimilarityGraph(
                similarity,
                index=dataset.index_factory(),
                store_threshold=dataset.store_threshold,
            )
            graphs.append(graph)
            graph.add_objects(workload.initial)
            dyn = DynamicC(graph, DBIndexObjective(), seed=0)
            dyn.bootstrap(HillClimbing(DBIndexObjective()).cluster(graph))
            rounds = []
            for number, snapshot in enumerate(workload.snapshots):
                ops = dict(
                    added=snapshot.added, removed=snapshot.removed, updated=snapshot.updated
                )
                if number < 3:
                    dyn.observe_round(**ops)
                    if number == 2:
                        dyn.train()
                else:
                    dyn.ingest(**ops)
                    dyn.recluster()
                rounds.append(dyn.clustering.as_partition())
            partitions.append(rounds)
        assert [graph._count_scoring for graph in graphs] == [True, False]
        assert partitions[0] == partitions[1]
        assert len(partitions[0][-1]) > 1
