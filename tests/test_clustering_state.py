"""Unit tests for the Clustering state structure and its invariants."""

import random

import pytest

from repro.clustering.state import Clustering

from paper_example import PAPER_FINAL_CLUSTERING, PAPER_IDS


class TestConstruction:
    def test_singletons(self, paper_graph):
        clustering = Clustering.singletons(paper_graph)
        assert clustering.num_clusters() == 7
        assert clustering.num_objects() == 7
        clustering.check_invariants()

    def test_from_groups(self, paper_graph):
        clustering = Clustering.from_groups(
            paper_graph, [sorted(group) for group in PAPER_FINAL_CLUSTERING]
        )
        assert clustering.as_partition() == PAPER_FINAL_CLUSTERING
        clustering.check_invariants()

    def test_from_labels(self, paper_graph):
        labels = {PAPER_IDS["r1"]: 0, PAPER_IDS["r7"]: 0, PAPER_IDS["r2"]: 1}
        clustering = Clustering.from_labels(paper_graph, labels)
        assert clustering.num_clusters() == 2
        assert clustering.cluster_of(PAPER_IDS["r1"]) == clustering.cluster_of(
            PAPER_IDS["r7"]
        )

    def test_copy_is_independent(self, paper_singletons):
        dup = paper_singletons.copy()
        cid_a = dup.cluster_of(PAPER_IDS["r1"])
        cid_b = dup.cluster_of(PAPER_IDS["r2"])
        dup.merge(cid_a, cid_b)
        assert paper_singletons.num_clusters() == 7
        assert dup.num_clusters() == 6

    def test_double_add_rejected(self, paper_singletons):
        with pytest.raises(KeyError):
            paper_singletons.add_singleton(PAPER_IDS["r1"])


class TestMergeSplit:
    def test_merge_updates_intra(self, paper_singletons):
        c = paper_singletons
        cid = c.merge(c.cluster_of(PAPER_IDS["r1"]), c.cluster_of(PAPER_IDS["r7"]))
        assert c.intra_weight(cid) == pytest.approx(1.0)
        assert c.size(cid) == 2
        c.check_invariants()

    def test_merge_mints_fresh_id(self, paper_singletons):
        c = paper_singletons
        a = c.cluster_of(PAPER_IDS["r1"])
        b = c.cluster_of(PAPER_IDS["r2"])
        new = c.merge(a, b)
        assert new not in (a, b)
        assert not c.contains_cluster(a)
        assert not c.contains_cluster(b)

    def test_merge_self_rejected(self, paper_singletons):
        cid = paper_singletons.cluster_of(PAPER_IDS["r1"])
        with pytest.raises(ValueError):
            paper_singletons.merge(cid, cid)

    def test_split_reverses_merge(self, paper_singletons):
        c = paper_singletons
        cid = c.merge(c.cluster_of(PAPER_IDS["r4"]), c.cluster_of(PAPER_IDS["r5"]))
        cid = c.merge(cid, c.cluster_of(PAPER_IDS["r6"]))
        rest, part = c.split(cid, {PAPER_IDS["r6"]})
        assert c.members(part) == frozenset({PAPER_IDS["r6"]})
        assert c.members(rest) == frozenset({PAPER_IDS["r4"], PAPER_IDS["r5"]})
        assert c.intra_weight(rest) == pytest.approx(0.9)
        c.check_invariants()

    def test_split_requires_proper_subset(self, paper_singletons):
        c = paper_singletons
        cid = c.merge(c.cluster_of(PAPER_IDS["r4"]), c.cluster_of(PAPER_IDS["r5"]))
        with pytest.raises(ValueError):
            c.split(cid, {PAPER_IDS["r4"], PAPER_IDS["r5"]})
        with pytest.raises(ValueError):
            c.split(cid, set())

    def test_average_intra_similarity_singleton_is_one(self, paper_singletons):
        cid = paper_singletons.cluster_of(PAPER_IDS["r1"])
        assert paper_singletons.average_intra_similarity(cid) == 1.0

    def test_average_intra_similarity(self, paper_graph):
        c = Clustering.from_groups(
            paper_graph,
            [[PAPER_IDS["r4"], PAPER_IDS["r5"], PAPER_IDS["r6"]]],
        )
        cid = next(iter(c.cluster_ids()))
        assert c.average_intra_similarity(cid) == pytest.approx((0.9 + 0.8 + 0.7) / 3)


class TestMoveAndRemove:
    def test_move(self, paper_old_clustering):
        c = paper_old_clustering
        source = c.cluster_of(PAPER_IDS["r1"])
        target = c.cluster_of(PAPER_IDS["r4"])
        c.move(PAPER_IDS["r1"], target)
        assert c.cluster_of(PAPER_IDS["r1"]) == target
        assert c.size(source) == 2
        c.check_invariants()

    def test_move_last_member_dissolves_source(self, paper_singletons):
        c = paper_singletons
        source = c.cluster_of(PAPER_IDS["r1"])
        target = c.cluster_of(PAPER_IDS["r2"])
        c.move(PAPER_IDS["r1"], target)
        assert not c.contains_cluster(source)
        c.check_invariants()

    def test_move_to_same_cluster_is_noop(self, paper_singletons):
        c = paper_singletons
        cid = c.cluster_of(PAPER_IDS["r1"])
        assert c.move(PAPER_IDS["r1"], cid) == cid

    def test_remove_object(self, paper_old_clustering):
        c = paper_old_clustering
        cid = c.cluster_of(PAPER_IDS["r2"])
        before = c.intra_weight(cid)
        c.remove_object(PAPER_IDS["r2"])
        assert PAPER_IDS["r2"] not in c
        # r2 carried the r1-r2 (0.9) and r2-r3 (0.9) intra edges.
        assert c.intra_weight(c.cluster_of(PAPER_IDS["r1"])) == pytest.approx(
            before - 1.8
        )
        c.check_invariants()

    def test_remove_last_member_drops_cluster(self, paper_singletons):
        c = paper_singletons
        assert c.remove_object(PAPER_IDS["r1"]) is None
        assert c.num_clusters() == 6


class TestCrossClusterReads:
    def test_cross_weight(self, paper_old_clustering):
        c = paper_old_clustering
        c1 = c.cluster_of(PAPER_IDS["r1"])
        c2 = c.cluster_of(PAPER_IDS["r4"])
        assert c.cross_weight(c1, c2) == 0.0

    def test_neighbor_clusters(self, paper_graph):
        c = Clustering.from_groups(
            paper_graph,
            [
                [PAPER_IDS["r1"], PAPER_IDS["r2"]],
                [PAPER_IDS["r3"]],
                [PAPER_IDS["r7"]],
            ],
        )
        cid = c.cluster_of(PAPER_IDS["r1"])
        nbrs = c.neighbor_clusters(cid)
        assert nbrs == {
            c.cluster_of(PAPER_IDS["r3"]): pytest.approx(0.9),
            c.cluster_of(PAPER_IDS["r7"]): pytest.approx(1.0),
        }

    def test_average_cross_similarity(self, paper_graph):
        c = Clustering.from_groups(
            paper_graph,
            [[PAPER_IDS["r4"], PAPER_IDS["r5"]], [PAPER_IDS["r6"]]],
        )
        a = c.cluster_of(PAPER_IDS["r4"])
        b = c.cluster_of(PAPER_IDS["r6"])
        assert c.average_cross_similarity(a, b) == pytest.approx((0.8 + 0.7) / 2)

    def test_labels_roundtrip(self, paper_old_clustering):
        labels = paper_old_clustering.labels()
        rebuilt = Clustering.from_labels(paper_old_clustering.graph, labels)
        assert rebuilt.as_partition() == paper_old_clustering.as_partition()


def _row_sums(clustering, cid):
    """Each member's similarity to the rest of its cluster, in row order."""
    members = clustering.members_view(cid)
    neighbors = clustering.graph.neighbors
    return {
        obj_id: sum(sim for other, sim in neighbors(obj_id).items() if other in members)
        for obj_id in members
    }


def _reference_ranking(clustering, cid, limit):
    """The full sort Algorithm 2 ranks by: (row-order sum, obj_id)."""
    sums = _row_sums(clustering, cid)
    ranked = sorted((weight, obj_id) for obj_id, weight in sums.items())
    return [obj_id for _, obj_id in ranked[:limit]]


LIMITS = (1, 2, 3, None)


def _has_tie(clustering, cid):
    sums = _row_sums(clustering, cid)
    return len(set(sums.values())) < len(sums)


def _assert_rankings(clustering):
    for cid in clustering.cluster_ids():
        for limit in LIMITS:
            assert clustering.weakest_members(cid, limit) == _reference_ranking(
                clustering, cid, limit
            ), (cid, limit, sorted(clustering.members_view(cid)))


def _assert_rebuilt_agrees(clustering):
    """copy() and from_labels (checkpoint restore) rank like the live state."""
    for rebuilt in (
        clustering.copy(),
        Clustering.from_labels(clustering.graph, clustering.labels()),
    ):
        rebuilt.check_invariants()
        for cid in clustering.cluster_ids():
            twin = rebuilt.cluster_of(next(iter(clustering.members_view(cid))))
            for limit in LIMITS:
                assert rebuilt.weakest_members(twin, limit) == (
                    clustering.weakest_members(cid, limit)
                )


class TestWeakestMembers:
    """The maintained link weights against a from-scratch full sort."""

    def test_paper_example(self, paper_graph):
        c = Clustering.from_groups(
            paper_graph,
            [[PAPER_IDS[r] for r in ("r1", "r2", "r3", "r7")]],
        )
        cid = c.cluster_of(PAPER_IDS["r1"])
        # Intra links: r7 1.0 (r1), r3 0.9 (r2), r2 1.8, r1 1.9.
        expected = [PAPER_IDS[r] for r in ("r3", "r7", "r2", "r1")]
        assert c.weakest_members(cid) == expected
        assert c.weakest_members(cid, 2) == expected[:2]
        assert c.weakest_members(cid, 10) == expected

    def test_singleton_and_pair(self, paper_graph):
        c = Clustering.from_groups(
            paper_graph, [[PAPER_IDS["r1"]], [PAPER_IDS["r4"], PAPER_IDS["r5"]]]
        )
        single = c.cluster_of(PAPER_IDS["r1"])
        pair = c.cluster_of(PAPER_IDS["r4"])
        for limit in LIMITS:
            assert c.weakest_members(single, limit) == [PAPER_IDS["r1"]]
        _assert_rankings(c)
        # Both members of a pair carry the one shared edge: an exact tie.
        assert c.weakest_members(pair, 1) == [min(PAPER_IDS["r4"], PAPER_IDS["r5"])]

    def test_exact_ties_break_on_object_id(self, tiny_cora):
        graph = tiny_cora.graph()
        payload = tiny_cora.records[0].payload
        for obj_id in (5, 3, 9, 7):
            graph.add_object(obj_id, payload)
        graph.add_object(1, tiny_cora.records[1].payload)
        c = Clustering.from_groups(graph, [[9, 1, 7, 5, 3]])
        cid = c.cluster_of(3)
        c.check_invariants()
        # Four identical rows: the same sum, ordered by object id.
        assert c.weakest_members(cid)[-4:] == [3, 5, 7, 9]
        assert c.weakest_members(cid, 2) == c.weakest_members(cid)[:2]
        _assert_rankings(c)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_mutations_match_full_sort(self, seed):
        from repro.data.generators import generate_cora

        rng = random.Random(seed)
        dataset = generate_cora(n_entities=12, n_duplicates=48, seed=seed)
        payloads = [record.payload for record in dataset.records]
        graph = dataset.graph()
        c = Clustering(graph)
        pending = list(range(len(payloads)))
        rng.shuffle(pending)
        live: list[int] = []

        def add(obj_id):
            graph.add_object(obj_id, payloads[obj_id])
            c.add_singleton(obj_id)
            live.append(obj_id)

        for obj_id in pending[:30]:
            add(obj_id)
        del pending[:30]

        def neighbour_cluster(obj_id):
            cid = c.cluster_of(obj_id)
            others = [
                c.cluster_of(other)
                for other in graph.neighbors(obj_id)
                if other in c and c.cluster_of(other) != cid
            ]
            if others and rng.random() < 0.8:
                return rng.choice(others)
            return rng.choice([x for x in c.cluster_ids() if x != cid] or [None])

        kinds = ["add", "merge", "merge", "merge", "split", "move", "remove", "update"]
        largest = 0
        ties = 0
        for step in range(200):
            kind = rng.choice(kinds)
            if kind == "add" and pending:
                add(pending.pop())
            elif kind == "merge" and c.num_clusters() > 1:
                obj_id = rng.choice(live)
                other = neighbour_cluster(obj_id)
                if other is not None:
                    c.merge(c.cluster_of(obj_id), other)
            elif kind == "split":
                big = [cid for cid in c.cluster_ids() if c.size(cid) > 1]
                if big:
                    cid = rng.choice(big)
                    members = sorted(c.members_view(cid))
                    size = 1 if rng.random() < 0.5 else rng.randint(1, len(members) - 1)
                    c.split(cid, rng.sample(members, size))
            elif kind == "move" and c.num_clusters() > 1:
                obj_id = rng.choice(live)
                target = neighbour_cluster(obj_id)
                if target is not None:
                    c.move(obj_id, target)
            elif kind == "remove" and len(live) > 2:
                obj_id = live.pop(rng.randrange(len(live)))
                c.remove_object(obj_id)
                graph.remove_object(obj_id)
            elif kind == "update":
                # Remove, graph update, re-add (§6.1); often a verbatim
                # copy of another record, which makes exact ties.
                obj_id = rng.choice(live)
                c.remove_object(obj_id)
                graph.update_object(obj_id, rng.choice(payloads))
                c.add_singleton(obj_id)
            c.check_invariants()
            _assert_rankings(c)
            if step % 25 == 0:
                _assert_rebuilt_agrees(c)
            largest = max(largest, *(c.size(cid) for cid in c.cluster_ids()))
            ties += sum(
                _has_tie(c, cid) for cid in c.cluster_ids() if c.size(cid) > 2
            )
        _assert_rebuilt_agrees(c)
        # The sequence reached clusters where the shortlist is a strict
        # subset, and exact ties beyond the two-member case.
        assert largest >= 8
        assert ties > 0
