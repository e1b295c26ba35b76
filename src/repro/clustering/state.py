"""Mutable clustering state with incremental per-cluster statistics.

A :class:`Clustering` is a partition of the objects of a
:class:`~repro.similarity.graph.SimilarityGraph` into clusters. It is
the object every algorithm in the library manipulates: the batch
hill-climber, DBSCAN, the Naive/Greedy baselines, and DynamicC itself.

Three design points matter for performance and for the paper's method:

* **Incremental statistics.** Three sums are maintained under every
  mutation, so no read has to rescan edges:

  - per cluster, the sum of stored edge similarities among its members
    (``S_intra`` of §3.2), which feature extraction (§5.1) and the
    correlation objective (Eq. 1) read;
  - per pair of clusters sharing an edge, their summed cross similarity
    (the cluster adjacency behind ``neighbor_clusters``);
  - per object, the summed similarity of its stored edges to the other
    members of its cluster (its *link weight*), which ranks split
    candidates (Algorithm 2, §6.3) through :meth:`Clustering.weakest_members`.

  ``add_singleton``, ``remove_object``, ``split`` and ``move`` keep all
  three inside the edge loops they already run over the touched
  objects; ``merge`` keeps the first two from the two clusters' rows
  and pays for link weights with one scan of the smaller side's edges.
* **Fresh cluster ids.** Merges and splits mint new cluster ids rather
  than reusing inputs, so a cluster id uniquely identifies a cluster
  *value* over time — which is what the evolution log (§4) needs to
  describe history unambiguously.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.similarity.graph import SimilarityGraph

#: Link weights are maintained incrementally, so their float rounding
#: differs from a fresh row-order sum; every maintained weight stays
#: within ``SLACK / 2`` of that sum (``check_invariants`` asserts it).
#: One update rounds by at most 2**-53 of the weight, so a weight of
#: 1000 drifts that far only after over four million updates of one
#: object all rounding the same way; ``split`` and ``move`` re-sum the
#: weights of the objects they detach.
SLACK = 1e-6


class Clustering:
    """A partition of graph objects with O(1) amortised statistics.

    Parameters
    ----------
    graph:
        The similarity graph the clustering is defined over. Objects are
        added to the clustering explicitly (``add_singleton``); the
        clustering never implicitly pulls objects from the graph.
    """

    #: Weights below this are dropped from the cluster adjacency to keep
    #: it sparse and to absorb floating-point cancellation.
    _ADJ_EPS = 1e-9

    def __init__(self, graph: SimilarityGraph) -> None:
        self.graph = graph
        self._members: dict[int, set[int]] = {}
        self._cluster_of: dict[int, int] = {}
        self._intra: dict[int, float] = {}
        # Cluster-level adjacency: cid -> {neighbour cid -> summed cross
        # similarity}. Maintained incrementally on every mutation so
        # neighbour lookups are O(#neighbour clusters), not O(edges).
        self._adj: dict[int, dict[int, float]] = {}
        # Link weights: obj_id -> summed similarity of its stored edges to
        # the other members of its cluster (see ``weakest_members``).
        self._link: dict[int, float] = {}
        self._next_cluster_id = 0
        #: Monotonic counter bumped on every mutation; objective-function
        #: caches key on it.
        self.version = 0

    # ------------------------------------------------------------------
    # Cluster adjacency maintenance helpers
    # ------------------------------------------------------------------
    def _adj_add(self, cid_a: int, cid_b: int, weight: float) -> None:
        """Add cross weight between two live clusters (symmetric)."""
        if weight <= self._ADJ_EPS or cid_a == cid_b:
            return
        row_a = self._adj[cid_a]
        row_b = self._adj[cid_b]
        row_a[cid_b] = row_a.get(cid_b, 0.0) + weight
        row_b[cid_a] = row_b.get(cid_a, 0.0) + weight

    def _adj_sub(self, cid_a: int, cid_b: int, weight: float) -> None:
        """Subtract cross weight between two live clusters (symmetric)."""
        if weight <= self._ADJ_EPS or cid_a == cid_b:
            return
        for row, other in ((self._adj[cid_a], cid_b), (self._adj[cid_b], cid_a)):
            remaining = row.get(other, 0.0) - weight
            if remaining <= self._ADJ_EPS:
                row.pop(other, None)
            else:
                row[other] = remaining

    def _adj_drop_cluster(self, cid: int) -> None:
        """Remove a dissolved cluster from the adjacency."""
        for other in self._adj.pop(cid):
            self._adj[other].pop(cid, None)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, graph: SimilarityGraph, object_ids: Iterable[int] | None = None) -> "Clustering":
        """Each object in its own cluster (the batch from-scratch start, §4.2)."""
        clustering = cls(graph)
        ids = object_ids if object_ids is not None else graph.object_ids()
        for obj_id in ids:
            clustering.add_singleton(obj_id)
        return clustering

    @classmethod
    def from_groups(cls, graph: SimilarityGraph, groups: Iterable[Iterable[int]]) -> "Clustering":
        """Build a clustering from explicit member groups."""
        clustering = cls(graph)
        for group in groups:
            members = list(group)
            if not members:
                continue
            cid = clustering.add_singleton(members[0])
            for obj_id in members[1:]:
                other = clustering.add_singleton(obj_id)
                cid = clustering.merge(cid, other)
        return clustering

    @classmethod
    def from_labels(cls, graph: SimilarityGraph, labels: dict[int, int]) -> "Clustering":
        """Build from an object-id → label mapping (labels are arbitrary)."""
        groups: dict[int, list[int]] = {}
        for obj_id, label in labels.items():
            groups.setdefault(label, []).append(obj_id)
        return cls.from_groups(graph, groups.values())

    def copy(self) -> "Clustering":
        """Deep copy of the partition (shares the graph reference)."""
        dup = Clustering(self.graph)
        dup._members = {cid: set(members) for cid, members in self._members.items()}
        dup._cluster_of = dict(self._cluster_of)
        dup._intra = dict(self._intra)
        dup._adj = {cid: dict(row) for cid, row in self._adj.items()}
        dup._link = dict(self._link)
        dup._next_cluster_id = self._next_cluster_id
        dup.version = self.version
        return dup

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def cluster_ids(self) -> Iterator[int]:
        return iter(self._members)

    def members(self, cid: int) -> frozenset[int]:
        return frozenset(self._members[cid])

    def members_view(self, cid: int) -> set[int]:
        """The live member set — do not mutate; cheaper than :meth:`members`."""
        return self._members[cid]

    def cluster_of(self, obj_id: int) -> int:
        return self._cluster_of[obj_id]

    def size(self, cid: int) -> int:
        return len(self._members[cid])

    def intra_weight(self, cid: int) -> float:
        """Sum of stored edge similarities among members (``S_intra``)."""
        return self._intra[cid]

    def weakest_members(self, cid: int, limit: int | None = None) -> list[int]:
        """Members ordered by ascending similarity to the rest of the cluster.

        A member's key is ``(sum of its stored edges to the other members,
        obj_id)``, the sum taken in adjacency-row order; the first
        ``limit`` members are returned (all of them for ``None``). Only a
        shortlist is summed: the members whose maintained link weight is
        at most the ``limit``-th smallest plus ``SLACK``. As every link
        weight is within ``SLACK / 2`` of its row-order sum, a member left
        out has at least ``limit`` members strictly below it, so the
        result equals the full sort's first ``limit``.
        """
        members = self._members[cid]
        pool: Iterable[int] = members
        if limit is not None and 0 < limit < len(members):
            link = self._link
            cutoff = sorted(map(link.__getitem__, members))[limit - 1] + SLACK
            pool = [obj_id for obj_id in members if link[obj_id] <= cutoff]
        neighbors = self.graph.neighbors
        ranked = sorted(
            (
                sum(sim for other, sim in neighbors(obj_id).items() if other in members),
                obj_id,
            )
            for obj_id in pool
        )
        return [obj_id for _, obj_id in ranked[:limit]]

    def pair_count(self, cid: int) -> int:
        """Number of unordered member pairs ``n(n-1)/2``."""
        n = len(self._members[cid])
        return n * (n - 1) // 2

    def average_intra_similarity(self, cid: int) -> float:
        """Average similarity over all member pairs; 1.0 for singletons.

        A singleton has no pairs, so its cohesion is undefined; we define
        it as perfectly cohesive (see DESIGN.md "Singleton features").
        """
        pairs = self.pair_count(cid)
        if pairs == 0:
            return 1.0
        return self._intra[cid] / pairs

    def num_clusters(self) -> int:
        return len(self._members)

    def num_objects(self) -> int:
        return len(self._cluster_of)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._cluster_of

    def contains_cluster(self, cid: int) -> bool:
        return cid in self._members

    def labels(self) -> dict[int, int]:
        """Object-id → cluster-id mapping (a copy)."""
        return dict(self._cluster_of)

    def as_partition(self) -> frozenset[frozenset[int]]:
        """Canonical, hashable form for equality tests and metrics."""
        return frozenset(frozenset(members) for members in self._members.values())

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _new_cluster_id(self) -> int:
        cid = self._next_cluster_id
        self._next_cluster_id += 1
        return cid

    def add_singleton(self, obj_id: int) -> int:
        """Place a (new) object in a cluster by itself; returns the cluster id."""
        if obj_id in self._cluster_of:
            raise KeyError(f"object {obj_id} already clustered")
        cid = self._new_cluster_id()
        self._members[cid] = {obj_id}
        self._cluster_of[obj_id] = cid
        self._intra[cid] = 0.0
        self._adj[cid] = {}
        self._link[obj_id] = 0.0
        for other, sim in self.graph.neighbors(obj_id).items():
            other_cid = self._cluster_of.get(other)
            if other_cid is not None and other_cid != cid:
                self._adj_add(cid, other_cid, sim)
        self.version += 1
        return cid

    def remove_object(self, obj_id: int) -> int | None:
        """Drop an object from its cluster.

        Must be called *before* the object is removed from the graph
        (the edge weights are needed to maintain the intra sum).
        Returns the id of the cluster it lived in if that cluster still
        exists afterwards, else ``None``.
        """
        cid = self._cluster_of.pop(obj_id)
        members = self._members[cid]
        members.discard(obj_id)
        link = self._link
        del link[obj_id]
        removed_intra = 0.0
        for other, sim in self.graph.neighbors(obj_id).items():
            if other in members:
                removed_intra += sim
                link[other] -= sim
            else:
                other_cid = self._cluster_of.get(other)
                if other_cid is not None and other_cid != cid:
                    self._adj_sub(cid, other_cid, sim)
        if not members:
            del self._members[cid]
            del self._intra[cid]
            self._adj_drop_cluster(cid)
            self.version += 1
            return None
        self._intra[cid] -= removed_intra
        self.version += 1
        return cid

    def merge(self, cid_a: int, cid_b: int) -> int:
        """Merge two clusters into a freshly-minted cluster id."""
        if cid_a == cid_b:
            raise ValueError("cannot merge a cluster with itself")
        members_a = self._members.pop(cid_a)
        members_b = self._members.pop(cid_b)
        row_a = self._adj.pop(cid_a)
        row_b = self._adj.pop(cid_b)
        cross = row_a.get(cid_b, 0.0)
        new_cid = self._new_cluster_id()
        merged = members_a | members_b
        self._members[new_cid] = merged
        self._intra[new_cid] = self._intra.pop(cid_a) + self._intra.pop(cid_b) + cross
        for obj_id in merged:
            self._cluster_of[obj_id] = new_cid
        # Link weights gain the cross edges, found from the smaller side.
        small, large = (
            (members_a, members_b)
            if len(members_a) <= len(members_b)
            else (members_b, members_a)
        )
        link = self._link
        neighbors = self.graph.neighbors
        for obj_id in small:
            gained = 0.0
            for other, sim in neighbors(obj_id).items():
                if other in large:
                    gained += sim
                    link[other] += sim
            link[obj_id] += gained
        # Combine adjacency rows (the mutual entry becomes intra weight).
        combined: dict[int, float] = {}
        for row, partner in ((row_a, cid_b), (row_b, cid_a)):
            for other, weight in row.items():
                if other == partner:
                    continue
                combined[other] = combined.get(other, 0.0) + weight
        self._adj[new_cid] = combined
        for other, weight in combined.items():
            other_row = self._adj[other]
            other_row.pop(cid_a, None)
            other_row.pop(cid_b, None)
            other_row[new_cid] = weight
        self.version += 1
        return new_cid

    def split(self, cid: int, part: Iterable[int]) -> tuple[int, int]:
        """Split ``part`` out of cluster ``cid`` into its own cluster.

        ``part`` must be a non-empty proper subset of the cluster.
        Returns ``(remainder_cid, part_cid)`` — both fresh ids.
        """
        part_set = set(part)
        members = self._members[cid]
        if not part_set or not part_set < members:
            raise ValueError("part must be a non-empty proper subset of the cluster")
        rest = members - part_set
        part_intra = 0.0
        cross = 0.0
        link = self._link
        # The part side's external adjacency, computed from its edges.
        # Part members' link weights are summed afresh; the rest's lose
        # their edges into the part.
        part_row: dict[int, float] = {}
        for obj_id in part_set:
            kept = 0.0
            for other, sim in self.graph.neighbors(obj_id).items():
                if other in part_set:
                    kept += sim
                    if obj_id < other:
                        part_intra += sim
                elif other in rest:
                    cross += sim
                    link[other] -= sim
                else:
                    other_cid = self._cluster_of.get(other)
                    if other_cid is not None and other_cid != cid:
                        part_row[other_cid] = part_row.get(other_cid, 0.0) + sim
            link[obj_id] = kept
        rest_intra = self._intra[cid] - part_intra - cross

        old_row = self._adj.pop(cid)
        del self._members[cid]
        del self._intra[cid]
        rest_cid = self._new_cluster_id()
        part_cid = self._new_cluster_id()
        self._members[rest_cid] = rest
        self._members[part_cid] = part_set
        self._intra[rest_cid] = max(rest_intra, 0.0)
        self._intra[part_cid] = part_intra
        for obj_id in rest:
            self._cluster_of[obj_id] = rest_cid
        for obj_id in part_set:
            self._cluster_of[obj_id] = part_cid
        # Distribute the old adjacency row between the two halves.
        rest_row: dict[int, float] = {}
        clean_part_row: dict[int, float] = {}
        for other, weight in old_row.items():
            part_weight = part_row.get(other, 0.0)
            rest_weight = weight - part_weight
            other_row = self._adj[other]
            other_row.pop(cid, None)
            if part_weight > self._ADJ_EPS:
                clean_part_row[other] = part_weight
                other_row[part_cid] = part_weight
            if rest_weight > self._ADJ_EPS:
                rest_row[other] = rest_weight
                other_row[rest_cid] = rest_weight
        if cross > self._ADJ_EPS:
            clean_part_row[rest_cid] = cross
            rest_row[part_cid] = cross
        self._adj[part_cid] = clean_part_row
        self._adj[rest_cid] = rest_row
        self.version += 1
        return rest_cid, part_cid

    def move(self, obj_id: int, to_cid: int) -> int:
        """Move one object to another cluster (split+merge composite, §4.1).

        Returns the object's new cluster id. The source cluster keeps its
        id when other members remain, because a move of one object is
        modelled as removing and re-adding that object.
        """
        from_cid = self._cluster_of[obj_id]
        if from_cid == to_cid:
            return to_cid
        target_members = self._members[to_cid]
        source_members = self._members[from_cid]

        # Partition the object's edges: into the source, the target, and
        # third-party clusters.
        detached_weight = 0.0
        attached_weight = 0.0
        third_party: dict[int, float] = {}
        link = self._link
        for other, sim in self.graph.neighbors(obj_id).items():
            if other in source_members and other != obj_id:
                detached_weight += sim
                link[other] -= sim
            elif other in target_members:
                attached_weight += sim
                link[other] += sim
            else:
                other_cid = self._cluster_of.get(other)
                if other_cid is not None:
                    third_party[other_cid] = third_party.get(other_cid, 0.0) + sim
        source_members.discard(obj_id)
        source_survives = bool(source_members)
        if source_survives:
            self._intra[from_cid] -= detached_weight
            # Source↔target cross: loses the object's target edges, gains
            # its former intra edges.
            self._adj_sub(from_cid, to_cid, attached_weight)
            self._adj_add(from_cid, to_cid, detached_weight)
            for other_cid, weight in third_party.items():
                self._adj_sub(from_cid, other_cid, weight)
        else:
            del self._members[from_cid]
            del self._intra[from_cid]
            self._adj_drop_cluster(from_cid)
        target_members.add(obj_id)
        link[obj_id] = attached_weight
        self._intra[to_cid] += attached_weight
        for other_cid, weight in third_party.items():
            if other_cid != to_cid:
                self._adj_add(to_cid, other_cid, weight)
        self._cluster_of[obj_id] = to_cid
        self.version += 1
        return to_cid

    # ------------------------------------------------------------------
    # Cross-cluster aggregates
    # ------------------------------------------------------------------
    def cross_weight(self, cid_a: int, cid_b: int) -> float:
        """Sum of edge similarities between two clusters (``S_inter``)."""
        if cid_a == cid_b:
            raise ValueError("cross_weight expects distinct clusters")
        if cid_b not in self._members:
            raise KeyError(cid_b)
        return self._adj[cid_a].get(cid_b, 0.0)

    def average_cross_similarity(self, cid_a: int, cid_b: int) -> float:
        """Average similarity over all cross pairs of two clusters."""
        denom = len(self._members[cid_a]) * len(self._members[cid_b])
        return self.cross_weight(cid_a, cid_b) / denom

    def neighbor_clusters(self, cid: int) -> dict[int, float]:
        """Clusters sharing at least one stored edge with ``cid``.

        Returns the *live* mapping neighbour-cluster-id → summed cross
        similarity (maintained incrementally; do not mutate).
        """
        return self._adj[cid]

    def total_intra_weight(self) -> float:
        """Sum of ``S_intra`` over all clusters."""
        return sum(self._intra.values())

    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping drifted (test hook)."""
        seen: set[int] = set()
        for cid, members in self._members.items():
            assert members, f"cluster {cid} is empty"
            assert not (members & seen), "clusters overlap"
            seen |= members
            for obj_id in members:
                assert self._cluster_of[obj_id] == cid
                fresh = sum(
                    sim
                    for other, sim in self.graph.neighbors(obj_id).items()
                    if other in members
                )
                assert abs(self._link[obj_id] - fresh) <= SLACK / 2, (
                    f"link weight drift on object {obj_id}: "
                    f"{self._link[obj_id]} != {fresh}"
                )
            expected = self.graph.intra_weight(members)
            assert abs(self._intra[cid] - expected) < 1e-6, (
                f"intra weight drift on cluster {cid}: "
                f"{self._intra[cid]} != {expected}"
            )
        assert seen == set(self._cluster_of) == set(self._link)
        # Cluster adjacency must match a from-scratch recomputation.
        for cid, members in self._members.items():
            expected_adj: dict[int, float] = {}
            for obj_id in members:
                for other, sim in self.graph.neighbors(obj_id).items():
                    other_cid = self._cluster_of.get(other)
                    if other_cid is not None and other_cid != cid:
                        expected_adj[other_cid] = expected_adj.get(other_cid, 0.0) + sim
            actual = self._adj[cid]
            for other_cid, weight in expected_adj.items():
                assert abs(actual.get(other_cid, 0.0) - weight) < 1e-6, (
                    f"adjacency drift {cid}->{other_cid}: "
                    f"{actual.get(other_cid, 0.0)} != {weight}"
                )
            for other_cid, weight in actual.items():
                assert other_cid in expected_adj or weight < 1e-6
