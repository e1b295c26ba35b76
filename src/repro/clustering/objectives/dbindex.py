"""Davies–Bouldin index objective, adapted to similarity space.

DB-index [18] was defined for Euclidean space; Gruenheid et al. [26]
adapt it to record linkage by re-defining scatter and separation over
pairwise record similarities. We follow that adaptation:

* scatter   ``σ_i = (1 − avg-intra-similarity(C_i)) + base_scatter``. The
  additive ``base_scatter`` regularises the degenerate all-singleton
  clustering: with the textbook definition every singleton has σ = 0,
  making DB = 0 the global optimum at all-singletons — useless for
  record linkage. A small positive base scatter restores the intended
  behaviour (nearby clusters produce large R terms until merged),
* distance  ``d_ij = 1 − avg-cross-similarity(C_i, C_j)`` (floored at ε),
* per-cluster term ``R_i = max over *neighbour* clusters j of (σ_i + σ_j) / d_ij``
  (clusters sharing no stored edge have distance 1 and are never the
  binding constraint; a cluster with no neighbours gets ``R_i = σ_i``),
* objective ``F = Σ_i R_i`` — the *aggregate* DB index, minimised.

The textbook index is the mean ``(1/k) Σ R_i`` (exposed as
:meth:`DBIndexObjective.db_mean`); the *sum* is what local search needs:
under the mean, merging two clusters whose R terms sit below the current
mean raises the score even when the merged cluster is strictly better,
so greedy assembly of duplicate groups stalls at fragmented local
optima. The paper's own Fig. 6 plots DB "objective scores" that grow
with the number of objects, which is the signature of the aggregate
form (a mean would stay O(1)).

The paper stresses DB-index "has no special properties for
optimizing" [26], i.e. no locality/monotonicity shortcuts exist for
incremental algorithms — which is exactly why it is the stress-test
workload for DynamicC. Evaluating it naively is O(k·neighbours) per
query, so this implementation keeps per-cluster caches — R terms with
their binding partner, plus scatter σ and size — keyed on the
clustering's version counter and updated *exactly* on merges, splits
and moves, in work proportional to the clusters a change touches.
Delta queries read σ and sizes straight from the caches (profiling
shows recomputing scatter per neighbour per query dominated the whole
serving hot path before these caches existed), and compute each
neighbour's ratio to a hypothetical cluster once.

After a change, a term is recomputed when its cluster is (or borders)
a new or changed cluster, or when its binding partner was removed or
changed. The rows of the added clusters find the first kind, and
almost always the second too: a cluster bound to Y bordered Y, and it
borders whatever replaced Y. The exception is a split or move that
divides a cross weight into parts at or below ``Clustering._ADJ_EPS``;
the adjacency drops those, so the bound cluster borders no added
cluster. The split and move gateways therefore pass the rows the
touched clusters had before the change: only clusters in those rows
can have lost their binding this way, so no scan over every cached
term is needed.
"""

from __future__ import annotations

from typing import Iterable

from repro.clustering.state import Clustering

from .base import ObjectiveFunction

_EPS = 1e-3


class DBIndexObjective(ObjectiveFunction):
    """Similarity-space Davies–Bouldin index (lower is better)."""

    name = "db-index"

    #: A delta reads the cached R terms of the touched clusters'
    #: neighbours, and those terms look one further hop out — so an
    #: applied change can shift deltas two adjacency hops away.
    delta_horizon = 2

    def __init__(self, distance_floor: float = _EPS, base_scatter: float = 0.05) -> None:
        if base_scatter <= 0:
            raise ValueError("base_scatter must be positive (see module docstring)")
        self.distance_floor = distance_floor
        self.base_scatter = base_scatter
        self._cached_clustering: Clustering | None = None
        self._cached_version: int = -1
        # cid -> (R term, binding partner cid or None)
        self._terms: dict[int, tuple[float, int | None]] = {}
        # cid -> scatter σ_i, cid -> |C_i|; maintained alongside _terms
        # so delta queries never recompute per-cluster statistics.
        self._sigmas: dict[int, float] = {}
        self._sizes: dict[int, int] = {}
        self._total: float = 0.0

    # ------------------------------------------------------------------
    # Scatter / distance primitives
    # ------------------------------------------------------------------
    def _scatter(self, clustering: Clustering, cid: int) -> float:
        return (1.0 - clustering.average_intra_similarity(cid)) + self.base_scatter

    def _sigma_from(self, intra_weight: float, size: int) -> float:
        """Scatter of a hypothetical cluster from its raw statistics."""
        pairs = size * (size - 1) // 2
        avg = intra_weight / pairs if pairs else 1.0
        return (1.0 - avg) + self.base_scatter

    def _term(self, clustering: Clustering, cid: int) -> tuple[float, int | None]:
        """R_i and its binding partner, from the σ/size caches."""
        sigmas = self._sigmas
        sizes = self._sizes
        sigma = sigmas[cid]
        size = sizes[cid]
        floor = self.distance_floor
        best = sigma
        best_partner: int | None = None
        for other, cross in clustering.neighbor_clusters(cid).items():
            d = 1.0 - cross / (size * sizes[other])
            if d < floor:
                d = floor
            ratio = (sigma + sigmas[other]) / d
            if ratio > best:
                best = ratio
                best_partner = other
        return best, best_partner

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _refresh(self, clustering: Clustering) -> None:
        if (
            self._cached_clustering is clustering
            and self._cached_version == clustering.version
        ):
            return
        self._sigmas = {
            cid: self._scatter(clustering, cid) for cid in clustering.cluster_ids()
        }
        self._sizes = {cid: clustering.size(cid) for cid in clustering.cluster_ids()}
        self._terms = {
            cid: self._term(clustering, cid) for cid in clustering.cluster_ids()
        }
        self._total = sum(term for term, _ in self._terms.values())
        self._cached_clustering = clustering
        self._cached_version = clustering.version

    def invalidate(self) -> None:
        """Drop the cache (next query recomputes from scratch)."""
        self._cached_clustering = None
        self._cached_version = -1
        self._terms = {}
        self._sigmas = {}
        self._sizes = {}
        self._total = 0.0

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, clustering: Clustering) -> float:
        """Aggregate DB index ``Σ_i R_i`` (lower is better)."""
        if clustering.num_clusters() == 0:
            return 0.0
        self._refresh(clustering)
        return self._total

    def db_mean(self, clustering: Clustering) -> float:
        """The classic Davies–Bouldin index ``(1/k) Σ_i R_i``."""
        if clustering.num_clusters() == 0:
            return 0.0
        self._refresh(clustering)
        return self._total / clustering.num_clusters()

    # ------------------------------------------------------------------
    # Exact local deltas
    #
    # Each neighbour's ratio to a hypothetical cluster is computed once:
    # it bounds both the new cluster's R term and the neighbour's own.
    # The neighbours' term changes are added to the total after the new
    # clusters' terms, in neighbour order; a change of zero is skipped
    # (adding 0.0 to a positive total is exact).
    # ------------------------------------------------------------------
    def delta_merge(self, clustering: Clustering, cid_a: int, cid_b: int) -> float:
        self._refresh(clustering)
        total = self._total
        terms = self._terms
        sigmas = self._sigmas
        sizes = self._sizes
        floor = self.distance_floor

        # Hypothetical merged cluster statistics.
        size_m = sizes[cid_a] + sizes[cid_b]
        cross_ab = clustering.cross_weight(cid_a, cid_b)
        intra_m = (
            clustering.intra_weight(cid_a) + clustering.intra_weight(cid_b) + cross_ab
        )
        sigma_m = self._sigma_from(intra_m, size_m)

        # Neighbour clusters of the merged cluster, with combined cross weight.
        nbrs: dict[int, float] = {}
        for source in (cid_a, cid_b):
            for other, cross in clustering.neighbor_clusters(source).items():
                if other != cid_a and other != cid_b:
                    nbrs[other] = nbrs.get(other, 0.0) + cross

        r_m = sigma_m
        changes = []
        for other, cross in nbrs.items():
            d = 1.0 - cross / (size_m * sizes[other])
            if d < floor:
                d = floor
            ratio = (sigma_m + sigmas[other]) / d
            if ratio > r_m:
                r_m = ratio
            term = terms[other]
            partner = term[1]
            if partner == cid_a or partner == cid_b:
                new_r = self._term_excluding(clustering, other, (cid_a, cid_b))
                if ratio > new_r:
                    new_r = ratio
            elif ratio > term[0]:
                new_r = ratio
            else:
                continue
            changes.append(new_r - term[0])

        new_total = total - terms[cid_a][0] - terms[cid_b][0] + r_m
        for change in changes:
            new_total += change
        return new_total - total

    def delta_merge_group(self, clustering: Clustering, cids: list[int]) -> float:
        """Exact local delta of merging several clusters at once.

        This is the move that dissolves DB-index assembly barriers: a
        group of mutually-similar fragments can be strictly uphill for
        every pairwise merge (the half-merged cluster has high scatter
        *and* close remaining fragments) while the complete merge is a
        large improvement.
        """
        if len(cids) < 2:
            return 0.0
        self._refresh(clustering)
        total = self._total
        terms = self._terms
        sigmas = self._sigmas
        sizes = self._sizes
        floor = self.distance_floor
        group = set(cids)

        size_m = sum(sizes[cid] for cid in group)
        intra_m = sum(clustering.intra_weight(cid) for cid in group)
        nbrs: dict[int, float] = {}
        internal_cross = 0.0
        for cid in group:
            for other, cross in clustering.neighbor_clusters(cid).items():
                if other in group:
                    internal_cross += cross  # each internal pair counted twice
                else:
                    nbrs[other] = nbrs.get(other, 0.0) + cross
        intra_m += internal_cross / 2.0
        sigma_m = self._sigma_from(intra_m, size_m)

        exclude = tuple(group)
        r_m = sigma_m
        changes = []
        for other, cross in nbrs.items():
            d = 1.0 - cross / (size_m * sizes[other])
            if d < floor:
                d = floor
            ratio = (sigma_m + sigmas[other]) / d
            if ratio > r_m:
                r_m = ratio
            term = terms[other]
            if term[1] in group:
                new_r = self._term_excluding(clustering, other, exclude)
                if ratio > new_r:
                    new_r = ratio
            elif ratio > term[0]:
                new_r = ratio
            else:
                continue
            changes.append(new_r - term[0])

        new_total = total - sum(terms[cid][0] for cid in group) + r_m
        for change in changes:
            new_total += change
        return new_total - total

    def _term_excluding(
        self, clustering: Clustering, cid: int, exclude: tuple[int, ...]
    ) -> float:
        """R term of ``cid`` ignoring candidate partners in ``exclude``."""
        sigmas = self._sigmas
        sizes = self._sizes
        sigma = sigmas[cid]
        size = sizes[cid]
        floor = self.distance_floor
        best = sigma
        for other, cross in clustering.neighbor_clusters(cid).items():
            if other in exclude:
                continue
            d = 1.0 - cross / (size * sizes[other])
            if d < floor:
                d = floor
            ratio = (sigma + sigmas[other]) / d
            if ratio > best:
                best = ratio
        return best

    def delta_split(self, clustering: Clustering, cid: int, part: Iterable[int]) -> float:
        self._refresh(clustering)
        part_set = set(part)
        members = clustering.members_view(cid)
        rest = members - part_set
        if not part_set or not rest:
            raise ValueError("part must be a non-empty proper subset")
        total = self._total
        terms = self._terms
        sigmas = self._sigmas
        sizes = self._sizes
        floor = self.distance_floor
        graph = clustering.graph

        # Statistics of the two hypothetical clusters. Only the part
        # side's edges are scanned (typically one object); the rest
        # side's externals come from the cluster's adjacency row.
        intra_part = 0.0
        cross_pr = 0.0
        nbrs_p: dict[int, float] = {}
        for obj_id in part_set:
            for other, sim in graph.neighbors(obj_id).items():
                if other in part_set:
                    if obj_id < other:
                        intra_part += sim
                elif other in members:
                    cross_pr += sim
                else:
                    other_cid = clustering.cluster_of(other)
                    if other_cid is not None and other_cid != cid:
                        nbrs_p[other_cid] = nbrs_p.get(other_cid, 0.0) + sim
        intra_rest = clustering.intra_weight(cid) - intra_part - cross_pr

        size_p = len(part_set)
        size_r = len(rest)
        sigma_p = self._sigma_from(intra_part, size_p)
        sigma_r = self._sigma_from(intra_rest, size_r)

        # ``Clustering.split`` divides the old adjacency row and keeps
        # only the halves (and the mutual cross) above ``_ADJ_EPS``.
        eps = Clustering._ADJ_EPS
        row = clustering.neighbor_clusters(cid)
        nbrs_p = {
            other: weight
            for other, weight in nbrs_p.items()
            if weight > eps and other in row
        }
        nbrs_r: dict[int, float] = {}
        for other_cid, weight in row.items():
            remaining = weight - nbrs_p.get(other_cid, 0.0)
            if remaining > eps:
                nbrs_r[other_cid] = remaining

        # R terms of the two new clusters (they also neighbour each other
        # when the cross weight between them survives).
        r_p = sigma_p
        r_r = sigma_r
        if cross_pr > eps:
            d = 1.0 - cross_pr / (size_p * size_r)
            if d < floor:
                d = floor
            ratio = (sigma_p + sigma_r) / d
            if ratio > r_p:
                r_p = ratio
            if ratio > r_r:
                r_r = ratio

        changes = []
        for other in set(nbrs_p) | set(nbrs_r):
            sigma_o = sigmas[other]
            size_o = sizes[other]
            term = terms[other]
            if term[1] == cid:
                new_r = self._term_excluding(clustering, other, (cid,))
            else:
                new_r = term[0]
            cross = nbrs_p.get(other)
            if cross is not None:
                d = 1.0 - cross / (size_p * size_o)
                if d < floor:
                    d = floor
                ratio = (sigma_p + sigma_o) / d
                if ratio > r_p:
                    r_p = ratio
                if ratio > new_r:
                    new_r = ratio
            cross = nbrs_r.get(other)
            if cross is not None:
                d = 1.0 - cross / (size_r * size_o)
                if d < floor:
                    d = floor
                ratio = (sigma_r + sigma_o) / d
                if ratio > r_r:
                    r_r = ratio
                if ratio > new_r:
                    new_r = ratio
            if new_r != term[0]:
                changes.append(new_r - term[0])

        new_total = total - terms[cid][0] + r_p + r_r
        for change in changes:
            new_total += change
        return new_total - total

    def delta_move(self, clustering: Clustering, obj_id: int, to_cid: int) -> float:
        """Exact local delta of moving one object to another cluster.

        A move changes the statistics of the source and target clusters
        *and* shifts the object's edges between every adjacent cluster's
        cross weights, so the affected set is: source', target', and
        clusters adjacent to either (or to the object) whose binding
        partner was source/target.
        """
        from_cid = clustering.cluster_of(obj_id)
        if from_cid == to_cid:
            return 0.0
        self._refresh(clustering)
        graph = clustering.graph
        total = self._total
        terms = self._terms
        sigmas = self._sigmas
        sizes = self._sizes
        floor = self.distance_floor
        source = clustering.members_view(from_cid)
        target = clustering.members_view(to_cid)

        # The object's edge weight into source (minus itself), target, others.
        w_r_source = 0.0
        w_r_target = 0.0
        r_out: dict[int, float] = {}
        for other, sim in graph.neighbors(obj_id).items():
            if other in source:
                w_r_source += sim
            elif other in target:
                w_r_target += sim
            elif other in clustering:
                other_cid = clustering.cluster_of(other)
                r_out[other_cid] = r_out.get(other_cid, 0.0) + sim

        size_s = len(source) - 1
        size_t = len(target) + 1
        source_survives = size_s > 0
        sigma_s = (
            self._sigma_from(clustering.intra_weight(from_cid) - w_r_source, size_s)
            if source_survives
            else 0.0
        )
        sigma_t = self._sigma_from(
            clustering.intra_weight(to_cid) + w_r_target, size_t
        )

        # Cross weights as ``Clustering.move`` leaves them: it adds and
        # subtracts only weights above ``_ADJ_EPS`` and drops any entry
        # left at or below it.
        eps = Clustering._ADJ_EPS
        cross_source = clustering.neighbor_clusters(from_cid)
        cross_target = clustering.neighbor_clusters(to_cid)

        # New terms of the shrunken source (when it survives) and the
        # grown target, starting from their mutual ratio.
        r_s = sigma_s
        r_t = sigma_t
        if source_survives:
            c_st = cross_source.get(to_cid, 0.0)
            if w_r_target > eps:
                c_st -= w_r_target
                if c_st <= eps:
                    c_st = 0.0
            if w_r_source > eps:
                c_st += w_r_source
            if c_st > 0.0:
                d = 1.0 - c_st / (size_s * size_t)
                if d < floor:
                    d = floor
                ratio = (sigma_s + sigma_t) / d
                if ratio > r_s:
                    r_s = ratio
                if ratio > r_t:
                    r_t = ratio

        others = (set(cross_source) | set(cross_target) | set(r_out)) - {
            from_cid,
            to_cid,
        }
        changes = []
        for other in others:
            cs = cross_source.get(other, 0.0)
            ct = cross_target.get(other, 0.0)
            weight = r_out.get(other, 0.0)
            if weight > eps:
                cs -= weight
                ct += weight
            sigma_o = sigmas[other]
            size_o = sizes[other]
            term = terms[other]
            partner = term[1]
            if partner == from_cid or partner == to_cid:
                new_r = self._term_excluding(clustering, other, (from_cid, to_cid))
            else:
                new_r = term[0]
            if cs > eps and source_survives:
                d = 1.0 - cs / (size_s * size_o)
                if d < floor:
                    d = floor
                ratio = (sigma_s + sigma_o) / d
                if ratio > r_s:
                    r_s = ratio
                if ratio > new_r:
                    new_r = ratio
            if ct > eps:
                d = 1.0 - ct / (size_t * size_o)
                if d < floor:
                    d = floor
                ratio = (sigma_t + sigma_o) / d
                if ratio > r_t:
                    r_t = ratio
                if ratio > new_r:
                    new_r = ratio
            if new_r != term[0]:
                changes.append(new_r - term[0])

        new_total = total - terms[from_cid][0] - terms[to_cid][0] + r_s + r_t
        for change in changes:
            new_total += change
        return new_total - total

    # ------------------------------------------------------------------
    # Mutation gateways keeping the cache exact
    # ------------------------------------------------------------------
    def apply_merge(self, clustering: Clustering, cid_a: int, cid_b: int) -> int:
        self._refresh(clustering)
        new_cid = clustering.merge(cid_a, cid_b)
        self._rebuild_after_change(clustering, removed=(cid_a, cid_b), added=(new_cid,))
        return new_cid

    def apply_split(
        self, clustering: Clustering, cid: int, part: Iterable[int]
    ) -> tuple[int, int]:
        self._refresh(clustering)
        bordering = tuple(clustering.neighbor_clusters(cid))
        rest_cid, part_cid = clustering.split(cid, set(part))
        self._rebuild_after_change(
            clustering,
            removed=(cid,),
            added=(rest_cid, part_cid),
            bordering=bordering,
        )
        return rest_cid, part_cid

    def apply_move(self, clustering: Clustering, obj_id: int, to_cid: int) -> int:
        self._refresh(clustering)
        from_cid = clustering.cluster_of(obj_id)
        bordering = (
            *clustering.neighbor_clusters(from_cid),
            *clustering.neighbor_clusters(to_cid),
        )
        result = clustering.move(obj_id, to_cid)
        source_survives = clustering.contains_cluster(from_cid)
        self._rebuild_after_change(
            clustering,
            removed=() if source_survives else (from_cid,),
            added=((from_cid,) if source_survives else ()) + (to_cid,),
            stale_partners=(from_cid, to_cid),
            bordering=bordering,
        )
        return result

    def _rebuild_after_change(
        self,
        clustering: Clustering,
        removed: tuple[int, ...],
        added: tuple[int, ...],
        stale_partners: tuple[int, ...] = (),
        bordering: tuple[int, ...] = (),
    ) -> None:
        """Update cached terms after an applied merge/split/move (exact).

        ``stale_partners`` lists surviving cluster ids whose statistics
        changed in place (the source/target of a move). ``bordering``
        lists the clusters that bordered a removed or changed cluster
        before the change; only a split or a move can leave one of them
        bordering no added cluster (see the module docstring), and a
        merge passes none.
        """
        terms = self._terms
        total = self._total
        for cid in removed:
            total -= terms.pop(cid)[0]
            self._sigmas.pop(cid, None)
            self._sizes.pop(cid, None)

        # σ/size of the new (or in-place-changed) clusters first — the
        # term recomputations below read them from the caches.
        for cid in added:
            self._sigmas[cid] = self._scatter(clustering, cid)
            self._sizes[cid] = clustering.size(cid)

        affected: set[int] = set(added)
        for cid in added:
            affected.update(clustering.neighbor_clusters(cid))

        # A former neighbour that now borders no added cluster (its cross
        # weight fell to ≤ ε) must still be refreshed if it was bound to
        # a removed or changed cluster.
        stale = removed + stale_partners
        for cid in bordering:
            if cid not in affected and cid in terms and terms[cid][1] in stale:
                affected.add(cid)

        for cid in affected:
            old = terms.get(cid)
            if old is not None:
                total -= old[0]
            term = self._term(clustering, cid)
            terms[cid] = term
            total += term[0]

        self._total = total
        self._cached_version = clustering.version
        self._cached_clustering = clustering
