"""Hill-climbing batch clustering (§7.1 "Implementations").

"A general batch algorithm which can be used for any objective function
based clustering method. It examines all immediate neighbors (potential
migrations) and selects the clustering update providing the highest
improvement."

Two search strategies are provided:

* ``"steepest"`` — the literal description above: every iteration scans
  *all* candidate merges/splits/moves and applies the single best
  improving one. Exact but O(candidates) per applied change; usable on
  small inputs and in tests.
* ``"greedy-pass"`` (default) — repeated passes; within a pass each
  cluster greedily applies its best improving merge, then each cluster
  its best improving split, then objects their best improving moves.
  The objective decreases monotonically, so this is still hill
  climbing, with the per-change scan cost amortised; it is the variant
  used for the larger experiments (the paper itself reports
  Hill-climbing takes >3 h on Road, so the batch method is expected to
  be slow — just not uselessly so).

  For objectives declaring ``locality == "local"`` the passes after the
  first are *scoped*: only clusters within ``objective.delta_horizon``
  adjacency hops of the previous pass's applied changes are
  re-evaluated (the dirty worklist). A cluster outside that frontier
  entered the pass with no improving change available, and by the
  locality contract nothing has moved its deltas since — so skipping it
  removes redundant rescans (the same §6.4 convergence argument
  DynamicC's serving loop uses). An improvement created *mid-pass* next
  to a skipped cluster is picked up one pass later instead of within
  the pass, so change ordering can differ from the full rescan in
  principle; the seeded equivalence suite
  (`tests/test_incremental_deltas.py`) pins both searches to identical
  results. Globally-coupled objectives (fixed-k k-means) keep full
  rescans.

Candidate changes are restricted to the similarity graph: only clusters
sharing at least one stored edge can profitably merge under any of the
paper's objectives, and only the objects with the weakest link to their
cluster are split candidates.

When an :class:`~repro.evolution.EvolutionLog` is supplied, every
applied change is recorded (merges and splits; moves decompose into a
split followed by a merge per §4.1), which is exactly the historical
cluster evolution DynamicC trains on.
"""

from __future__ import annotations

from typing import Iterable

from repro.clustering.objectives.base import ObjectiveFunction
from repro.clustering.state import Clustering
from repro.evolution import EvolutionLog
from repro.similarity.graph import SimilarityGraph


class HillClimbing:
    """Objective-based batch clustering by monotone local search.

    Parameters
    ----------
    objective:
        The objective function to minimise.
    strategy:
        ``"greedy-pass"`` (default) or ``"steepest"``.
    max_passes:
        Safety bound on the number of full passes (greedy-pass) or
        applied changes (steepest) — the objective-decrease invariant
        guarantees termination, the bound guards against pathological
        slow convergence.
    split_candidates:
        How many of the weakest-linked objects per cluster to consider
        as split-out candidates in each pass.
    """

    def __init__(
        self,
        objective: ObjectiveFunction,
        strategy: str = "greedy-pass",
        max_passes: int = 200,
        split_candidates: int = 2,
        chain_depth: int = 4,
        chain_threshold: float = 0.3,
        tolerance: float = 1e-9,
    ) -> None:
        if strategy not in ("greedy-pass", "steepest"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.objective = objective
        self.strategy = strategy
        self.max_passes = max_passes
        self.split_candidates = split_candidates
        #: When a cluster's best pairwise merge is uphill, try merging a
        #: *chain* of up to this many closest clusters at once (compound
        #: migration). 0 disables. Needed because some objectives
        #: (DB-index) stall pairwise on groups of mutually similar
        #: fragments whose complete merge improves.
        self.chain_depth = chain_depth
        #: Minimum average cross-similarity for a cluster to join a chain.
        self.chain_threshold = chain_threshold
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    def cluster(
        self,
        graph: SimilarityGraph,
        initial: Clustering | None = None,
        log: EvolutionLog | None = None,
        restrict_to: Iterable[int] | None = None,
    ) -> Clustering:
        """Run batch clustering, returning the final clustering.

        Parameters
        ----------
        graph:
            Similarity graph over the objects to cluster.
        initial:
            Starting clustering; defaults to all-singletons (§4.2).
        log:
            Optional evolution log receiving every applied change.
        restrict_to:
            When given, only clusters containing at least one of these
            objects participate in the search (used by the Greedy
            baseline to localise re-clustering).
        """
        clustering = initial if initial is not None else Clustering.singletons(graph)
        scope = set(restrict_to) if restrict_to is not None else None
        if self.strategy == "steepest":
            self._run_steepest(clustering, log, scope)
        else:
            self._run_greedy_passes(clustering, log, scope)
        return clustering

    # ------------------------------------------------------------------
    # Scope helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _in_scope(clustering: Clustering, cid: int, scope: set[int] | None) -> bool:
        if scope is None:
            return True
        return bool(clustering.members_view(cid) & scope)

    def _dirty_frontier(self, clustering: Clustering, touched: set[int]) -> set[int]:
        """Touched clusters expanded ``delta_horizon`` adjacency hops.

        The next scoped pass re-evaluates exactly this set: by the
        objective's locality contract no cluster further out has had a
        candidate delta change sign since its own last evaluation.
        """
        frontier = {cid for cid in touched if clustering.contains_cluster(cid)}
        boundary = set(frontier)
        for _ in range(max(self.objective.delta_horizon, 1)):
            grown: set[int] = set()
            for cid in boundary:
                grown.update(clustering.neighbor_clusters(cid))
            grown -= frontier
            if not grown:
                break
            frontier |= grown
            boundary = grown
        return frontier

    # ------------------------------------------------------------------
    # Greedy-pass strategy
    # ------------------------------------------------------------------
    def _run_greedy_passes(
        self,
        clustering: Clustering,
        log: EvolutionLog | None,
        scope: set[int] | None,
    ) -> None:
        scoped = self.objective.locality == "local"
        worklist: set[int] | None = None  # None = evaluate every cluster
        for _ in range(self.max_passes):
            touched: set[int] = set()
            changed = self._merge_pass(clustering, log, scope, worklist, touched)
            changed |= self._split_pass(clustering, log, scope, worklist, touched)
            changed |= self._move_pass(clustering, log, scope, worklist, touched)
            if not changed:
                break
            if scoped:
                worklist = self._dirty_frontier(clustering, touched)
                if not worklist:
                    break

    def _merge_pass(
        self,
        clustering: Clustering,
        log: EvolutionLog | None,
        scope: set[int] | None,
        worklist: set[int] | None = None,
        touched: set[int] | None = None,
    ) -> bool:
        changed = False
        # Snapshot ids: merges mint fresh ids, so newly-created clusters
        # are reconsidered in the next pass, not this one.
        for cid in list(clustering.cluster_ids()):
            if worklist is not None and cid not in worklist:
                continue
            if not clustering.contains_cluster(cid):
                continue
            if not self._in_scope(clustering, cid, scope):
                continue
            best_delta = -self.tolerance
            best_other: int | None = None
            candidates = list(clustering.neighbor_clusters(cid))
            extra = self.objective.merge_candidates(clustering, cid)
            if extra:
                seen = set(candidates)
                candidates.extend(other for other in extra if other not in seen)
            for other in candidates:
                if scope is not None and not self._in_scope(clustering, other, scope):
                    continue
                delta = self.objective.delta_merge(clustering, cid, other)
                if delta < best_delta:
                    best_delta = delta
                    best_other = other
            if best_other is not None:
                if log is not None:
                    log.record_merge(
                        clustering.members(cid), clustering.members(best_other)
                    )
                new_cid = self.objective.apply_merge(clustering, cid, best_other)
                if touched is not None:
                    touched.add(new_cid)
                changed = True
            elif self.chain_depth >= 2:
                changed |= self._try_chain_merge(clustering, cid, log, scope, touched)
        return changed

    def _try_chain_merge(
        self,
        clustering: Clustering,
        cid: int,
        log: EvolutionLog | None,
        scope: set[int] | None,
        touched: set[int] | None = None,
    ) -> bool:
        """Compound move: merge ``cid`` with its closest clusters at once.

        The chain grows greedily by average cross-similarity (≥
        ``chain_threshold``); the first prefix whose *group* merge delta
        improves the objective is applied.
        """
        chain = [cid]
        # Candidate pool: neighbours of anything in the chain.
        while len(chain) <= self.chain_depth:
            best_avg = self.chain_threshold
            best_next: int | None = None
            for member in chain:
                for other, cross in clustering.neighbor_clusters(member).items():
                    if other in chain:
                        continue
                    if scope is not None and not self._in_scope(clustering, other, scope):
                        continue
                    avg = cross / (clustering.size(member) * clustering.size(other))
                    if avg >= best_avg:
                        best_avg = avg
                        best_next = other
            if best_next is None:
                return False
            chain.append(best_next)
            if len(chain) >= 3:
                delta = self.objective.delta_merge_group(clustering, chain)
                if delta < -self.tolerance:
                    if log is not None:
                        accumulated = clustering.members(chain[0])
                        for other in chain[1:]:
                            log.record_merge(accumulated, clustering.members(other))
                            accumulated = accumulated | clustering.members(other)
                    new_cid = self.objective.apply_merge_group(clustering, chain)
                    if touched is not None:
                        touched.add(new_cid)
                    return True
        return False

    def _split_pass(
        self,
        clustering: Clustering,
        log: EvolutionLog | None,
        scope: set[int] | None,
        worklist: set[int] | None = None,
        touched: set[int] | None = None,
    ) -> bool:
        changed = False
        for cid in list(clustering.cluster_ids()):
            if worklist is not None and cid not in worklist and (
                touched is None or cid not in touched
            ):
                continue
            # Singletons have nothing to split off or move out.
            if not clustering.contains_cluster(cid) or clustering.size(cid) < 2:
                continue
            if not self._in_scope(clustering, cid, scope):
                continue
            for obj_id in clustering.weakest_members(cid, self.split_candidates):
                part = {obj_id}
                delta = self.objective.delta_split(clustering, cid, part)
                if delta < -self.tolerance:
                    if log is not None:
                        log.record_split(clustering.members(cid), frozenset(part))
                    rest_cid, part_cid = self.objective.apply_split(
                        clustering, cid, part
                    )
                    if touched is not None:
                        touched.add(rest_cid)
                        touched.add(part_cid)
                    changed = True
                    break  # cid no longer exists; fresh ids seen next pass
        return changed

    def _move_pass(
        self,
        clustering: Clustering,
        log: EvolutionLog | None,
        scope: set[int] | None,
        worklist: set[int] | None = None,
        touched: set[int] | None = None,
    ) -> bool:
        proposals = self.objective.refinement_moves(clustering)
        if proposals is not None:
            return self._apply_move_proposals(clustering, proposals, log, scope)
        changed = False
        graph = clustering.graph
        for cid in list(clustering.cluster_ids()):
            if worklist is not None and cid not in worklist and (
                touched is None or cid not in touched
            ):
                continue
            # Singletons have nothing to split off or move out.
            if not clustering.contains_cluster(cid) or clustering.size(cid) < 2:
                continue
            if not self._in_scope(clustering, cid, scope):
                continue
            for obj_id in clustering.weakest_members(cid, self.split_candidates):
                current = clustering.cluster_of(obj_id)
                target_cids = {
                    clustering.cluster_of(other)
                    for other in graph.neighbors(obj_id)
                    if other in clustering
                }
                target_cids.discard(current)
                best_delta = -self.tolerance
                best_target: int | None = None
                for target in target_cids:
                    delta = self.objective.delta_move(clustering, obj_id, target)
                    if delta < best_delta:
                        best_delta = delta
                        best_target = target
                if best_target is not None:
                    if log is not None:
                        # A move is a split followed by a merge (§4.1).
                        source_members = clustering.members(current)
                        if len(source_members) > 1:
                            log.record_split(source_members, frozenset({obj_id}))
                        log.record_merge(
                            frozenset({obj_id}), clustering.members(best_target)
                        )
                    self.objective.apply_move(clustering, obj_id, best_target)
                    if touched is not None:
                        touched.add(best_target)
                        if clustering.contains_cluster(current):
                            touched.add(current)
                    changed = True
                    break
        return changed

    def _apply_move_proposals(
        self,
        clustering: Clustering,
        proposals: list[tuple[int, int]],
        log: EvolutionLog | None,
        scope: set[int] | None,
    ) -> bool:
        """Apply objective-proposed moves, each verified by its delta."""
        changed = False
        for obj_id, target in proposals:
            if obj_id not in clustering or not clustering.contains_cluster(target):
                continue
            current = clustering.cluster_of(obj_id)
            if current == target:
                continue
            if scope is not None and obj_id not in scope:
                continue
            delta = self.objective.delta_move(clustering, obj_id, target)
            if delta < -self.tolerance:
                if log is not None:
                    source_members = clustering.members(current)
                    if len(source_members) > 1:
                        log.record_split(source_members, frozenset({obj_id}))
                    log.record_merge(
                        frozenset({obj_id}), clustering.members(target)
                    )
                self.objective.apply_move(clustering, obj_id, target)
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Steepest strategy (literal paper description)
    # ------------------------------------------------------------------
    def _run_steepest(
        self,
        clustering: Clustering,
        log: EvolutionLog | None,
        scope: set[int] | None,
    ) -> None:
        for _ in range(self.max_passes * max(len(clustering.graph), 1)):
            best = self._best_change(clustering, scope)
            if best is None:
                break
            kind, payload, _delta = best
            if kind == "merge":
                cid_a, cid_b = payload
                if log is not None:
                    log.record_merge(clustering.members(cid_a), clustering.members(cid_b))
                self.objective.apply_merge(clustering, cid_a, cid_b)
            else:
                cid, part = payload
                if log is not None:
                    log.record_split(clustering.members(cid), frozenset(part))
                self.objective.apply_split(clustering, cid, part)

    def _best_change(self, clustering: Clustering, scope: set[int] | None):
        best_delta = -self.tolerance
        best = None
        seen_pairs: set[tuple[int, int]] = set()
        for cid in clustering.cluster_ids():
            if not self._in_scope(clustering, cid, scope):
                continue
            for other in clustering.neighbor_clusters(cid):
                pair = (min(cid, other), max(cid, other))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if scope is not None and not self._in_scope(clustering, other, scope):
                    continue
                delta = self.objective.delta_merge(clustering, cid, other)
                if delta < best_delta:
                    best_delta = delta
                    best = ("merge", pair, delta)
            if clustering.size(cid) < 2:
                continue
            for obj_id in clustering.weakest_members(cid, self.split_candidates):
                delta = self.objective.delta_split(clustering, cid, {obj_id})
                if delta < best_delta:
                    best_delta = delta
                    best = ("split", (cid, frozenset({obj_id})), delta)
        return best
