"""Dynamic sparse similarity graph.

The whole DynamicC stack — clustering state, objective functions,
feature extraction, DBSCAN — reads pairwise similarities from this
structure. It stores, for each object, the neighbours whose similarity
is at or above a storage threshold (absent pairs read as similarity 0,
matching the paper's "absence of an edge … represents non-similarity",
§2.1), and it supports the three dynamic operations of §3.1: add,
remove, update.

Candidate pairs come from a pluggable :class:`~repro.similarity.blocking.CandidateIndex`
(brute force, token blocking, or a spatial grid) so graph maintenance is
far cheaper than all-pairs scoring on realistic workloads. Jaccard over
token blocking is scored from the index's shared-token counts
(ScanCount) instead of one ``similarity()`` call per candidate; every
other pairing scores candidates pair by pair. Both paths store the same
edges with the same floats, in the candidate set's iteration order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .base import SimilarityFunction
from .blocking import BruteForceIndex, CandidateIndex, TokenBlockingIndex
from .jaccard import JaccardSimilarity


def payloads_equal(a: Any, b: Any) -> bool:
    """Structural payload equality across the payload types the
    generators produce (numpy arrays don't define truthy ``==``)."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and bool((a == b).all())
        )
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False


class SimilarityGraph:
    """Sparse, symmetric, dynamically-maintained similarity graph.

    Parameters
    ----------
    similarity:
        The pairwise measure (Table 1 lists one per dataset).
    index:
        Candidate generator; defaults to brute force (exact, O(n) per
        insert — fine for tests and small workloads).
    store_threshold:
        Pairs scoring strictly below this are not stored and read back
        as 0. A small positive threshold keeps the graph sparse without
        affecting clustering decisions (sub-threshold similarities are
        noise for every objective used in the paper).
    """

    def __init__(
        self,
        similarity: SimilarityFunction,
        index: CandidateIndex | None = None,
        store_threshold: float = 0.05,
    ) -> None:
        if not 0.0 <= store_threshold <= 1.0:
            raise ValueError("store_threshold must be in [0, 1]")
        self.similarity_fn = similarity
        self.index = index if index is not None else BruteForceIndex()
        self.store_threshold = store_threshold
        self._payloads: dict[int, Any] = {}
        # Per-object prepared payloads (tokens, coerced arrays…): the
        # parsing half of a similarity measure runs once per object
        # here, never once per scored pair.
        self._prepared: dict[int, Any] = {}
        self._adj: dict[int, dict[int, float]] = {}
        self._total_weight = 0.0
        # Token-blocked Jaccard is scored from the index's shared-token
        # counts while every inserted payload's blocking tokens are its
        # prepared token set; the first payload whose tokens differ turns
        # it off for good, since the index's stored counts then stop
        # matching the sets Jaccard compares.
        self._count_scoring = (
            type(similarity) is JaccardSimilarity
            and type(self.index) is TokenBlockingIndex
        )
        #: Monotonic counter bumped on every structural change; derived
        #: caches (e.g. DBSCAN core status) key on it.
        self.version = 0

    # ------------------------------------------------------------------
    # Dynamic operations (§3.1: Adding / Removing / Updating)
    # ------------------------------------------------------------------
    def _insert(self, obj_id: int, payload: Any) -> None:
        """Shared add core: score against index candidates, no version bump.

        Rows are filled in the candidate set's iteration order, on both
        scoring paths: clustering reads rows in that order, and equal
        edges stored in another order can end in another partition.
        """
        if obj_id in self._payloads:
            raise KeyError(f"object {obj_id} already present")
        prepared = self.similarity_fn.prepare(payload)
        self._payloads[obj_id] = payload
        self._prepared[obj_id] = prepared
        row = self._adj[obj_id] = {}
        if self._count_scoring:
            tokens, found, shared, sizes = self.index.candidate_overlaps(payload)
            self._count_scoring = tokens is prepared or (
                isinstance(tokens, (set, frozenset)) and tokens == prepared
            )
        else:
            found = self.index.candidates(payload)
        if self._count_scoring:
            self._score_counts(obj_id, row, found, shared, len(prepared), sizes)
        else:
            self._score_pairs(obj_id, row, prepared, found)
        # Register with the index only after scoring so the index never
        # proposes the object to itself mid-insert.
        self.index.add(obj_id, payload)

    def _score_pairs(self, obj_id: int, row: dict, prepared: Any, found: set[int]) -> None:
        """One ``similarity()`` call per candidate: the reference path."""
        similarity = self.similarity_fn.similarity
        prepared_of = self._prepared
        threshold = self.store_threshold
        for other in found:
            if other == obj_id or other not in self._payloads:
                continue
            sim = similarity(prepared, prepared_of[other])
            if sim >= threshold and sim > 0.0:
                row[other] = sim
                self._adj[other][obj_id] = sim
                self._total_weight += sim

    def _score_counts(
        self,
        obj_id: int,
        row: dict,
        found: set[int],
        shared: Mapping[int, int],
        size: int,
        sizes: Mapping[int, int],
    ) -> None:
        """Jaccard from shared-token counts: the edges, floats and row
        order of :meth:`_score_pairs`, without intersecting each pair.

        A candidate holds every token it shares, so its score is at most
        ``count / size``; rounding is monotonic, so a candidate with
        fewer than ``least`` shared tokens cannot reach the threshold
        and is skipped before any float is computed.
        """
        jaccard = JaccardSimilarity.from_counts
        threshold = self.store_threshold
        least = 1
        while least <= size and least / size < threshold:
            least += 1
        payloads = self._payloads
        adj = self._adj
        total = self._total_weight
        for other in found:
            count = shared[other]
            if count < least or other == obj_id or other not in payloads:
                continue
            sim = jaccard(count, size, sizes[other])
            if sim >= threshold and sim > 0.0:
                row[other] = sim
                adj[other][obj_id] = sim
                total += sim
        self._total_weight = total

    def add_object(self, obj_id: int, payload: Any) -> None:
        """Insert a new object, scoring it against index candidates."""
        self._insert(obj_id, payload)
        self.version += 1

    def add_objects(self, items: Mapping[int, Any]) -> None:
        """Insert a round of objects, equivalent to serial :meth:`add_object`.

        Candidates are generated per object against the already-inserted
        prefix (earlier round members included), so every new↔new pair
        is proposed and scored exactly once — from the later side — and
        every payload is prepared exactly once. One version bump covers
        the whole round.
        """
        inserted = 0
        try:
            for obj_id, payload in items.items():
                self._insert(obj_id, payload)
                inserted += 1
        finally:
            # A mid-batch failure (e.g. a duplicate id) must not leave
            # completed inserts invisible to version-keyed caches.
            if inserted:
                self.version += 1

    def remove_object(self, obj_id: int) -> None:
        """Remove an object and all its edges."""
        payload = self._payloads.pop(obj_id, None)
        if payload is None:
            raise KeyError(f"object {obj_id} not present")
        self._prepared.pop(obj_id, None)
        self.index.remove(obj_id, payload)
        for other, sim in self._adj.pop(obj_id).items():
            del self._adj[other][obj_id]
            self._total_weight -= sim
        self.version += 1

    def update_object(self, obj_id: int, payload: Any) -> None:
        """Replace an object's payload, rescoring its edges.

        §6.1 models an update as remove + add under the *same* id. An
        update that does not change the payload is a structural no-op
        (identical payload ⇒ identical edges), so it returns without
        rescoring — and without bumping ``version``, keeping derived
        caches valid.
        """
        current = self._payloads.get(obj_id)
        if current is None:
            raise KeyError(f"object {obj_id} not present")
        if payloads_equal(current, payload):
            return
        self.remove_object(obj_id)
        self.add_object(obj_id, payload)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def similarity(self, a: int, b: int) -> float:
        """Stored similarity of a pair; 0 when no edge (or a == b)."""
        if a == b:
            return 0.0
        return self._adj.get(a, {}).get(b, 0.0)

    def neighbors(self, obj_id: int) -> dict[int, float]:
        """Mapping other-id → similarity for stored edges of ``obj_id``."""
        return self._adj[obj_id]

    def payload(self, obj_id: int) -> Any:
        return self._payloads[obj_id]

    def object_ids(self) -> Iterator[int]:
        return iter(self._payloads)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def total_weight(self) -> float:
        """Sum of stored edge similarities (each pair counted once)."""
        return self._total_weight

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate stored edges once each as ``(a, b, sim)`` with a < b."""
        for a, nbrs in self._adj.items():
            for b, sim in nbrs.items():
                if a < b:
                    yield a, b, sim

    # ------------------------------------------------------------------
    # Connectivity (used by §5.3 "active" cluster sampling)
    # ------------------------------------------------------------------
    def component_of(self, seeds: Iterable[int]) -> set[int]:
        """All objects connected (via stored edges) to any seed."""
        seen: set[int] = set()
        queue: deque[int] = deque()
        for seed in seeds:
            if seed in self._payloads and seed not in seen:
                seen.add(seed)
                queue.append(seed)
        while queue:
            node = queue.popleft()
            for other in self._adj[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen

    def components(self) -> list[set[int]]:
        """All connected components of the stored graph."""
        remaining = set(self._payloads)
        result = []
        while remaining:
            seed = next(iter(remaining))
            component = self.component_of([seed])
            result.append(component)
            remaining -= component
        return result

    # ------------------------------------------------------------------
    # Aggregates used by features / objectives
    # ------------------------------------------------------------------
    def intra_weight(self, members: Iterable[int]) -> float:
        """Sum of edge similarities among ``members`` (each pair once)."""
        member_set = set(members)
        total = 0.0
        for a in member_set:
            nbrs = self._adj.get(a)
            if not nbrs:
                continue
            for b, sim in nbrs.items():
                if b in member_set and a < b:
                    total += sim
        return total

    def cross_weight(self, left: Iterable[int], right: Iterable[int]) -> float:
        """Sum of edge similarities between two disjoint member sets."""
        left_set, right_set = set(left), set(right)
        if left_set & right_set:
            raise ValueError("cross_weight expects disjoint member sets")
        # Iterate the smaller side.
        if len(right_set) < len(left_set):
            left_set, right_set = right_set, left_set
        total = 0.0
        for a in left_set:
            for b, sim in self._adj.get(a, {}).items():
                if b in right_set:
                    total += sim
        return total
