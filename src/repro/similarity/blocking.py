"""Candidate generation (blocking) for the dynamic similarity graph.

Scoring every pair of objects is quadratic; record-linkage systems use
*blocking* to propose only plausibly-similar candidate pairs. We provide
three interchangeable indexes:

* :class:`BruteForceIndex` — every other object is a candidate. Exact,
  used in tests and for small workloads.
* :class:`TokenBlockingIndex` — textual records share a block per token
  (standard token blocking for entity resolution).
* a spatial grid for numeric vectors lives in :mod:`repro.similarity.grid_index`.

All indexes support dynamic add/remove, matching the paper's dynamic
workload (add/remove/update operations, §3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from itertools import chain
from typing import Any, Callable, Iterable, Mapping

from .jaccard import tokenize


class CandidateIndex(ABC):
    """Dynamic index proposing candidate neighbours for a payload."""

    @abstractmethod
    def add(self, obj_id: int, payload: Any) -> None:
        """Register an object with the index."""

    @abstractmethod
    def remove(self, obj_id: int, payload: Any) -> None:
        """Remove a previously-added object."""

    @abstractmethod
    def candidates(self, payload: Any) -> set[int]:
        """Object ids that could be similar to ``payload``.

        The returned set may contain the querying object's own id; the
        similarity graph filters self-pairs.
        """


class BruteForceIndex(CandidateIndex):
    """All registered objects are candidates (exact, O(n) per query)."""

    def __init__(self) -> None:
        self._ids: set[int] = set()

    def add(self, obj_id: int, payload: Any) -> None:
        self._ids.add(obj_id)

    def remove(self, obj_id: int, payload: Any) -> None:
        self._ids.discard(obj_id)

    def candidates(self, payload: Any) -> set[int]:
        return set(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class TokenBlockingIndex(CandidateIndex):
    """Token blocking: objects sharing at least one token are candidates.

    Parameters
    ----------
    key:
        Extracts the blocking tokens from a payload. Defaults to
        tokenizing ``str(payload)``; dataset generators pass a custom key
        returning pre-computed token sets.
    max_block_size:
        Tokens whose block grows beyond this many objects are treated as
        stop words and stop generating candidates (a standard guard
        against huge blocks dominating the candidate count). ``None``
        disables the guard.
    """

    def __init__(
        self,
        key: Callable[[Any], Iterable[str]] | None = None,
        max_block_size: int | None = 200,
    ) -> None:
        self._key = key if key is not None else lambda payload: tokenize(str(payload))
        self._blocks: dict[str, set[int]] = defaultdict(set)
        self._max_block_size = max_block_size
        # Tokens computed at add time, so remove never re-tokenizes.
        self._tokens: dict[int, tuple[str, ...]] = {}
        # Stored token count per object, read by count-based scoring.
        self._sizes: dict[int, int] = {}

    def add(self, obj_id: int, payload: Any) -> None:
        tokens = tuple(self._key(payload))
        self._tokens[obj_id] = tokens
        self._sizes[obj_id] = len(tokens)
        for token in tokens:
            self._blocks[token].add(obj_id)

    def remove(self, obj_id: int, payload: Any) -> None:
        tokens = self._tokens.pop(obj_id, None)
        self._sizes.pop(obj_id, None)
        if tokens is None:
            tokens = tuple(self._key(payload))
        for token in tokens:
            block = self._blocks.get(token)
            if block is None:
                continue
            block.discard(obj_id)
            if not block:
                del self._blocks[token]

    def candidates(self, payload: Any) -> set[int]:
        found: set[int] = set()
        for token in self._key(payload):
            block = self._blocks.get(token)
            if block is None:
                continue
            if self._max_block_size is not None and len(block) > self._max_block_size:
                continue
            found.update(block)
        return found

    def candidate_overlaps(
        self, payload: Any
    ) -> tuple[Iterable[str], set[int], Counter[int], Mapping[int, int]]:
        """Candidates plus the counts that score them under Jaccard (ScanCount).

        Returns ``(tokens, found, shared, sizes)``: the payload's blocking
        tokens as the key produced them; ``found``, equal to
        :meth:`candidates` and built by the same sequence of set updates,
        so it iterates in the same order (the similarity graph fills
        adjacency rows in this order, and clustering outcomes depend on
        row order, so counting must not reorder them); ``shared[i]``, the number of
        the payload's tokens that object ``i`` also holds; ``sizes[i]``,
        object ``i``'s stored token count. ``shared`` counts over *all*
        of the payload's blocks, stop-word blocks included — only
        candidate generation obeys ``max_block_size`` — so it is the
        exact intersection size whenever the key yields distinct tokens.
        ``sizes`` is the index's live map: read it, never change it.
        """
        tokens = self._key(payload)
        found: set[int] = set()
        blocks = []
        limit = self._max_block_size
        for token in tokens:
            block = self._blocks.get(token)
            if block is None:
                continue
            blocks.append(block)
            if limit is not None and len(block) > limit:
                continue
            found.update(block)
        return tokens, found, Counter(chain.from_iterable(blocks)), self._sizes

    def block_sizes(self) -> dict[str, int]:
        """Diagnostic: current block sizes keyed by token."""
        return {token: len(block) for token, block in self._blocks.items()}
