"""Jaccard similarity over token sets (used by the Cora-like dataset)."""

from __future__ import annotations

from typing import Iterable

from .base import SimilarityFunction


def tokenize(text: str) -> frozenset[str]:
    """Lower-case whitespace tokenization into a frozen token set."""
    return frozenset(token for token in text.lower().split() if token)


def jaccard_from_counts(shared: int, size_a: int, size_b: int) -> float:
    """Jaccard coefficient from counts: ``shared / (size_a + size_b - shared)``.

    The one expression both scoring paths evaluate: :func:`jaccard` on
    two sets and the similarity graph on a blocking index's shared-token
    counts. Integer sums are exact, so the two agree bit for bit.
    """
    if shared == 0:
        return 0.0
    return shared / (size_a + size_b - shared)


def jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    """Plain Jaccard coefficient ``|a ∩ b| / |a ∪ b|`` (0 for two empty sets)."""
    return jaccard_from_counts(len(a & b), len(a), len(b))


class JaccardSimilarity(SimilarityFunction):
    """Jaccard similarity between records exposing token sets.

    Accepts either raw strings (tokenized on the fly), iterables of
    tokens, or pre-computed ``frozenset`` payloads. Pre-tokenising once
    per record and passing frozensets is the fast path used by the
    dataset generators.
    """

    name = "jaccard"

    def similarity(self, a, b) -> float:
        return jaccard(self._as_tokens(a), self._as_tokens(b))

    #: The count form: Jaccard from a shared-token count and two set sizes.
    from_counts = staticmethod(jaccard_from_counts)

    def prepare(self, payload) -> frozenset[str]:
        """Tokenize once per object — pair scoring then skips ``_as_tokens``."""
        return self._as_tokens(payload)

    @staticmethod
    def _as_tokens(value) -> frozenset[str]:
        if isinstance(value, frozenset):
            return value
        if isinstance(value, str):
            return tokenize(value)
        if isinstance(value, Iterable):
            return frozenset(value)
        raise TypeError(f"cannot interpret {type(value)!r} as a token set")
