"""Exact dense retrieval over an embedding cache.

Scores are inner products; with unit-normalized vectors this equals cosine
similarity. Ties are broken by ascending document id so every search result
is a deterministic total order. Because ranking is an argsort of inner
products, multiplying the query vector by any positive scalar never changes
the result, which is what permits searching with unnormalized fused vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .embed import EmbeddingCache
from .errors import ValidationError


@dataclass
class RankedHits:
    """Descending-score (doc_id, score) list with optional result metadata."""

    hits: list[tuple[str, float]]
    meta: dict[str, Any] = field(default_factory=dict)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.hits]

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.hits)

    def __getitem__(self, idx):
        return self.hits[idx]


class DenseIndex:
    """Immutable inner-product index over an EmbeddingCache."""

    def __init__(self, cache: EmbeddingCache):
        self.cache = cache
        # Score in float64 so equal inputs produce exactly equal scores
        # regardless of BLAS summation path.
        self._matrix = cache.matrix.astype(np.float64)
        self._ids = np.array(cache.ids, dtype=str) if cache.ids else np.empty(0, dtype=str)

    def __len__(self) -> int:
        return len(self.cache)

    @property
    def dim(self) -> int:
        return self.cache.dim


def _as_query_vector(index: DenseIndex, vector) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape[0] != index.dim:
        raise ValidationError(f"query dim {v.shape[0]} does not match index dim {index.dim}")
    return v


def _scores(index: DenseIndex, vector) -> np.ndarray:
    return index._matrix @ _as_query_vector(index, vector)


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> RankedHits:
    """The k best (id, score) pairs: score descending, ties by ascending id."""
    order = np.lexsort((ids, -scores))[:k]
    return RankedHits(hits=[(str(ids[i]), float(scores[i])) for i in order])


def dense_search(index: DenseIndex, vector, k: int) -> RankedHits:
    """Top-k by inner product; ties broken by ascending doc id."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if len(index) == 0:
        return RankedHits(hits=[])
    return _top_k(index._ids, _scores(index, vector), k)


def rank_of(index: DenseIndex, vector, target: str) -> int:
    """1-based full-corpus rank of `target` when searching with `vector`.

    Equals 1 + the number of documents scoring strictly higher, plus tied
    documents with a smaller id (the same tie rule dense_search applies).
    """
    position = index.cache.position(target)
    scores = _scores(index, vector)
    target_score = scores[position]
    higher = int(np.count_nonzero(scores > target_score))
    tied_before = int(np.count_nonzero((scores == target_score) & (index._ids < target)))
    return 1 + higher + tied_before
