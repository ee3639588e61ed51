"""Exact dense retrieval over an embedding cache.

Scores are inner products; with unit-normalized vectors this equals cosine
similarity. Ties are broken by ascending document id so every search result
is a deterministic total order: the index ranks its ids once (`_id_rank`, a
row's position in ascending-id order) and every tie is settled by comparing
those ranks, never the strings. Because ranking is an argsort of inner
products, multiplying the query vector by any positive scalar never changes
the result, which is what permits searching with unnormalized fused vectors.

The index holds one matrix, the cache's own float32 rows; no float64 copy is
made. `search_many` is the one search primitive and works in two passes:

1. Coarse: a float32 matrix product of blocks of queries, each scaled to unit
   length, against every row. A coarse score differs from the float64 score
   (divided by the query norm) by at most `eps`, about
   (d+2)·2⁻²⁴·max‖row‖ with a safety factor of two, whatever order the
   BLAS sums in.
2. Exact: with τ the k-th largest coarse score, every row scoring at least
   τ − 2·eps is rescored in float64 with the original query and ordered by
   score descending, then id ascending. Since k rows have a coarse score of
   at least τ, the k-th best float64 score is at least τ − eps, so every row
   of the float64 top k (ties at the cut included) has a coarse score of at
   least τ − 2·eps. The result therefore equals a full float64 scan.

`ranks_of` uses the same margin: rows more than 2·eps above the target's coarse
score are higher for certain, rows more than 2·eps below are lower, and only
the band between is rescored.

Memory: a call holds the matrix plus one `min(64, queries) × n` float32 buffer.
Every block's coarse scores are written into that buffer, and τ is selected
from one query's row at a time, so no second block of scores is ever alive.

A float64 score is computed by one BLAS matrix-vector product over a block of
four rows (zero-padded), so a row's score never depends on how many or which
other rows are scored with it, nor on how the BLAS splits work over threads.

A result is columnar: `RankedHits.ids` holds the cache's own id strings (no
copies) and `RankedHits.scores` a float64 array; (id, score) pairs with Python
floats are built only when a result is iterated.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .embed import EmbeddingCache
from .errors import ValidationError
from .util import CHUNK as _QUERY_BLOCK  # queries per coarse float32 matrix product
_ROW_BLOCK = 4     # rows per float64 matrix-vector product
_UNIT_ROUNDOFF32 = 2.0**-24
_TINY32 = 2.0**-126  # smallest normal float32: bounds underflow, gradual or flushed


@dataclass(eq=False)
class RankedHits:
    """Hits in descending-score order as two columns, doc ids and float64
    scores, with optional result metadata."""

    ids: list[str]
    scores: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.ids),):
            raise ValidationError(f"{len(self.ids)} ids but scores of shape {self.scores.shape}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self.ids, self.scores.tolist())


class DenseIndex:
    """Immutable inner-product index over an EmbeddingCache."""

    def __init__(self, cache: EmbeddingCache):
        self.cache = cache
        # _id_rank[row] is the row's position in ascending-id order: the tie key.
        self._id_rank = np.empty(len(cache), dtype=np.int64)
        self._id_rank[sorted(range(len(cache)), key=cache.ids.__getitem__)] = np.arange(len(cache))
        squared = np.einsum("ij,ij->i", cache.matrix, cache.matrix)
        max_norm = float(np.sqrt(squared.max())) if len(squared) else 0.0
        # eps bounds |coarse score - float64 score / ‖query‖| for every row: the
        # float32 rounding of the unit query and of d products and sums, plus
        # underflow, doubled for safety (which also covers the float32 norms).
        eps = 2.0 * ((self.dim + 2) * _UNIT_ROUNDOFF32 * max_norm + self.dim * _TINY32)
        # A row whose coarse score is more than 2·eps above another's has the
        # higher float64 score.
        self._margin = 2.0 * eps

    def __len__(self) -> int:
        return len(self.cache)

    @property
    def dim(self) -> int:
        return self.cache.dim


def _as_query_matrix(index: DenseIndex, vectors) -> np.ndarray:
    queries = np.asarray(vectors, dtype=np.float64)
    if queries.ndim != 2:
        raise ValidationError(f"expected a (queries, dim) matrix, got shape {queries.shape}")
    if queries.shape[1] != index.dim:
        raise ValidationError(f"query dim {queries.shape[1]} does not match index dim {index.dim}")
    if not np.isfinite(queries).all():
        raise ValidationError("query vector contains non-finite values")
    return queries


def _coarse_rows(index: DenseIndex, queries: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(query, float32 scores of every row for the query scaled to unit length)
    for each query in order.

    Blocks of 64 queries are scored by one matrix product each, all written
    into one buffer, so a score row is overwritten once the next block is
    drawn. A query whose norm is 0 or overflows scores 0 everywhere, so every
    row is shortlisted and the result is still exact.
    """
    buffer = np.empty((min(_QUERY_BLOCK, len(queries)), len(index)), dtype=np.float32)
    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1, keepdims=True)
        unit = np.divide(block, norms, out=np.zeros_like(block), where=(norms > 0) & np.isfinite(norms))
        yield from zip(block, np.matmul(unit.astype(np.float32), index.cache.matrix.T, out=buffer[: len(block)]))


def _exact_scores(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """float64 inner products of matrix[rows] with query, four rows per BLAS call."""
    count = len(rows)
    padded = np.zeros((count + (-count) % _ROW_BLOCK, matrix.shape[1]), dtype=np.float64)
    padded[:count] = matrix[rows]
    return (padded.reshape(-1, _ROW_BLOCK, matrix.shape[1]) @ query).ravel()[:count]


def _top_k(index: DenseIndex, rows: np.ndarray, scores: np.ndarray, k: int) -> RankedHits:
    """The k best of `rows` by their `scores`: score descending, ties by ascending id."""
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    ids = index.cache.ids
    return RankedHits(ids=[ids[row] for row in rows[order].tolist()], scores=scores[order])


def search_many(index: DenseIndex, vectors, k: int) -> list[RankedHits]:
    """Exact top-k for each row of the (queries, dim) matrix `vectors`; ties
    broken by ascending doc id."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    queries = _as_query_matrix(index, vectors)
    n = len(index)
    if n == 0:
        return [RankedHits(ids=[], scores=np.empty(0)) for _ in queries]
    cut = n - min(k, n)
    results = []
    for query, scores in _coarse_rows(index, queries):
        tau = np.float64(np.partition(scores, cut)[cut])
        shortlist = np.flatnonzero(scores >= tau - index._margin)
        exact = _exact_scores(index.cache.matrix, shortlist, query)
        results.append(_top_k(index, shortlist, exact, k))
    return results


def dense_search(index: DenseIndex, vector, k: int) -> RankedHits:
    """Top-k by inner product for one query vector; see search_many."""
    return search_many(index, np.reshape(vector, (1, -1)), k)[0]


def ranks_of(index: DenseIndex, vectors, targets) -> list[int]:
    """1-based full-corpus rank of targets[i] when searching with row i of the
    (queries, dim) matrix `vectors`.

    A rank equals 1 + the number of documents scoring strictly higher, plus tied
    documents with a smaller id (the same tie rule search_many applies).
    """
    queries = _as_query_matrix(index, vectors)
    if len(targets) != len(queries):
        raise ValidationError(f"{len(targets)} targets for {len(queries)} query rows")
    positions = [index.cache.position(target) for target in targets]
    ranks = []
    for (query, coarse), position in zip(_coarse_rows(index, queries), positions):
        target_coarse = np.float64(coarse[position])
        higher = int(np.count_nonzero(coarse > target_coarse + index._margin))
        band = np.flatnonzero(np.abs(coarse - target_coarse) <= index._margin)
        exact = _exact_scores(index.cache.matrix, band, query)
        target_score = exact[np.searchsorted(band, position)]
        higher += int(np.count_nonzero(exact > target_score))
        target_rank = index._id_rank[position]
        tied_before = int(np.count_nonzero((exact == target_score) & (index._id_rank[band] < target_rank)))
        ranks.append(1 + higher + tied_before)
    return ranks
