"""Exact dense retrieval over an embedding cache.

Scores are inner products; with unit-normalized vectors this equals cosine
similarity. Ties are broken by ascending document id so every search result
is a deterministic total order. The cache sorts its ids once, when it is
built (`EmbeddingCache.id_order`, the rows in ascending-id order, which it
also binary-searches to look an id up; there is no id dict). The index
inverts that order into `_id_rank`, a row's position in ascending-id order,
and every tie is settled by comparing those ranks, never the strings.
Because ranking is an argsort of inner products, multiplying the query
vector by any positive scalar never changes the result, which is what
permits searching with unnormalized fused vectors.

The index holds one matrix, the cache's own float32 rows; no float64 copy is
made. `search_many` is the one search primitive; it works in two passes:

1. Coarse: blocks of 64 queries, each scaled to unit length, are scored in
   float32 against fixed tiles of rows, one matrix product per tile
   (`_coarse_rows`). A coarse score differs from the float64 score (divided by
   the query norm) by at most `eps`, about (d+2)·2⁻²⁴·max‖row‖ with a safety
   factor of two, whatever order the BLAS sums in.
2. Exact: let τ be the k-th largest coarse score over all rows. Since k rows
   have a coarse score of at least τ, the k-th best float64 score is at least
   τ − eps, so every row of the float64 top k (ties at the cut included) has
   a coarse score of at least τ − 2·eps. A tile of at least k rows has its
   own k-th largest coarse score τ_t, and τ_t ≤ τ, because the k-th largest
   of a part is at most that of the whole. Each query carries a floor, the
   highest τ_t − 2·eps of the tiles so far (−∞ before any), which therefore
   never exceeds τ − 2·eps. A tile keeps its rows at or above the floor; when
   more than k clear it, the tile's k best are among them, so their k-th
   largest is τ_t, the floor rises to τ_t − 2·eps if that is higher, and only
   the rows at or above it stay. The kept candidates hold every row scoring
   at least τ − 2·eps, among them the k best, so τ is also the k-th largest
   of the candidates. The candidates scoring at least τ − 2·eps are rescored
   in float64 with the original query and ordered by score descending, then
   id ascending. The result therefore equals a full float64 scan. With one
   tile, τ_t is τ and the tile's candidates are that shortlist.

`ranks_of` uses the same margin around each target's coarse score, taken once
per query as a float32 dot of the unit query with the target's row; whatever
the order of its sums, that is within eps of the float64 score like any other
coarse score, so the target's own row lies in its band. Tile by tile, rows
more than 2·eps above the target's coarse score are counted as higher for
certain, rows more than 2·eps below are lower, and only the band between is
collected and then rescored.

Every threshold is a float64: under NumPy 2's scalar rules a Python float
compared with float32 rows is rounded to float32 and could drop a row at the
boundary.

Memory: a call holds the matrix plus one float32 buffer of at most 2^20
scores (4 MB: 64 queries × 16,384 rows) whatever n is, into which every tile's
coarse scores are written. The first tile's τ_t is selected 8 score rows per
np.partition call, so that copy is of 8 rows; a later tile partitions only
the rows that clear the floor. Beside these, a search holds a block's
candidates (at most about k per query per tile) and ranks_of its bands. The
hits themselves are k per query, and the query matrix is copied to float64
whole: callers search a chunk of 64 queries at a time (the CLI's dense runs
too), so that copy is of 64 rows.

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
_TILE_SCORES = 2**20  # float32 coarse scores per tile (4 MB): block queries × tile rows
_TAU_ROWS = 8      # score rows per np.partition call
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
    """Immutable inner-product index over an EmbeddingCache.

    The tie key `_id_rank[row]` is the row's position in ascending-id order:
    the inverse of the cache's `id_order`, so the ids are sorted once per
    cache, when it is built, and never here.
    """

    def __init__(self, cache: EmbeddingCache):
        self.cache = cache
        self._id_rank = np.empty(len(cache), dtype=np.int64)
        self._id_rank[cache.id_order] = np.arange(len(cache))
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


def _coarse_rows(index: DenseIndex, queries: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, Iterator]]:
    """(block, unit, tiles) for each block of up to 64 queries in order.

    `unit` is the block scaled to unit length, in float32, and `tiles` yields
    (first row, float32 scores of the block's unit queries against the tile of
    rows that starts there) for consecutive tiles that cover every row. A tile
    holds at most 2^20 scores whatever n is: each is written into one buffer, so
    a tile's scores are overwritten once the next tile is drawn. A query whose
    norm is 0 or overflows scores 0 everywhere, so every row is shortlisted and
    the result is still exact.
    """
    if not len(queries):
        return
    matrix = index.cache.matrix
    block_rows = min(_QUERY_BLOCK, len(queries))
    tile_rows = max(1, _TILE_SCORES // block_rows)
    buffer = np.empty(block_rows * min(tile_rows, len(matrix)), dtype=np.float32)

    def tiles(unit: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        for first in range(0, len(matrix), tile_rows):
            tile = matrix[first : first + tile_rows]
            yield first, np.matmul(unit, tile.T, out=buffer[: len(unit) * len(tile)].reshape(len(unit), len(tile)))

    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1, keepdims=True)
        unit = np.divide(block, norms, out=np.zeros_like(block), where=(norms > 0) & np.isfinite(norms))
        unit = unit.astype(np.float32)
        yield block, unit, tiles(unit)


def _kth_largest(scores: np.ndarray, k: int) -> np.ndarray:
    """The k-th largest of each row of `scores` as float64, partitioning 8 rows
    per call (a copy of 8 rows, not of the whole tile)."""
    cut = scores.shape[1] - k
    kth = np.empty(len(scores), dtype=np.float64)
    for i in range(0, len(scores), _TAU_ROWS):
        kth[i : i + _TAU_ROWS] = np.partition(scores[i : i + _TAU_ROWS], cut, axis=1)[:, cut]
    return kth


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


def _search_block(index: DenseIndex, block: np.ndarray, tiles, k: int) -> list[RankedHits]:
    """The exact top k (k <= n) of each query of one `_coarse_rows` block,
    from its `tiles`."""
    found = [[] for _ in block]  # per query: (rows, coarse scores) kept from each tile
    floors = np.full(len(block), -np.inf)  # per query: the highest τ_t − margin so far
    for first, scores in tiles:
        if first == 0 and scores.shape[1] >= k:  # the first floor: τ_t of the whole tile
            floors = _kth_largest(scores, k) - index._margin
        for j, (row, kept) in enumerate(zip(scores, found)):
            rows = (row >= floors[j]).nonzero()[0]
            coarse = row[rows]
            if len(rows) > k:  # the tile's k best clear the floor, so τ_t is their k-th
                cut = len(rows) - k
                floors[j] = max(floors[j], np.float64(np.partition(coarse, cut)[cut]) - index._margin)
                keep = coarse >= floors[j]
                rows, coarse = rows[keep], coarse[keep]
            kept.append((rows + first, coarse))
    results = []
    for query, kept in zip(block, found):
        shortlist = kept[0][0]
        if len(kept) > 1:  # τ of the merged candidates is the global τ
            rows, coarse = map(np.concatenate, zip(*kept))
            shortlist = rows[coarse >= _kth_largest(coarse[None], k)[0] - index._margin]
        exact = _exact_scores(index.cache.matrix, shortlist, query)
        results.append(_top_k(index, shortlist, exact, k))
    return results


def search_many(index: DenseIndex, vectors, k: int) -> list[RankedHits]:
    """Exact top-k for each row of the (queries, dim) matrix `vectors`; ties
    broken by ascending doc id. An empty index gives every query no hits."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    queries = _as_query_matrix(index, vectors)
    if len(index) == 0:
        return [RankedHits(ids=[], scores=np.empty(0)) for _ in queries]
    k = min(k, len(index))
    blocks = _coarse_rows(index, queries)
    return [hits for block, _, tiles in blocks for hits in _search_block(index, block, tiles, k)]


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
    matrix = index.cache.matrix
    ranks = []
    for block, unit, tiles in _coarse_rows(index, queries):
        at = positions[len(ranks) : len(ranks) + len(block)]
        # each target's coarse score, once: a float32 dot, within eps like any coarse score
        centers = np.einsum("ij,ij->i", unit, matrix[at]).astype(np.float64)
        higher = [0] * len(block)
        bands = [[] for _ in block]
        for first, scores in tiles:
            for i, (row, low, high) in enumerate(zip(scores, centers - index._margin, centers + index._margin)):
                above = (row >= low).nonzero()[0]
                band = above[row[above] <= high]
                higher[i] += len(above) - len(band)
                bands[i].append(band + first)
        for query, position, count, band in zip(block, at, higher, bands):
            band = np.concatenate(band)
            exact = _exact_scores(matrix, band, query)
            target_score = exact[np.searchsorted(band, position)]  # the target is in its own band
            count += int(np.count_nonzero(exact > target_score))
            tied = (exact == target_score) & (index._id_rank[band] < index._id_rank[position])
            ranks.append(1 + count + int(np.count_nonzero(tied)))
    return ranks
