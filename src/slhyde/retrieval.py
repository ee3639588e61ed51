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
   float32 against fixed tiles of rows, one doc-major matrix product per tile
   into a (tile rows, queries) buffer (`_coarse_rows`). A coarse score
   differs from the float64 score (divided by the query norm) by at most
   `eps`, about (d+2)·2⁻²⁴·max‖row‖ with a safety factor of two, whatever
   order the BLAS sums in.
2. Exact: let τ be the k-th largest coarse score over all rows. Since k rows
   have a coarse score of at least τ, the k-th best float64 score is at least
   τ − eps, so every row of the float64 top k (ties at the cut included) has a
   coarse score of at least τ − 2·eps. Each query carries a running floor,
   T − 2·eps, where T is the k-th largest coarse score of the rows seen so far
   (−∞ while fewer than k have been seen). T only rises, and never above τ,
   because the k-th largest of a part is at most that of the whole. The first
   tile, when it has at least k rows, sets T from its own scores. Each tile
   keeps, for the whole block at once, the rows at or above their query's
   floor: one comparison of the tile, then `flatnonzero`, then a grouping by
   query. T is then updated by one np.partition per tile, of each query's k
   best so far beside the tile's kept scores (padded to the longest query).
   Candidates below the risen floor are dropped at the end, and whenever the
   block holds twice as many as after the last drop (and over 2·k a query),
   so the drops cost time linear in the rows kept, also for a zero query that
   keeps every row. Every row seen with a coarse score of at least T was at
   or above each earlier floor, so it is still a candidate, and T is also the
   k-th largest of the candidates. After the last tile T is τ, so the
   candidates hold every row scoring at least τ − 2·eps, and little else. They
   are rescored in float64 with the original query and ordered by score
   descending, then id ascending, so the result equals a full float64 scan. A
   query keeps its k best and the rows within 2·eps of T, so candidates stay
   about k a query for every k ≤ n, also when k exceeds a tile's rows. With
   one tile the first floor is already final, and no merge is made.

`ranks_of` uses the same margin around each target's coarse score, taken once
per query as a float32 dot of the unit query with the target's row; whatever
the order of its sums, that is within eps of the float64 score like any other
coarse score, so the target's own row lies in its band. Tile by tile, rows
more than 2·eps above the target's coarse score are counted as higher for
certain, rows more than 2·eps below are lower, and only the band between is
collected, for the whole block at once, and then rescored.

Every threshold is a float64, and the float32 scores are compared with the
largest float32 at or below it (`_floor32`). Comparing them with the float64
itself would convert the whole tile, and under NumPy 2's scalar rules a Python
float is rounded to nearest float32, which could drop a row at the boundary.
For a float32 x, a float64 v and f the largest float32 ≤ v, x > v exactly when
x > f, so "above" and "at or below" stay exact. x ≥ v implies x ≥ f, and
x ≥ f admits only one value below v, f itself: an "at or above" test may keep a
row equal to f, which only adds a candidate that the float64 phase rescores,
so no result changes.

Memory: a call holds the matrix plus one float32 buffer of at most 2^18 scores
(1 MB: 4,096 rows × 64 queries) whatever n is, into which every tile's coarse
scores are written. A search compares a tile with one boolean mask of its
shape (a quarter of the buffer), and `ranks_of` 2^14 scores at a time. The
first tile's T is selected 8 score columns per np.partition call, so that copy
is of 8 columns. Beside these, a search holds a block's candidates (about k
per query, 12 bytes each, at most twice that between drops) and the k
best coarse scores per query, and `ranks_of` its bands. The float64 phase
copies at most 4,096 rows to float64 at a time. The hits themselves are k per
query, and the query matrix is copied to float64 whole: callers search a chunk
of 64 queries at a time (the CLI's dense runs too), so that copy is of 64
rows.

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
_TILE_SCORES = 2**18  # float32 coarse scores per tile (1 MB): tile rows × block queries
_TAU_COLUMNS = 8   # score columns per np.partition call
_ROW_BLOCK = 4     # rows per float64 matrix-vector product
_EXACT_ROWS = 4096  # rows per float64 rescoring slice, a multiple of _ROW_BLOCK
_BAND_SCORES = 2**14  # coarse scores per ranks_of comparison
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
    (first row, float32 scores of the tile of rows that starts there against
    the block's unit queries) for consecutive tiles that cover every row. The
    scores are doc-major, a (tile rows, queries) array from one
    `tile @ unit.T` product, and a tile holds at most 2^18 scores whatever n
    is: each is written into one buffer, so a tile's scores are overwritten
    once the next tile is drawn. A query whose norm is 0 or overflows scores
    0 everywhere, so every row is shortlisted and the result is still exact.
    """
    if not len(queries):
        return
    matrix = index.cache.matrix
    block_rows = min(_QUERY_BLOCK, len(queries))
    tile_rows = max(1, _TILE_SCORES // block_rows)
    buffer = np.empty(block_rows * min(tile_rows, len(matrix)), dtype=np.float32)

    def tiles(unit_t: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        for first in range(0, len(matrix), tile_rows):
            tile = matrix[first : first + tile_rows]
            out = buffer[: len(tile) * unit_t.shape[1]].reshape(len(tile), unit_t.shape[1])
            yield first, np.matmul(tile, unit_t, out=out)

    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1, keepdims=True)
        unit = np.divide(block, norms, out=np.zeros_like(block), where=(norms > 0) & np.isfinite(norms))
        unit = unit.astype(np.float32)
        yield block, unit, tiles(unit.T)


def _floor32(thresholds: np.ndarray) -> np.ndarray:
    """The largest float32 at or below each float64 of `thresholds`."""
    with np.errstate(over="ignore"):
        rounded = thresholds.astype(np.float32)
    return np.where(rounded > thresholds, np.nextafter(rounded, np.float32(-np.inf)), rounded)


def _kth_largest(scores: np.ndarray, k: int) -> np.ndarray:
    """The k-th largest of each column of the (rows, queries) `scores` as
    float64, partitioning 8 columns per call (a copy of 8 columns, not of the
    whole tile)."""
    cut = len(scores) - k
    kth = np.empty(scores.shape[1], dtype=np.float64)
    for j in range(0, scores.shape[1], _TAU_COLUMNS):
        part = scores[:, j : j + _TAU_COLUMNS].T.copy()
        part.partition(cut, axis=1)
        kth[j : j + _TAU_COLUMNS] = part[:, cut]
    return kth


def _grouping(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, counts): the stable order that groups `keys` (row · width +
    query) by query, and the number of keys of each query of the block."""
    queries = (keys % width).astype(np.min_scalar_type(width))  # a small int type: radix sorted
    return np.argsort(queries, kind="stable"), np.bincount(queries, minlength=width)


def _by_query(keys: np.ndarray, width: int) -> list[np.ndarray]:
    """The rows of each query's `keys` (row · width + query, ascending), one
    ascending array per query of the block."""
    order, counts = _grouping(keys, width)
    return np.split(keys[order] // width, np.cumsum(counts)[:-1])


def _exact_scores(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """float64 inner products of matrix[rows] with query, four rows per BLAS
    call, copying at most 4,096 rows to float64 at a time."""
    if len(rows) > _EXACT_ROWS:
        slices = range(0, len(rows), _EXACT_ROWS)
        return np.concatenate([_exact_scores(matrix, rows[i : i + _EXACT_ROWS], query) for i in slices])
    count = len(rows)
    padded = np.zeros((count + (-count) % _ROW_BLOCK, matrix.shape[1]), dtype=np.float64)
    padded[:count] = matrix[rows]
    return (padded.reshape(-1, _ROW_BLOCK, matrix.shape[1]) @ query).ravel()[:count]


def _top_k(index: DenseIndex, rows: np.ndarray, scores: np.ndarray, k: int) -> RankedHits:
    """The k best of `rows` by their `scores`: score descending, ties by ascending id."""
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    ids = index.cache.ids
    return RankedHits(ids=[ids[row] for row in rows[order].tolist()], scores=scores[order])


def _above_floors(pieces: list[tuple[np.ndarray, np.ndarray]], floors: np.ndarray, width: int):
    """The candidates of `pieces`, (keys, coarse scores) pairs, at or above
    their query's floor, as one (keys, coarse scores) pair."""
    keys, coarse = map(np.concatenate, zip(*pieces))
    keep = coarse >= _floor32(floors)[keys % width]
    return keys[keep], coarse[keep]


def _search_block(index: DenseIndex, block: np.ndarray, tiles, k: int) -> list[RankedHits]:
    """The exact top k (k <= n) of each query of one `_coarse_rows` block,
    from its `tiles`.

    A candidate is kept as its key, row · width + query (so tile order and
    `flatnonzero` order keep the keys ascending), beside its coarse score;
    `best` holds each query's k largest coarse scores so far, −inf padded.
    Candidates under a risen floor are dropped at the end, and whenever twice
    as many are held as after the last such drop (or twice k·width), so the
    drops cost O(held) in all even where a zero query keeps every row.
    """
    width = len(block)
    floors = np.full(width, -np.inf)  # per query: T − margin, T the k-th best coarse score so far
    best = np.full((width, k), -np.inf, dtype=np.float32)
    pieces, held, limit = [], 0, 2 * k * width
    for first, scores in tiles:
        if first == 0 and len(scores) >= k:  # the first floor: T of the whole first tile
            floors = _kth_largest(scores, k) - index._margin
        hits = np.flatnonzero(scores >= _floor32(floors))
        fresh = scores.ravel()[hits]
        pieces.append((hits + first * width, fresh))
        held += len(hits)
        if len(scores) == len(index):  # one tile: its floor is already final
            break
        # T over every row so far: one partition of the k best beside the tile's kept scores
        order, counts = _grouping(hits, width)
        spread = counts.max()
        padded = np.full((width, spread + k), -np.inf, dtype=np.float32)
        padded[:, spread:] = best
        places = np.arange(len(hits)) - np.repeat(np.cumsum(counts) - counts, counts)
        padded[np.repeat(np.arange(width), counts), places] = fresh[order]
        padded.partition(spread, axis=1)
        best = padded[:, spread:]
        floors = best[:, 0].astype(np.float64) - index._margin
        if held > limit:
            pieces = [_above_floors(pieces, floors, width)]
            held = len(pieces[0][0])
            limit = 2 * max(k * width, held)
    keys, _ = _above_floors(pieces, floors, width)
    return [
        _top_k(index, shortlist, _exact_scores(index.cache.matrix, shortlist, query), k)
        for query, shortlist in zip(block, _by_query(keys, width))
    ]


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


def _band(scores: np.ndarray, low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per query, the number of rows scoring above its `high`; the flat
    indices of the rows scoring from its `low` to its `high`) for the (rows,
    queries) `scores`, compared 2^14 scores at a time, so that no mask of the
    whole tile is made."""
    width = scores.shape[1]
    step = max(1, _BAND_SCORES // width)
    ones = np.ones(step, dtype=np.float32)
    above = np.zeros(width, dtype=np.int64)
    band = []
    for start in range(0, len(scores), step):
        part = scores[start : start + step]
        over = part > high
        # counted by a float32 product, exactly: every partial sum is an integer below 2^24
        above += (ones[: len(part)] @ over.astype(np.float32)).astype(np.int64)
        band.append(np.flatnonzero((part >= low) > over) + start * width)  # True > False: in, not over
    return above, np.concatenate(band)


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
        width = len(block)
        at = positions[len(ranks) : len(ranks) + width]
        # each target's coarse score, once: a float32 dot, within eps like any coarse score
        centers = np.einsum("ij,ij->i", unit, matrix[at]).astype(np.float64)
        low, high = _floor32(centers - index._margin), _floor32(centers + index._margin)
        higher = np.zeros(width, dtype=np.int64)
        keys = []
        for first, scores in tiles:
            above, band = _band(scores, low, high)
            higher += above
            keys.append(band + first * width)
        bands = _by_query(np.concatenate(keys), width)
        for query, position, count, band in zip(block, at, higher.tolist(), bands):
            exact = _exact_scores(matrix, band, query)
            target_score = exact[np.searchsorted(band, position)]  # the target is in its own band
            count += int(np.count_nonzero(exact > target_score))
            tied = (exact == target_score) & (index._id_rank[band] < index._id_rank[position])
            ranks.append(1 + count + int(np.count_nonzero(tied)))
    return ranks
