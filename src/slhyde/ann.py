"""Approximate nearest-neighbor search over an embedding cache.

A navigable-small-world graph with a layered skip structure: every vector
lives on layer 0, a geometrically thinning subset lives on higher layers,
and queries greedily descend from the top layer before a best-first sweep
of layer 0. Similarity is the inner product (vectors are unit-normalized).

A query breadth at or above the number of indexed vectors falls back to an
exact scan, so wide-breadth searches equal dense_search exactly.

No command uses this index: hard-negative mining searches exactly with
`retrieval.search_many`. The module is kept only because the benchmark's
tracer imports `AnnIndex`.

Recall falls with corpus size. With the default parameters (degree 16, build
breadth 200, search breadth 64), recall@10 against exact search over 100
random queries on random 256-d unit vectors measured 0.989 at 1,000 vectors,
0.909 at 2,000 and 0.73 at 5,000. The tests check recall >= 0.95 only up to
1,000 vectors.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .embed import EmbeddingCache
from .errors import ValidationError
from .retrieval import DenseIndex, RankedHits, _exact_scores, _top_k, dense_search


class AnnIndex:
    def __init__(
        self,
        cache: EmbeddingCache,
        graph_degree: int = 16,
        build_breadth: int = 200,
        search_breadth: int = 64,
        seed: int = 0,
    ):
        if graph_degree < 2:
            raise ValidationError("graph_degree must be >= 2")
        if build_breadth < 1 or search_breadth < 1:
            raise ValidationError("breadth parameters must be >= 1")
        self.cache = cache
        self.graph_degree = graph_degree
        self.build_breadth = build_breadth
        self.search_breadth = search_breadth
        self.seed = seed
        self._dense = DenseIndex(cache)
        self._matrix = cache.matrix
        self._levels = np.zeros(len(cache), dtype=np.int32)
        self._neighbors: list[list[list[int]]] = []
        self._entry = -1
        self._max_level = -1
        self._build_graph()

    def __len__(self) -> int:
        return len(self.cache)

    @property
    def dim(self) -> int:
        return self.cache.dim

    def _cap(self, level: int) -> int:
        # Layer 0 keeps twice the degree, as is conventional.
        return self.graph_degree * 2 if level == 0 else self.graph_degree

    def _build_graph(self) -> None:
        n = len(self.cache)
        if n == 0:
            return
        rng = np.random.Generator(np.random.PCG64(self.seed))
        scale = 1.0 / math.log(self.graph_degree)
        draws = rng.random(n)
        self._levels = np.floor(-np.log(draws) * scale).astype(np.int32)
        self._neighbors = [
            [[] for _ in range(int(level) + 1)] for level in self._levels
        ]
        for node in range(n):
            self._insert(node)

    def _sims(self, node_ids: list[int], query32: np.ndarray) -> np.ndarray:
        return self._matrix[node_ids] @ query32

    def _search_layer(
        self, query32: np.ndarray, entries: list[int], breadth: int, level: int
    ) -> list[tuple[float, int]]:
        """Best-first sweep of one layer; returns (similarity, node) sorted descending."""
        visited = set(entries)
        entry_sims = self._sims(entries, query32)
        # candidates: max-heap via negated similarity; best: min-heap of kept results
        candidates = [(-float(s), node) for s, node in zip(entry_sims, entries)]
        heapq.heapify(candidates)
        best = [(float(s), node) for s, node in zip(entry_sims, entries)]
        heapq.heapify(best)
        while len(best) > breadth:
            heapq.heappop(best)
        while candidates:
            neg_sim, node = heapq.heappop(candidates)
            if len(best) >= breadth and -neg_sim < best[0][0]:
                break
            fresh = [nb for nb in self._neighbors[node][level] if nb not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for neighbor, sim in zip(fresh, self._sims(fresh, query32)):
                sim = float(sim)
                if len(best) < breadth:
                    heapq.heappush(best, (sim, neighbor))
                    heapq.heappush(candidates, (-sim, neighbor))
                elif sim > best[0][0]:
                    heapq.heappushpop(best, (sim, neighbor))
                    heapq.heappush(candidates, (-sim, neighbor))
        return sorted(best, reverse=True)

    def _insert(self, node: int) -> None:
        level = int(self._levels[node])
        if self._entry < 0:
            self._entry = node
            self._max_level = level
            return
        vector = self._matrix[node]
        entries = [self._entry]
        for layer in range(self._max_level, level, -1):
            entries = [self._search_layer(vector, entries, 1, layer)[0][1]]
        for layer in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(vector, entries, self.build_breadth, layer)
            cap = self._cap(layer)
            chosen = [nid for _, nid in found[:cap]]
            self._neighbors[node][layer] = list(chosen)
            for neighbor in chosen:
                links = self._neighbors[neighbor][layer]
                links.append(node)
                if len(links) > cap:
                    self._prune(neighbor, layer, cap)
            entries = [nid for _, nid in found]
        if level > self._max_level:
            self._max_level = level
            self._entry = node

    def _prune(self, node: int, level: int, cap: int) -> None:
        links = self._neighbors[node][level]
        sims = self._sims(links, self._matrix[node])
        keep = np.argsort(-sims, kind="stable")[:cap]
        self._neighbors[node][level] = [links[i] for i in keep]


def ann_search(index: AnnIndex, vector, k: int, breadth: int | None = None) -> RankedHits:
    """Approximate top-k. Breadth >= index size degenerates to an exact scan."""
    if len(index) == 0:
        raise ValidationError("cannot search an empty index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    breadth = index.search_breadth if breadth is None else breadth
    if breadth < 1:
        raise ValidationError("breadth must be >= 1")
    if breadth >= len(index):
        return dense_search(index._dense, vector, k)
    v64 = np.asarray(vector, dtype=np.float64).ravel()
    if v64.shape[0] != index.dim:
        raise ValidationError(f"query dim {v64.shape[0]} does not match index dim {index.dim}")
    query32 = v64.astype(np.float32)
    entries = [index._entry]
    for layer in range(index._max_level, 0, -1):
        entries = [index._search_layer(query32, entries, 1, layer)[0][1]]
    found = index._search_layer(query32, entries, max(breadth, k), 0)
    candidate_ids = np.fromiter((nid for _, nid in found), dtype=np.intp, count=len(found))
    # Rescore the candidate set in float64 and apply the dense tie rule.
    scores = _exact_scores(index._matrix, candidate_ids, v64)
    return _top_k(index._dense, candidate_ids, scores, k)
