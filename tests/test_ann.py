import numpy as np
import pytest

from slhyde.ann import AnnIndex, ann_search
from slhyde.embed import EmbeddingCache
from slhyde.errors import ValidationError
from slhyde.retrieval import DenseIndex, dense_search


def _unit_rows(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _cache(n, dim, seed=0):
    return EmbeddingCache(ids=[f"d{i:05d}" for i in range(n)], matrix=_unit_rows(n, dim, seed))


class TestAnnSearch:
    def test_duplicate_vector_found_at_k1(self):
        cache = _cache(200, 32, seed=1)
        index = AnnIndex(cache, seed=0)
        hits = ann_search(index, cache.matrix[123], k=1)
        assert hits.ids[0] == "d00123"

    def test_empty_index_errors(self):
        cache = EmbeddingCache(ids=[], matrix=np.zeros((0, 8), dtype=np.float32))
        index = AnnIndex(cache)
        with pytest.raises(ValidationError, match="empty"):
            ann_search(index, np.zeros(8), k=1)

    def test_breadth_at_corpus_size_equals_exact(self):
        cache = _cache(300, 32, seed=2)
        index = AnnIndex(cache, seed=0)
        dense = DenseIndex(cache)
        rng = np.random.default_rng(3)
        for _ in range(20):
            query = rng.normal(size=32)
            approx = ann_search(index, query, k=10, breadth=len(cache))
            exact = dense_search(dense, query, k=10)
            assert list(approx) == list(exact)

    def test_recall_at_10_above_95_percent(self):
        cache = _cache(500, 64, seed=4)
        index = AnnIndex(cache, seed=0)
        dense = DenseIndex(cache)
        rng = np.random.default_rng(5)
        total, hit = 0, 0
        for _ in range(50):
            query = rng.normal(size=64)
            exact_ids = set(dense_search(dense, query, k=10).ids)
            ann_ids = set(ann_search(index, query, k=10).ids)
            total += 10
            hit += len(exact_ids & ann_ids)
        assert hit / total >= 0.95

    def test_dim_mismatch(self):
        index = AnnIndex(_cache(50, 16))
        with pytest.raises(ValidationError, match="dim"):
            ann_search(index, np.zeros(8), k=1)

    def test_deterministic_build_and_search(self):
        cache = _cache(150, 24, seed=6)
        a = AnnIndex(cache, seed=42)
        b = AnnIndex(cache, seed=42)
        query = np.random.default_rng(7).normal(size=24)
        assert list(ann_search(a, query, k=5)) == list(ann_search(b, query, k=5))
