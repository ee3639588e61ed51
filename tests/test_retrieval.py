import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhyde import retrieval
from slhyde.embed import EmbeddingCache, MockEmbedderClient, embed_texts, normalize
from slhyde.errors import ValidationError
from slhyde.retrieval import (
    DenseIndex,
    RankedHits,
    _exact_scores,
    dense_search,
    ranks_of,
    search_many,
)

from conftest import WORDS


def _index_from_rows(rows, ids=None):
    matrix = np.asarray(rows, dtype=np.float32)
    ids = ids or [f"d{i:03d}" for i in range(matrix.shape[0])]
    return DenseIndex(EmbeddingCache(ids=list(ids), matrix=matrix))


def _brute_force_ranking(matrix, ids, vector):
    """Independent reference: per-document python dot products, then sort."""
    scores = []
    for row, doc_id in zip(matrix, ids):
        scores.append((sum(float(a) * float(b) for a, b in zip(row, vector)), doc_id))
    return [doc_id for score, doc_id in sorted(scores, key=lambda p: (-p[0], p[1]))]


class TestDenseSearch:
    def test_stored_vector_is_rank_one_with_unit_score(self):
        rng = np.random.default_rng(0)
        rows = [normalize(rng.normal(size=32)) for _ in range(20)]
        index = _index_from_rows(rows)
        hits = dense_search(index, rows[7], k=5)
        assert hits.ids[0] == "d007"
        assert abs(list(hits)[0][1] - 1.0) < 1e-6

    def test_full_ranking_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 60))
            rows = rng.normal(size=(n, 16)).astype(np.float32)
            ids = [f"d{i:03d}" for i in range(n)]
            index = _index_from_rows(rows, ids)
            query = rng.normal(size=16)
            hits = dense_search(index, query, k=n)
            assert hits.ids == _brute_force_ranking(rows, ids, query)

    def test_orthogonal_query_ties_break_by_ascending_id(self):
        rows = np.eye(4, dtype=np.float32)[:3]  # three docs in first 3 dims
        index = _index_from_rows(rows, ids=["dc", "da", "db"])
        query = np.array([0.0, 0.0, 0.0, 1.0])
        hits = dense_search(index, query, k=3)
        assert hits.ids == ["da", "db", "dc"]
        assert all(score == 0.0 for _, score in hits)

    def test_k_larger_than_corpus_clamps(self):
        index = _index_from_rows(np.eye(3, dtype=np.float32))
        assert len(dense_search(index, [1.0, 0.0, 0.0], k=100)) == 3

    def test_dim_mismatch(self):
        index = _index_from_rows(np.eye(3, dtype=np.float32))
        with pytest.raises(ValidationError, match="dim"):
            dense_search(index, [1.0, 0.0], k=1)

    def test_k_must_be_positive(self):
        index = _index_from_rows(np.eye(3, dtype=np.float32))
        with pytest.raises(ValidationError):
            dense_search(index, [1.0, 0.0, 0.0], k=0)

    def test_positive_scaling_never_changes_ranking(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(50, 24)).astype(np.float32)
        index = _index_from_rows(rows)
        for _ in range(20):
            query = rng.normal(size=24)
            scale = float(rng.uniform(0.01, 100.0))
            base = dense_search(index, query, k=50).ids
            scaled = dense_search(index, query * scale, k=50).ids
            assert base == scaled

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_total_order_property(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 8)).astype(np.float32)
        ids = [f"d{i:04d}" for i in range(n)]
        index = _index_from_rows(rows, ids)
        query = rng.normal(size=8)
        hits = dense_search(index, query, k=n)
        assert hits.ids == _brute_force_ranking(rows, ids, query)
        scores = [score for _, score in hits]
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))


class TestRankOf:
    def test_argmax_is_rank_one(self):
        rows = np.eye(3, dtype=np.float32)
        index = _index_from_rows(rows)
        assert ranks_of(index, [[1.0, 0.0, 0.0]], ["d000"])[0] == 1

    def test_middle_of_three(self):
        # Scores (0.9, 0.5, 0.1) via one-hot geometry; hand-enumerable oracle.
        rows = np.eye(3, dtype=np.float32)
        index = _index_from_rows(rows)
        query = np.array([0.9, 0.5, 0.1])
        assert ranks_of(index, [query], ["d001"])[0] == 2

    def test_two_docs_tied_above_target_gives_three(self):
        # d000 and d001 both score 1.0, target d002 scores 0.5
        rows = np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32
        )
        index = _index_from_rows(rows)
        assert ranks_of(index, [[1.0, 0.5]], ["d002"])[0] == 3

    def test_tied_with_target_id_rule(self):
        # All three docs score identically; rank = position by ascending id.
        rows = np.array([[1.0, 0.0]] * 3, dtype=np.float32)
        index = _index_from_rows(rows, ids=["db", "da", "dc"])
        query = [1.0, 0.0]
        assert ranks_of(index, [query], ["da"])[0] == 1
        assert ranks_of(index, [query], ["db"])[0] == 2
        assert ranks_of(index, [query], ["dc"])[0] == 3

    def test_unknown_target(self):
        index = _index_from_rows(np.eye(2, dtype=np.float32))
        with pytest.raises(ValidationError):
            ranks_of(index, [[1.0, 0.0]], ["missing"])

    def test_consistent_with_dense_search_position(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 12)).astype(np.float32)
        index = _index_from_rows(rows)
        for _ in range(10):
            query = rng.normal(size=12)
            full = dense_search(index, query, k=40).ids
            target = full[int(rng.integers(0, 40))]
            assert ranks_of(index, [query], [target])[0] == full.index(target) + 1


def test_ranked_hits_container():
    hits = RankedHits(ids=["a", "b"], scores=[2.0, 1.0])
    assert len(hits) == 2
    assert hits.ids == ["a", "b"]
    assert list(hits)[0] == ("a", 2.0)
    assert list(hits) == [("a", 2.0), ("b", 1.0)]


def _full_scan_scores(matrix, query):
    """Reference float64 scores: every row of the corpus, scanned in blocks of four
    rows so that a row's score does not depend on the corpus size or BLAS threads."""
    rows = np.asarray(matrix, dtype=np.float64)
    padded = np.vstack([rows, np.zeros(((-len(rows)) % 4, rows.shape[1]))])
    query = np.asarray(query, dtype=np.float64)
    return np.concatenate([block @ query for block in padded.reshape(-1, 4, rows.shape[1])])[: len(rows)]


def _full_scan_search(matrix, ids, query, k):
    """Reference search: the full float64 scan, then score descending, id ascending."""
    scores = _full_scan_scores(matrix, query)
    ids = np.array(ids)
    order = np.lexsort((ids, -scores))[:k]
    return [(str(ids[i]), scores[i].hex()) for i in order]


def _full_scan_rank(matrix, ids, query, target):
    scores = _full_scan_scores(matrix, query)
    ids = np.array(ids)
    t = scores[list(ids).index(target)]
    return 1 + int(np.count_nonzero(scores > t)) + int(np.count_nonzero((scores == t) & (ids < target)))


def _bits(hits):
    return [(doc_id, float(score).hex()) for doc_id, score in hits]


# Float32 scores per coarse tile: the default (None), and a budget so small that
# the corpora below span several tiles (a single row each at 24 or more queries).
TILE_BUDGETS = [None, 24]


def _tile_budget(scores):
    return mock.patch.object(retrieval, "_TILE_SCORES", scores or retrieval._TILE_SCORES)


def _assert_exact(matrix, ids, queries, k):
    """search_many, dense_search and ranks_of, batched and one row at a time, equal
    the full scan, scores bit for bit, at every tile budget."""
    index = DenseIndex(EmbeddingCache(ids=list(ids), matrix=np.asarray(matrix, dtype=np.float32)))
    searched = [_full_scan_search(index.cache.matrix, ids, query, k) for query in queries]
    ranked = {target: [_full_scan_rank(index.cache.matrix, ids, query, target) for query in queries] for target in ids}
    for budget in TILE_BUDGETS:
        with _tile_budget(budget):
            batched = search_many(index, queries, k)
            assert [_bits(hits) for hits in batched] == searched
            assert [_bits(dense_search(index, query, k)) for query in queries] == searched
            for target, expected in ranked.items():
                assert ranks_of(index, queries, [target] * len(queries)) == expected
                assert [ranks_of(index, [query], [target])[0] for query in queries] == expected


@st.composite
def adversarial_corpus(draw):
    """A float32 matrix with duplicate rows and near-ties well inside the shortlist margin."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 41))
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
    rows = rng.normal(size=(n, d)).astype(np.float32)
    for i in range(1, n):
        kind = rng.integers(0, 4)
        if kind == 0:  # exact duplicate of an earlier row
            rows[i] = rows[rng.integers(0, i)]
        elif kind == 1:  # an earlier row nudged by a few float32 ulps
            rows[i] = rows[rng.integers(0, i)]
            col = rng.integers(0, d)
            rows[i, col] = np.nextafter(rows[i, col], np.float32(rng.choice([-np.inf, np.inf])))
    if draw(st.booleans()):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True).clip(1e-30)
    ids = [f"d{int(i):03d}" for i in rng.permutation(n)]
    scales = [1e-30, 1e-3, 1.0, 1e30, 1e200]
    queries = [rng.normal(size=d) * draw(st.sampled_from(scales)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        queries.append(rows[rng.integers(0, n)].astype(np.float64) * draw(st.sampled_from(scales)))
    if draw(st.booleans()):
        queries.append(np.zeros(d))
    k = draw(st.sampled_from([1, 2, max(n - 1, 1), n, n + 3]))
    return rows, ids, np.array(queries), k


class TestExactAgainstFullScan:
    @given(adversarial_corpus())
    @settings(max_examples=150, deadline=None)
    def test_adversarial_matrices(self, case):
        rows, ids, queries, k = case
        _assert_exact(rows, ids, queries, k)

    @given(
        st.lists(WORDS, min_size=1, max_size=30),
        st.lists(WORDS, min_size=1, max_size=4),
        st.integers(1, 35),
    )
    @settings(max_examples=40, deadline=None)
    def test_mock_embedded_texts(self, docs, queries, k):
        emb = MockEmbedderClient(dim=64)
        ids = [f"d{i:03d}" for i in range(len(docs))]
        fused = [embed_texts(emb, [q, docs[0]]).mean(axis=0) for q in queries]
        _assert_exact(embed_texts(emb, docs), ids, np.vstack([embed_texts(emb, queries), fused]), k)

    def test_near_ties_at_the_cut(self):
        # 50 rows a few ulps apart score within the float32 error of one another,
        # so the coarse pass alone cannot order them.
        rng = np.random.default_rng(11)
        base = normalize(rng.normal(size=16))
        rows = np.repeat(base[None, :], 50, axis=0)
        for i in range(50):
            col = i % 16
            for _ in range(i % 5):
                rows[i, col] = np.nextafter(rows[i, col], np.float32(np.inf if i % 2 else -np.inf))
        ids = [f"d{i:03d}" for i in rng.permutation(50)]
        queries = np.vstack([base, -base, rng.normal(size=16)]).astype(np.float64)
        for k in (1, 7, 49, 50):
            _assert_exact(rows, ids, queries, k)

    @pytest.mark.parametrize("a, b", [(0, 31), (24, 25)])
    def test_the_margin_keeps_a_row_the_coarse_pass_puts_below_the_cut(self, a, b):
        # The float32 unit query rounds so that row b's coarse score is one ulp
        # above row a's although a's float64 score is higher: only the margin
        # keeps a in the shortlist. At the small budget a one-query tile holds
        # 24 rows, so (0, 31) lie in different tiles and (24, 25) in one tile
        # after a first tile of low rows.
        query = np.array([1.0, 1.3154374871981342])
        rows = np.full((32, 2), -1.0, dtype=np.float32)
        rows[a], rows[b] = (1.9026086330413818, 0.0), (0.0, 1.4463694095611572)
        unit = (query / np.linalg.norm(query)).astype(np.float32)
        assert unit[0] * rows[a, 0] < unit[1] * rows[b, 1]
        assert query @ rows[a].astype(np.float64) > query @ rows[b].astype(np.float64)
        index = _index_from_rows(rows)
        ids = [f"d{a:03d}", f"d{b:03d}"]
        for budget in TILE_BUDGETS:
            with _tile_budget(budget):
                assert search_many(index, [query], 1)[0].ids == ids[:1]
                assert search_many(index, [query], 2)[0].ids == ids
                assert ranks_of(index, [query, query], ids) == [1, 2]

    def test_batched_equals_one_row_across_query_blocks(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(203, 24)).astype(np.float32)
        index = _index_from_rows(rows, [f"d{i:03d}" for i in range(203)])
        queries = rng.normal(size=(150, 24)) * 10.0 ** rng.uniform(-20, 20, size=(150, 1))
        batched = search_many(index, queries, 9)
        assert [_bits(h) for h in batched] == [_bits(dense_search(index, q, 9)) for q in queries]
        for target in ("d000", "d101", "d202"):
            one_at_a_time = [ranks_of(index, [q], [target])[0] for q in queries]
            assert ranks_of(index, queries, [target] * len(queries)) == one_at_a_time

    def test_mixed_targets_equal_rank_of_row_by_row(self):
        rng = np.random.default_rng(14)
        ids = [f"d{i:03d}" for i in range(90)]
        rows = rng.normal(size=(90, 16)).astype(np.float32)
        index = _index_from_rows(rows, ids)
        picks = rng.integers(0, 90, size=130)
        targets = [ids[i] for i in picks]
        # 130 rows cross two query blocks; every third row is its own target's row
        queries = rng.normal(size=(130, 16))
        queries[::3] = rows[picks[::3]]
        ranks = ranks_of(index, queries, targets)
        assert ranks == [ranks_of(index, [q], [t])[0] for q, t in zip(queries, targets)]
        assert ranks == [_full_scan_rank(index.cache.matrix, ids, q, t) for q, t in zip(queries, targets)]
        with pytest.raises(ValidationError, match="129 targets for 130 query rows"):
            ranks_of(index, queries, targets[:-1])

    def test_row_score_independent_of_companions(self):
        # The float64 score of a row is the same whether it is scored alone or
        # among others, in any order: this is what makes rescoring a shortlist
        # equal to a full scan.
        rng = np.random.default_rng(13)
        for d in (1, 3, 8, 100, 256):
            matrix = rng.normal(size=(37, d)).astype(np.float32)
            query = rng.normal(size=d)
            together = _exact_scores(matrix, np.arange(37), query)
            order = rng.permutation(37)
            shuffled = np.empty(37)
            shuffled[order] = _exact_scores(matrix, order, query)
            alone = [_exact_scores(matrix, np.array([i]), query)[0] for i in range(37)]
            assert together.tobytes() == shuffled.tobytes() == np.array(alone).tobytes()
            # and it is the plain float64 product up to float64 summation error
            bound = 2 * d * 2.0**-53 * (np.abs(matrix.astype(np.float64)) @ np.abs(query))
            assert np.all(np.abs(together - matrix.astype(np.float64) @ query) <= bound)

    @pytest.mark.parametrize("budget", TILE_BUDGETS)
    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    def test_block_edges_equal_one_row_calls_and_full_scan(self, count, budget):
        # 64 queries share one coarse block: these counts fill one block
        # exactly, spill one row into a second, and fill a second and a bit.
        rng = np.random.default_rng(15)
        n = 97
        ids = [f"d{i:03d}" for i in rng.permutation(n)]
        rows = rng.normal(size=(n, 12)).astype(np.float32)
        rows[1::7] = rows[::7][: len(rows[1::7])]  # duplicate rows tie exactly
        index = _index_from_rows(rows, ids)
        queries = rng.normal(size=(count, 12)) * 10.0 ** rng.uniform(-5, 5, size=(count, 1))
        queries[::5] = rows[rng.integers(0, n, size=len(queries[::5]))]
        with _tile_budget(budget):
            for k in (1, 10, n, n + 4):
                batched = [_bits(hits) for hits in search_many(index, queries, k)]
                assert batched == [_bits(dense_search(index, query, k)) for query in queries]
                assert batched == [_full_scan_search(rows, ids, query, k) for query in queries]
            targets = [ids[i] for i in rng.integers(0, n, size=count)]
            ranks = ranks_of(index, queries, targets)
            assert ranks == [ranks_of(index, [query], [target])[0] for query, target in zip(queries, targets)]
            assert ranks == [_full_scan_rank(rows, ids, query, target) for query, target in zip(queries, targets)]

    @pytest.mark.parametrize("budget", TILE_BUDGETS)
    def test_empty_query_list(self, budget):
        index = _index_from_rows(np.eye(3, dtype=np.float32))
        with _tile_budget(budget):
            assert search_many(index, np.empty((0, 3)), 2) == []
            assert ranks_of(index, np.empty((0, 3)), []) == []

    def test_empty_index_gives_each_query_no_hits(self):
        index = _index_from_rows(np.empty((0, 3)))
        hits = search_many(index, np.eye(3)[:2], 5)
        assert [(hits.ids, hits.scores.tolist()) for hits in hits] == [([], []), ([], [])]
        with pytest.raises(ValidationError):
            search_many(index, np.eye(3)[:2], 0)
        with pytest.raises(ValidationError, match="dim"):
            search_many(index, np.eye(2), 5)

    def test_non_finite_query_rejected(self):
        index = _index_from_rows(np.eye(3, dtype=np.float32))
        with pytest.raises(ValidationError, match="non-finite"):
            dense_search(index, [np.nan, 0.0, 0.0], k=1)


# Ids whose Python string order differs from numeric, byte or length order.
_TRICKY_IDS = [
    "d1", "d10", "d100", "d1a", "d2", "D1", "10", "9", "010", "1e3", "-1", "0x1",
    "é", "e\u0301", "ä1", "日本", "日", "\U0001F600", "z", "a", "a\x00", "a b",
]


@st.composite
def tied_corpus(draw):
    """Rows drawn from a few distinct vectors, so most scores tie, under tricky ids."""
    ids = draw(
        st.lists(
            st.one_of(st.sampled_from(_TRICKY_IDS), st.text(min_size=1, max_size=4)),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 5]))
    distinct = rng.normal(size=(draw(st.integers(1, 3)), d)).astype(np.float32)
    rows = distinct[rng.integers(0, len(distinct), size=len(ids))]
    queries = np.vstack([rng.normal(size=d), rows[0], np.zeros(d)]).astype(np.float64)
    k = draw(st.integers(1, len(ids) + 2))
    return rows, ids, queries, k


class TestTieRuleAndSharedIds:
    @given(tied_corpus())
    @settings(max_examples=100, deadline=None)
    def test_equals_python_string_order(self, case):
        rows, ids, queries, k = case
        # fresh copies, so that sharing cannot come from interning
        index = DenseIndex(EmbeddingCache(ids=[(" " + doc_id)[1:] for doc_id in ids], matrix=rows))
        for budget in TILE_BUDGETS:
            with _tile_budget(budget):
                searched = search_many(index, queries, k)
            for query, hits in zip(queries, searched):
                scores = _full_scan_scores(rows, query).tolist()
                expected = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
                assert [(doc_id, score.hex()) for doc_id, score in hits] == [
                    (ids[i], scores[i].hex()) for i in expected[:k]
                ]
                for doc_id in hits.ids:
                    assert doc_id is index.cache.ids[index.cache.position(doc_id)]
                assert all(type(score) is float for _, score in hits)
                assert all(type(score) is float for _, score in list(hits))
                with _tile_budget(budget):
                    ranks = ranks_of(index, np.tile(query, (len(ids), 1)), ids)
                assert ranks == [expected.index(i) + 1 for i in range(len(ids))]


def test_index_makes_no_float64_copy():
    rows = np.random.default_rng(14).normal(size=(4000, 64)).astype(np.float32)
    cache = EmbeddingCache(ids=[f"d{i:04d}" for i in range(4000)], matrix=rows)
    tracemalloc.start()
    try:
        index = DenseIndex(cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float64_copy = rows.size * 8
    assert peak < float64_copy / 2
    assert not any(
        isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 2
        for value in vars(index).values()
    )


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_call_holds_one_block_of_coarse_scores():
    # 130 queries are three coarse blocks; at most one 64 × n float32 block of
    # scores may be alive at a time, and little else grows with n.
    n = 20_000
    rng = np.random.default_rng(16)
    ids = [f"d{i:05d}" for i in range(n)]
    index = _index_from_rows(rng.normal(size=(n, 32)), ids)
    queries = rng.normal(size=(130, 32))
    block = 64 * n * 4
    assert _traced_peak(lambda: search_many(index, queries, 10)) <= 1.25 * block
    assert _traced_peak(lambda: ranks_of(index, queries, ids[:130])) <= 1.25 * block


@pytest.mark.parametrize("n", [20_000, 80_000])
def test_coarse_scores_take_one_tile_at_any_corpus_size(n):
    # 130 queries against 5 and 20 tiles of 2^18 / 64 rows: the peak is one
    # tile of float32 scores (1 MB), its boolean mask (a quarter of that) and a
    # little, the same bound at either n.
    rng = np.random.default_rng(17)
    ids = [f"d{i:05d}" for i in range(n)]
    index = _index_from_rows(rng.normal(size=(n, 32)), ids)
    queries = rng.normal(size=(130, 32))
    bound = 1.5 * 2**20
    assert _traced_peak(lambda: search_many(index, queries, 10)) <= bound
    assert _traced_peak(lambda: ranks_of(index, queries, ids[:130])) <= bound


def test_k_above_a_tiles_rows_equals_the_full_scan_in_order_k_memory():
    # At 4,096 scores a tile holds 64 rows of a 64-query block, so k = 65 and
    # k = 300 span two and five tiles before a floor exists. The running floor
    # still keeps about k rows a query: the peak stays below the 12 bytes a row
    # and query of keeping every row (3.5 and 3.9 MB were measured for the
    # per-query pass that did), and ranks_of below the 425,007 bytes measured
    # for that pass.
    rng = np.random.default_rng(18)
    n, d = 3000, 16
    ids = [f"d{i:04d}" for i in rng.permutation(n)]
    rows = rng.normal(size=(n, d)).astype(np.float32)
    rows[1::9] = rows[::9][: len(rows[1::9])]  # duplicate rows tie exactly
    index = _index_from_rows(rows, ids)
    queries = rng.normal(size=(130, d))
    queries[::7] = 0.0  # a zero query keeps every row
    targets = [ids[i] for i in rng.integers(0, n, size=130)]
    with _tile_budget(64 * 64):
        for k in (65, 300):
            assert [_bits(hits) for hits in search_many(index, queries, k)] == [
                _full_scan_search(rows, ids, query, k) for query in queries
            ]
        assert ranks_of(index, queries, targets) == [
            _full_scan_rank(rows, ids, query, target) for query, target in zip(queries, targets)
        ]
        queries = queries[np.any(queries, axis=1)]
        for k in (65, 300):
            assert _traced_peak(lambda: search_many(index, queries, k)) < 12 * n * 64
        assert _traced_peak(lambda: ranks_of(index, queries, targets[: len(queries)])) <= 425_007


def test_a_zero_query_keeps_the_candidate_drops_linear():
    # A zero query scores 0 on every row and keeps all 3,000. Over 47 tiles of
    # 64 rows, dropping candidates after every tile once the block holds over
    # 2·k·width refilters about 101,000 of them; dropping only when twice as
    # many are held as after the last drop refilters about 8,000, within four
    # times what the block may keep.
    rng = np.random.default_rng(21)
    n, d, k = 3000, 16, 10
    ids = [f"d{i:04d}" for i in range(n)]
    rows = rng.normal(size=(n, d)).astype(np.float32)
    index = _index_from_rows(rows, ids)
    queries = rng.normal(size=(64, d))
    queries[5] = 0.0
    filtered = []
    above_floors = retrieval._above_floors

    def counted(pieces, floors, width):
        filtered.append(sum(len(keys) for keys, _ in pieces))
        return above_floors(pieces, floors, width)

    with _tile_budget(64 * 64), mock.patch.object(retrieval, "_above_floors", counted):
        hits = search_many(index, queries, k)
    assert [_bits(found) for found in hits] == [_full_scan_search(rows, ids, query, k) for query in queries]
    assert sum(filtered[:-1]) <= 4 * (n + 2 * k * len(queries))


def test_exact_scores_are_sliced_without_changing_a_bit():
    # 10,007 rows in shuffled order: slices of 4,096 rows, the last one ragged
    rng = np.random.default_rng(19)
    matrix = rng.normal(size=(12_000, 64)).astype(np.float32)
    rows = rng.permutation(12_000)[:10_007]
    query = rng.normal(size=64)
    sliced = _exact_scores(matrix, rows, query)
    with mock.patch.object(retrieval, "_EXACT_ROWS", 2**20):
        whole = _exact_scores(matrix, rows, query)
    assert sliced.tobytes() == whole.tobytes() == _full_scan_scores(matrix[rows], query).tobytes()
    edge = rows[4090:4100]  # across the first slice edge, scored alone
    assert sliced[4090:4100].tobytes() == _exact_scores(matrix, edge, query).tobytes()


def test_exact_scores_copy_one_slice_at_a_time():
    # A 10,000-row shortlist at dim 64: one slice is 4,096 rows copied to
    # float64 (8 bytes a value) through their float32 gather (4 more); the
    # whole shortlist at once would take 7.7 MB.
    rng = np.random.default_rng(20)
    matrix = rng.normal(size=(12_000, 64)).astype(np.float32)
    rows = rng.permutation(12_000)[:10_000]
    query = rng.normal(size=64)
    one_slice = retrieval._EXACT_ROWS * 64 * 12
    assert _traced_peak(lambda: _exact_scores(matrix, rows, query)) <= one_slice + 2 * 10_000 * 8 + 64 * 1024
