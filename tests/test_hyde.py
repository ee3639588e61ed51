import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slhyde import cli
from slhyde.config import RunConfig
from slhyde.corpus import CorpusStore, Query
from slhyde.embed import EmbeddingCache, MockEmbedderClient, embed_text, embed_texts, keyed_rows
from slhyde.errors import ValidationError
from slhyde.hyde import FusionConfig, fuse_rows, hyde_search, hypothesize, search_hypothesized
from slhyde.retrieval import DenseIndex, dense_search, ranks_of
from slhyde.textgen import MockGeneratorClient, SamplingConfig, load_template, render_prompt
from slhyde.util import derive_seed

from conftest import WORDS, cache_docs, synthetic_docs


def _pinned(vectors: dict[str, np.ndarray]) -> MockEmbedderClient:
    """Embedder that maps each given text to its vector (unit-normalized)."""
    dim = len(next(iter(vectors.values())))
    return MockEmbedderClient(dim=dim, overrides=vectors)


class TestFuse:
    def test_mean_of_two(self):
        emb = _pinned({"q": np.array([1.0, 0.0]), "p": np.array([0.0, 1.0])})
        assert np.allclose(embed_texts(emb, ["q", "p"]).mean(axis=0), [0.5, 0.5])

    def test_identity_when_all_equal(self):
        u = np.array([0.6, 0.8], dtype=np.float32)
        emb = _pinned({"q": u, "a": u, "b": u, "c": u})
        assert np.allclose(embed_texts(emb, ["q", "a", "b", "c"]).mean(axis=0), u, atol=1e-7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vectors = {"q": rng.normal(size=16).astype(np.float32)}
        vectors.update({f"p{i}": rng.normal(size=16).astype(np.float32) for i in range(4)})
        emb = _pinned(vectors)
        pseudos = [f"p{i}" for i in range(4)]
        forward = embed_texts(emb, ["q", *pseudos]).mean(axis=0)
        backward = embed_texts(emb, ["q", *reversed(pseudos)]).mean(axis=0)
        assert np.allclose(forward, backward, atol=1e-6)

    def test_not_renormalized(self):
        emb = _pinned({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])})
        assert np.allclose(embed_texts(emb, ["x", "x"]).mean(axis=0), [1.0, 0.0])
        assert abs(float(np.linalg.norm(embed_texts(emb, ["x", "y"]).mean(axis=0))) - 1.0) > 0.1  # mean, not unit

    def test_query_only_reduction(self):
        emb = _pinned({"q": np.array([0.3, 0.4], dtype=np.float32)})
        assert np.array_equal(embed_texts(emb, ["q"]).mean(axis=0), embed_text(emb, "q"))

    def test_fuse_rows_is_each_groups_own_mean(self):
        rng = np.random.default_rng(3)
        sizes = [2, 1, 5, 2]
        rows = rng.normal(size=(sum(sizes), 16)).astype(np.float32)
        groups = np.split(rows.copy(), [2, 3, 8])
        fused = fuse_rows(rows, sizes)
        assert fused.shape == (4, 16)
        for got, group in zip(fused, groups):
            assert got.tobytes() == np.mean(group, axis=0).tobytes()
        emb = _pinned({"q": rows[0], "p": rows[1]})
        rows = embed_texts(emb, ["q", "p"])
        assert rows.mean(axis=0).tobytes() == fuse_rows(rows, [2])[0].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=70),
        dim=st.integers(1, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuse_rows_equals_each_plans_np_mean_bitwise(self, sizes, dim, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.normal(size=(sum(sizes), dim)) * rng.uniform(0.1, 10)).astype(dtype)
        reference = np.vstack([np.mean(part, axis=0) for part in np.split(rows, np.cumsum(sizes)[:-1])])
        fused = fuse_rows(rows, sizes)
        assert fused.dtype == reference.dtype and fused.shape == reference.shape
        assert fused.tobytes() == reference.tobytes()


class TestFusionConfig:
    def test_defaults_per_strategy(self):
        assert FusionConfig().count == 1
        assert FusionConfig(strategy="mean_pool_k").count == 5
        assert FusionConfig(strategy="concat").count == 1

    def test_zero_only_for_mean_pool(self):
        assert FusionConfig(n=0).count == 0
        with pytest.raises(ValidationError):
            FusionConfig(strategy="doc_only", n=0)

    def test_concat_is_single_doc(self):
        with pytest.raises(ValidationError):
            FusionConfig(strategy="concat", n=3)


@pytest.fixture
def hyde_setup(tmp_path):
    emb = MockEmbedderClient(dim=256)
    docs = synthetic_docs(40, seed=13)
    store = CorpusStore(docs)
    cache = cache_docs(emb, store, tmp_path / "hyde.emb")
    index = DenseIndex(cache)
    return emb, docs, store, index


class TestHydeSearch:
    def test_n_zero_is_bit_identical_to_dense(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q0", text="some probe text")
        gen = MockGeneratorClient()
        hyde_hits = hyde_search(query, gen, emb, index, FusionConfig(n=0), k=10)
        dense_hits = dense_search(index, embed_text(emb, query.text), k=10)
        assert list(hyde_hits) == list(dense_hits)
        assert gen.calls == 0

    def test_pseudo_equal_to_doc_improves_or_keeps_rank(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        # Paired rank comparison oracle: fusing with the target's own text can
        # never push the target down.
        for target in docs[:10]:
            query_text = " ".join(target.text.split()[:2])
            query = Query(id=f"q-{target.id}", text=query_text)
            prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
            gen = MockGeneratorClient(responses={prompt: target.text})
            fused_hits = hyde_search(query, gen, emb, index, FusionConfig(n=1), k=len(docs))
            base_rank = ranks_of(index, [embed_text(emb, query.text)], [target.id])[0]
            fused_rank = fused_hits.ids.index(target.id) + 1
            assert fused_rank <= base_rank

    def test_doc_only_with_stored_doc_text_ranks_it_first(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        target = docs[5]
        query = Query(id="q5", text="whatever")
        prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
        gen = MockGeneratorClient(responses={prompt: target.text})
        hits = hyde_search(query, gen, emb, index, FusionConfig(strategy="doc_only", n=1), k=3)
        assert hits.ids[0] == target.id

    def test_concat_embeds_joined_string(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="head")
        prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
        gen = MockGeneratorClient(responses={prompt: "tail words"})
        hits = hyde_search(query, gen, emb, index, FusionConfig(strategy="concat"), k=5)
        expected = dense_search(index, embed_text(emb, "head tail words"), k=5)
        assert list(hits) == list(expected)

    def test_generation_failure_degrades_to_query_only(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="anything at all")
        gen = MockGeneratorClient(fail_times=99, max_retries=1)
        hits = hyde_search(query, gen, emb, index, FusionConfig(n=1), k=5)
        assert hits.meta.get("degraded") is True
        dense_hits = dense_search(index, embed_text(emb, query.text), k=5)
        assert list(hits) == list(dense_hits)

    def test_mean_pool_k_generates_five(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="multi doc probe")
        gen = MockGeneratorClient(seed=3)
        hits = hyde_search(query, gen, emb, index, FusionConfig(strategy="mean_pool_k"), k=5)
        assert len(hits.meta["hypothetical_texts"]) == 5

    def test_deterministic_end_to_end(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="repeatable probe")
        sampling = SamplingConfig(seed=77)
        first = hyde_search(query, MockGeneratorClient(), emb, index, FusionConfig(n=2), k=10, sampling=sampling)
        second = hyde_search(query, MockGeneratorClient(), emb, index, FusionConfig(n=2), k=10, sampling=sampling)
        assert list(first) == list(second)
        assert first.meta["hypothetical_texts"] == second.meta["hypothetical_texts"]

    def test_permuting_hypotheticals_preserves_ranking(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="permutation probe")
        texts = ["first pseudo text", "second pseudo words", "third pseudo tokens"]
        prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
        forward = hyde_search(
            query, MockGeneratorClient(responses={prompt: texts}), emb, index, FusionConfig(n=3), k=40
        )
        backward = hyde_search(
            query,
            MockGeneratorClient(responses={prompt: list(reversed(texts))}),
            emb,
            index,
            FusionConfig(n=3),
            k=40,
        )
        assert forward.ids == backward.ids


FUSION_SETTINGS = [
    ("mean_pool", 1),
    ("mean_pool", 0),
    ("mean_pool", 3),
    ("doc_only", 1),
    ("doc_only", 2),
    ("concat", 1),
    ("mean_pool_k", 5),
]


class TestOneRequestPerSearch:
    @pytest.mark.parametrize("strategy,n", FUSION_SETTINGS)
    def test_each_strategy_makes_one_embedder_request(self, hyde_setup, strategy, n):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="probe text")
        emb.calls = 0
        hyde_search(query, MockGeneratorClient(), emb, index, FusionConfig(strategy=strategy, n=n), k=5)
        assert emb.calls == 1

    def test_degraded_search_makes_one_embedder_request(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        emb.calls = 0
        gen = MockGeneratorClient(fail_times=99, max_retries=1)
        hits = hyde_search(Query(id="q", text="probe text"), gen, emb, index, FusionConfig(n=1), k=5)
        assert hits.meta["degraded"] is True
        assert emb.calls == 1


def _per_text_vector(emb, query_text: str, strategy: str, n: int, meta: dict) -> np.ndarray:
    """Reference fused vector: one embed_text call per text, then the mean of
    the rows the strategy selects."""
    if n == 0 or meta.get("degraded"):
        return embed_text(emb, query_text)
    texts = meta["hypothetical_texts"]
    if strategy == "concat":
        rows = [embed_text(emb, query_text + " " + texts[0])]
    elif strategy == "doc_only":
        rows = [embed_text(emb, t) for t in texts]
    else:
        rows = [embed_text(emb, query_text)] + [embed_text(emb, t) for t in texts]
    return np.mean(np.stack(rows), axis=0)


class TestMatchesPerTextPath:
    @given(
        query_text=WORDS,
        setting=st.sampled_from(FUSION_SETTINGS),
        seed=st.integers(min_value=0, max_value=2**31),
        fail_times=st.sampled_from([0, 3]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_hyde_search_bitwise_equals_per_text_reference(self, hyde_setup, query_text, setting, seed, fail_times):
        emb, docs, store, index = hyde_setup
        strategy, n = setting
        gen = MockGeneratorClient(fail_times=fail_times, max_retries=2)
        query, cfg = Query(id="q", text=query_text), FusionConfig(strategy=strategy, n=n)
        hits = hyde_search(query, gen, emb, index, cfg, k=len(docs), sampling=SamplingConfig(seed=seed))
        reference = _per_text_vector(emb, query_text, strategy, n, hits.meta)
        assert list(hits) == list(dense_search(index, reference, len(docs)))


def _bits(hits) -> tuple:
    return [(doc_id, score.hex()) for doc_id, score in hits], hits.meta


def _dense_rows_setup(docs, truncate_chars=1024):
    """A 16-dim embedder and its index: trigram rows overlap in most buckets, so
    a change in any bit of a fused vector's row sums shows in the scores."""
    emb = MockEmbedderClient(dim=16, truncate_chars=truncate_chars)
    matrix = embed_texts(emb, [doc.indexed_text for doc in docs])
    return emb, DenseIndex(EmbeddingCache(ids=[doc.id for doc in docs], matrix=matrix))


# Query texts drawn from a few stems, so texts repeat across queries; each stem
# is at least 16 characters long, so with truncate_chars=16 texts with different
# suffixes (and concat strings) are equal in what the embedder sees.
STEMS = st.lists(WORDS.map(lambda w: (w + " ") * 16), min_size=1, max_size=4)
SUFFIXES = ("", " alpha", " beta gamma")


class TestBatchedMatchesPerQuery:
    """search_hypothesized over many plans is bitwise the per-query hyde_search."""

    @given(
        stems=STEMS,
        picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=80),
        setting=st.sampled_from(FUSION_SETTINGS),
        cut=st.sampled_from([16, 1024]),
        fail_times=st.sampled_from([0, 3, 7]),
        seeded=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_batch_equals_per_query_hyde_search(self, hyde_setup, stems, picks, setting, cut, fail_times, seeded):
        emb, index = _dense_rows_setup(hyde_setup[1], truncate_chars=cut)
        strategy, n = setting
        cfg = FusionConfig(strategy=strategy, n=n)
        queries = [
            (Query(id=f"q{i}", text=stems[stem % len(stems)] + SUFFIXES[suffix]), SamplingConfig(seed=seed))
            for i, (stem, suffix, seed) in enumerate(picks)
        ]
        gen = MockGeneratorClient(fail_times=fail_times, max_retries=2)
        expected = [hyde_search(q, gen, emb, index, cfg, k=len(index), sampling=s) for q, s in queries]

        texts = [q.text for q, _ in queries]
        known = keyed_rows(emb, texts, embed_texts(emb, texts)) if seeded else None
        gen = MockGeneratorClient(fail_times=fail_times, max_retries=2)
        planned = [hypothesize(q, gen, cfg, s) for q, s in queries]
        emb.calls = 0
        batched = search_hypothesized(planned, emb, index, len(index), known)
        assert [_bits(h) for h in batched] == [_bits(h) for h in expected]
        assert emb.calls <= 1
        if seeded and n == 0:
            assert emb.calls == 0  # every text is a known query text

    def test_empty_batch_makes_no_request(self, hyde_setup):
        emb, _, _, index = hyde_setup
        emb.calls = 0
        assert search_hypothesized([], emb, index, 5) == []
        assert emb.calls == 0


class TestRunQueriesChunks:
    """cli._run_queries: a stream of (query id, hits) pairs in task order,
    from chunks of 64 tasks, each one embedder request, with the hits, meta
    and seeds of per-query hyde_search."""

    @pytest.mark.parametrize("strategy,n", FUSION_SETTINGS)
    @pytest.mark.parametrize("parallelism,fail_times", [(1, 5), (2, 0)])
    def test_chunked_runs_equal_per_query_hyde_search(self, hyde_setup, strategy, n, parallelism, fail_times):
        docs = hyde_setup[1]
        emb, index = _dense_rows_setup(docs)
        config = RunConfig(seed=11, parallelism=parallelism)
        fusion = FusionConfig(strategy=strategy, n=n)
        # 70 queries, the last 10 repeating earlier texts; two runs make 140 tasks, three chunks
        texts = [" ".join(d.text.split()[:2]) for d in docs] + ["query probe words"] * 20
        queries = [Query(id=f"q{i:03d}", text=text) for i, text in enumerate(texts[:60] + texts[:10])]
        seed_parts = [("eval", "ds", 0), ("eval", "ds", 1)]

        gen = MockGeneratorClient(fail_times=fail_times, max_retries=2)
        expected = [
            {
                q.id: hyde_search(
                    q, gen, emb, index, fusion, 10, cli._sampling(config, derive_seed(config.seed, *parts, q.id))
                )
                for q in queries
            }
            for parts in seed_parts
        ]
        known = dict(zip((q.text for q in queries), embed_texts(emb, [q.text for q in queries])))
        gen = MockGeneratorClient(fail_times=fail_times, max_retries=2)
        emb.calls = 0
        pairs = list(cli._run_queries(config, emb, index, queries, 10, gen, fusion, seed_parts, known))
        # one pair per task, in task order: each run's queries in turn
        assert [qid for qid, _ in pairs] == [q.id for q in queries] * len(seed_parts)
        runs = [dict(pairs[i : i + len(queries)]) for i in range(0, len(pairs), len(queries))]
        assert [{qid: _bits(h) for qid, h in run.items()} for run in runs] == [
            {qid: _bits(h) for qid, h in run.items()} for run in expected
        ]
        assert emb.calls == (0 if n == 0 else 3)
        if fail_times and n:
            assert runs[0]["q000"].meta["degraded"] is True
