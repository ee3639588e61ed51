import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slhyde.corpus import CorpusStore, Query
from slhyde.embed import MockEmbedderClient, cache_embeddings, embed_text
from slhyde.errors import ValidationError
from slhyde.hyde import FusionConfig, fuse, hyde_search
from slhyde.retrieval import DenseIndex, dense_search, rank_of
from slhyde.textgen import MockGeneratorClient, SamplingConfig, load_template, render_prompt

from conftest import WORDS, synthetic_docs


def _pinned(vectors: dict[str, np.ndarray]) -> MockEmbedderClient:
    """Embedder that maps each given text to its vector (unit-normalized)."""
    dim = len(next(iter(vectors.values())))
    return MockEmbedderClient(dim=dim, overrides=vectors)


class TestFuse:
    def test_mean_of_two(self):
        emb = _pinned({"q": np.array([1.0, 0.0]), "p": np.array([0.0, 1.0])})
        assert np.allclose(fuse(emb, ["q", "p"]), [0.5, 0.5])

    def test_identity_when_all_equal(self):
        u = np.array([0.6, 0.8], dtype=np.float32)
        emb = _pinned({"q": u, "a": u, "b": u, "c": u})
        assert np.allclose(fuse(emb, ["q", "a", "b", "c"]), u, atol=1e-7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vectors = {"q": rng.normal(size=16).astype(np.float32)}
        vectors.update({f"p{i}": rng.normal(size=16).astype(np.float32) for i in range(4)})
        emb = _pinned(vectors)
        pseudos = [f"p{i}" for i in range(4)]
        forward = fuse(emb, ["q", *pseudos])
        backward = fuse(emb, ["q", *reversed(pseudos)])
        assert np.allclose(forward, backward, atol=1e-6)

    def test_not_renormalized(self):
        emb = _pinned({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])})
        assert np.allclose(fuse(emb, ["x", "x"]), [1.0, 0.0])
        assert abs(float(np.linalg.norm(fuse(emb, ["x", "y"]))) - 1.0) > 0.1  # mean, not unit

    def test_query_only_reduction(self):
        emb = _pinned({"q": np.array([0.3, 0.4], dtype=np.float32)})
        assert np.array_equal(fuse(emb, ["q"]), embed_text(emb, "q"))


class TestFusionConfig:
    def test_defaults_per_strategy(self):
        assert FusionConfig().n == 1
        assert FusionConfig(strategy="mean_pool_k").n == 5
        assert FusionConfig(strategy="concat").n == 1

    def test_zero_only_for_mean_pool(self):
        assert FusionConfig(n=0).n == 0
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
    cache = cache_embeddings(emb, store, tmp_path / "hyde.emb")
    index = DenseIndex(cache)
    return emb, docs, store, index


class TestHydeSearch:
    def test_n_zero_is_bit_identical_to_dense(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q0", text="some probe text")
        gen = MockGeneratorClient()
        hyde_hits = hyde_search(query, gen, emb, index, FusionConfig(n=0), k=10)
        dense_hits = dense_search(index, embed_text(emb, query.text), k=10)
        assert hyde_hits.hits == dense_hits.hits
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
            base_rank = rank_of(index, embed_text(emb, query.text), target.id)
            fused_rank = fused_hits.doc_ids().index(target.id) + 1
            assert fused_rank <= base_rank

    def test_doc_only_with_stored_doc_text_ranks_it_first(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        target = docs[5]
        query = Query(id="q5", text="whatever")
        prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
        gen = MockGeneratorClient(responses={prompt: target.text})
        hits = hyde_search(query, gen, emb, index, FusionConfig(strategy="doc_only", n=1), k=3)
        assert hits[0][0] == target.id

    def test_concat_embeds_joined_string(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="head")
        prompt = render_prompt(load_template("Q2P"), {"QUESTION": query.text})
        gen = MockGeneratorClient(responses={prompt: "tail words"})
        hits = hyde_search(query, gen, emb, index, FusionConfig(strategy="concat"), k=5)
        expected = dense_search(index, embed_text(emb, "head tail words"), k=5)
        assert hits.hits == expected.hits

    def test_generation_failure_degrades_to_query_only(self, hyde_setup):
        emb, docs, store, index = hyde_setup
        query = Query(id="q", text="anything at all")
        gen = MockGeneratorClient(fail_times=99, max_retries=1)
        hits = hyde_search(query, gen, emb, index, FusionConfig(n=1), k=5)
        assert hits.meta.get("degraded") is True
        dense_hits = dense_search(index, embed_text(emb, query.text), k=5)
        assert hits.hits == dense_hits.hits

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
        assert first.hits == second.hits
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
        assert forward.doc_ids() == backward.doc_ids()


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
        assert hits.hits == dense_search(index, reference, len(docs)).hits
