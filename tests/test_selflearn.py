import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slhyde.corpus import CorpusStore, Document, corpus_file_digest
from slhyde.embed import EmbeddingCache, MockEmbedderClient, cache_fingerprint, embed_text, embed_texts, load_cache
from slhyde.embed import save_cache
from slhyde.errors import ParseError, ProtocolError, RunError, SlhydeError, TransportError, ValidationError
from slhyde.retrieval import DenseIndex, dense_search, ranks_of
from slhyde.selflearn import (
    RetrieverTriplet,
    SelfLearnSettings,
    SftExample,
    _score_many,
    build_generator_dataset,
    build_retriever_dataset,
    contrastive_loss,
    emit_sft_jsonl,
    emit_triplets_jsonl,
    infonce_from_scores,
    load_sft_jsonl,
    load_triplets_jsonl,
    mine_hard_negatives,
    validate_sft_file,
)
from slhyde.textgen import MockGeneratorClient, SamplingConfig, generate_query_for_doc, load_template, render_prompt
from slhyde.util import derive_seed

from conftest import WORDS, cache_docs, synthetic_docs

_RUNS = itertools.count()  # a fresh file name for each build in a test's tmp_path


@dataclass
class Generated:
    """What build_generator_dataset wrote, read back: the SFT file's
    examples, the counts it returned and its rows file's matrix."""

    examples: list[SftExample]
    total: int
    dropped_by_cutoff: int
    skipped_errors: int
    rows: np.ndarray = field(compare=False, repr=False)


def _generate(tmp_path, docs, gen, emb, index, settings, **kwargs) -> Generated:
    """build_generator_dataset into a new SFT file in tmp_path, read back."""
    path = tmp_path / f"sft{next(_RUNS)}.jsonl"
    stats = build_generator_dataset(docs, gen, emb, index, settings, path, **kwargs)
    examples = load_sft_jsonl(path)
    assert stats.emitted == len(examples)
    rows = load_cache(f"{path}.rows", cache_fingerprint(emb, corpus_file_digest(path)))
    assert rows.ids == [f"{key}:{e.doc_id}" for e in examples for key in ("input", "output")]
    return Generated(examples, stats.total_documents, stats.dropped_by_cutoff, stats.skipped_errors, rows.matrix)


@dataclass
class Mined:
    """build_retriever_dataset's triplets and their reference losses, in order."""

    triplets: list[RetrieverTriplet]
    reference_losses: list[float]


def _mined(pairs) -> Mined:
    pairs = list(pairs)
    return Mined([triplet for triplet, _ in pairs], [loss for _, loss in pairs])


def _mine(tmp_path, sft, gen, emb, index, settings, **kwargs) -> Mined:
    """build_retriever_dataset over the examples `sft`, written as an SFT file with no rows file."""
    path = tmp_path / f"sft{next(_RUNS)}.jsonl"
    emit_sft_jsonl(sft, path)
    return _mined(build_retriever_dataset(path, gen, emb, index, settings, **kwargs))


def _pseudo_prompt(query, doc):
    return render_prompt(
        load_template("PSEUDO_GEN"), {"QUESTION": query, "DOCUMENT": doc.indexed_text}
    )


def _query_prompt(doc):
    return render_prompt(load_template("QUERY_GEN"), {"DOCUMENT": doc.indexed_text})


class TestSelectionControlledGeometry:
    """One-hot corpus of ten documents; each candidate's vector is pinned by
    the mock's overrides, so it dictates the rank of the target, d0."""

    dim = 10

    def _controlled(self, tmp_path):
        eye = np.eye(self.dim, dtype=np.float32)
        overrides = {f"doc text {i}": eye[i] for i in range(self.dim)}

        # `above` documents score higher than d0: rank above + 1
        def cand_vec(above):
            vec = np.zeros(self.dim, dtype=np.float32)
            vec[0] = 0.5
            vec[1 : above + 1] = 0.9
            return vec

        for rank in (2, 5, 8, 9):
            overrides[f"cand rank{rank}"] = cand_vec(rank - 1)
        overrides["cand tie a"] = overrides["cand tie b"] = cand_vec(2)
        emb = MockEmbedderClient(dim=self.dim, overrides=overrides)
        docs = [Document(id=f"d{i}", text=f"doc text {i}") for i in range(self.dim)]
        return emb, docs, DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "ctrl.emb"))

    def _select(self, tmp_path, candidates):
        """build_generator_dataset over d0 alone, its candidates `candidates`."""
        emb, docs, index = self._controlled(tmp_path)
        # the candidate prompt (PSEUDO_GEN) is the one that quotes a "Reference Document"
        gen = MockGeneratorClient(responder=lambda prompt, cfg: candidates if "Reference Document:" in prompt else None)
        settings = SelfLearnSettings(candidates_per_query=len(candidates))
        result = _generate(tmp_path, docs[:1], gen, emb, index, settings)
        [example] = result.examples
        assert example.num_candidates == len(candidates)
        assert result.rows.tobytes() == embed_texts(emb, [example.query, example.response]).tobytes()
        return example

    def test_ranks_follow_constructed_geometry(self, tmp_path):
        emb, _, index = self._controlled(tmp_path)
        [(ranks, _)] = _score_many(
            [("d0", "doc text 0", ["cand rank5", "cand rank2", "cand rank8"])], emb, index, "candidate"
        )
        assert ranks == [5, 2, 8]

    def test_argmin_with_ranks_5_2_9(self, tmp_path):
        example = self._select(tmp_path, ["cand rank5", "cand rank2", "cand rank9"])
        assert (example.response, example.rank) == ("cand rank2", 2)

    def test_tie_goes_to_lowest_index(self, tmp_path):
        example = self._select(tmp_path, ["cand rank5", "cand tie a", "cand tie b"])
        assert (example.response, example.rank) == ("cand tie a", 3)

    def test_degenerate_single_candidate(self, tmp_path):
        example = self._select(tmp_path, ["cand rank9"])
        assert (example.response, example.rank) == ("cand rank9", 9)


class TestScoreCandidatesMatchesPerTextPath:
    @given(
        query=WORDS,
        candidates=st.lists(WORDS, min_size=1, max_size=5),
        rank_scoring=st.sampled_from(["candidate", "fused"]),
        target=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bitwise_equals_per_text_reference(self, small_index, query, candidates, rank_scoring, target):
        emb = MockEmbedderClient(dim=256)
        target_id = small_index.cache.ids[target]
        # Reference: one embed_text call per text, (candidate + query) / 2.0 when fused.
        query_vec = embed_text(emb, query)
        expected = []
        for text in candidates:
            vec = embed_text(emb, text)
            if rank_scoring == "fused":
                vec = (vec + query_vec) / 2.0
            expected.append(ranks_of(small_index, [vec], [target_id])[0])
        emb.calls = 0
        [(ranks, _)] = _score_many([(target_id, query, candidates)], emb, small_index, rank_scoring)
        assert ranks == expected
        assert emb.calls == 1
        rows = embed_texts(emb, [query, *candidates])
        assert all(np.array_equal(row, embed_text(emb, t)) for row, t in zip(rows, [query, *candidates]))


class TestBuildGeneratorDataset:
    def test_l1_degenerate_selection(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(10, seed=21)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "c.emb")
        index = DenseIndex(cache)
        result = _generate(tmp_path, docs, MockGeneratorClient(), emb, index, SelfLearnSettings(candidates_per_query=1))
        assert all(e.num_candidates == 1 for e in result.examples)

    def test_selection_optimality_on_synthetic_corpus(self, tmp_path):
        emb = MockEmbedderClient(dim=256)
        docs = synthetic_docs(100, seed=22)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "c.emb")
        index = DenseIndex(cache)
        gen = MockGeneratorClient(seed=4)
        result = _generate(
            tmp_path, docs, gen, emb, index, SelfLearnSettings(candidates_per_query=5, rank_cutoff=100), seed=17
        )
        assert result.examples, "paraphraser corpus should produce examples"
        # Independent recomputation: regenerate candidates, re-rank each, compare minima.
        from slhyde.textgen import SamplingConfig, generate_pseudo_docs, generate_query_for_doc
        from slhyde.util import derive_seed

        by_doc = {e.doc_id: e for e in result.examples}
        for doc in docs:
            if doc.id not in by_doc:
                continue
            example = by_doc[doc.id]
            q_cfg = SamplingConfig(seed=derive_seed(17, "query", doc.id))
            c_cfg = SamplingConfig(seed=derive_seed(17, "candidates", doc.id))
            query = generate_query_for_doc(gen, doc, q_cfg)
            candidates = generate_pseudo_docs(gen, query, doc, 5, c_cfg)
            ranks = [ranks_of(index, [embed_text(emb, c)], [doc.id])[0] for c in candidates]
            assert example.rank == min(ranks)
            assert example.response in candidates

    def test_cutoff_drops_and_counts(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(12, seed=23)
        # each document's twin ties it and sorts first, so no candidate ranks it 1
        twins = [Document(id="c" + doc.id, text=doc.text) for doc in docs]
        store = CorpusStore(docs + twins)
        cache = cache_docs(emb, store, tmp_path / "c.emb")
        index = DenseIndex(cache)
        result = _generate(
            tmp_path, docs, MockGeneratorClient(), emb, index, SelfLearnSettings(candidates_per_query=1, rank_cutoff=1)
        )
        assert result.dropped_by_cutoff == len(docs)
        assert result.examples == []

    def test_skip_rate_above_half_errors(self, tmp_path):
        emb = MockEmbedderClient(dim=64)
        docs = synthetic_docs(6, seed=24)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "c.emb")
        index = DenseIndex(cache)

        class AlwaysFailing(MockGeneratorClient):
            def request_completions(self, prompt, cfg):
                raise SlhydeError("boom")

        path = tmp_path / "sft.jsonl"
        with pytest.raises(RunError):
            build_generator_dataset(
                docs, AlwaysFailing(max_retries=0), emb, index, SelfLearnSettings(candidates_per_query=1), path
            )
        # the run fails once every chunk is scored, and neither file is left
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("sft")) == []

    def test_parallel_matches_serial(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(12, seed=25)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "c.emb")
        index = DenseIndex(cache)
        two = SelfLearnSettings(candidates_per_query=2)
        serial = _generate(tmp_path, docs, MockGeneratorClient(seed=1), emb, index, two, seed=3)
        parallel = _generate(tmp_path, docs, MockGeneratorClient(seed=1), emb, index, two, seed=3, parallelism=4)
        assert serial.examples == parallel.examples

    @pytest.mark.parametrize("rank_scoring", ["candidate", "fused"])
    def test_one_embedder_request_per_document(self, tmp_path, rank_scoring):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(8, seed=26)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "c.emb"))
        emb.calls = 0
        result = _generate(
            tmp_path, docs, MockGeneratorClient(), emb, index,
            SelfLearnSettings(candidates_per_query=3, rank_scoring=rank_scoring),
        )
        assert result.skipped_errors == 0
        # one request per chunk of 64 documents: all 8 documents share one
        assert emb.calls == 1

    def test_65_documents_make_two_requests_at_any_parallelism(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(65, seed=27)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "c.emb"))
        results = []
        for parallelism in (1, 4):
            emb.calls = 0
            results.append(
                _generate(
                    tmp_path, docs, MockGeneratorClient(), emb, index, SelfLearnSettings(candidates_per_query=2),
                    seed=3, parallelism=parallelism,
                )
            )
            assert emb.calls == 2
        assert results[0] == results[1]
        assert results[0].rows.tobytes() == results[1].rows.tobytes()
        assert results[0].rows.shape == (2 * len(results[0].examples), 128)
        assert results[0].total == 65 and results[0].skipped_errors == 0

    def test_failed_chunk_is_scored_one_document_at_a_time(self, tmp_path, caplog):
        L = 2
        docs = synthetic_docs(6, seed=28)
        plain = MockEmbedderClient(dim=128)
        index = DenseIndex(cache_docs(plain, CorpusStore(docs), tmp_path / "c.emb"))
        gen_fails, embed_fails = docs[1], docs[4]
        poisoned = generate_query_for_doc(
            MockGeneratorClient(), embed_fails, SamplingConfig(seed=derive_seed(3, "query", embed_fails.id))
        )

        class FailingGenerator(MockGeneratorClient):
            def request_completions(self, prompt, cfg):
                if gen_fails.text in prompt:
                    raise SlhydeError("generator refused")
                return super().request_completions(prompt, cfg)

        class ChunkRefusingEmbedder(MockEmbedderClient):
            """Refuses a batch larger than one document's texts, and any batch
            holding the poisoned query."""

            batches: list

            def embed_batch(self, texts):
                self.batches.append(len(texts))
                if len(texts) > 1 + L or poisoned in texts:
                    raise TransportError("refused")
                return super().embed_batch(texts)

        # what one request per document gives: only the generation failure is skipped
        settings_l = SelfLearnSettings(candidates_per_query=L)
        reference = _generate(tmp_path, docs, FailingGenerator(), plain, index, settings_l, seed=3)
        assert reference.skipped_errors == 1
        assert embed_fails.id in [e.doc_id for e in reference.examples]

        emb = ChunkRefusingEmbedder(dim=128)
        emb.batches = []
        caplog.clear()
        result = _generate(tmp_path, docs, FailingGenerator(), emb, index, settings_l, seed=3)
        assert result.examples == [e for e in reference.examples if e.doc_id != embed_fails.id]
        assert (result.skipped_errors, result.dropped_by_cutoff) == (2, 0)
        skips = [r.getMessage().split(":")[0] for r in caplog.records if r.getMessage().startswith("skipping")]
        assert skips == [f"skipping document {gen_fails.id}", f"skipping document {embed_fails.id}"]
        # the chunk's five planned documents in one batch, tried three times;
        # then one batch per document, the poisoned one tried three times
        assert emb.batches == [5 * (1 + L)] * 3 + [1 + L] * 7
        # every emitted example keeps its query's row and its response's, as a fresh embed gives them
        for built in (reference, result):
            texts = [text for e in built.examples for text in (e.query, e.response)]
            assert built.rows.tobytes() == embed_texts(plain, texts).tobytes()

    def test_generator_client_error_ends_the_run(self, tmp_path):
        # a bad key would fail every document alike, so no document is skipped for it
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(20, seed=29)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "c.emb"))

        def reject(prompt, cfg):
            raise ProtocolError("generator returned HTTP 401")

        gen = MockGeneratorClient(responder=reject)
        with pytest.raises(ProtocolError, match="HTTP 401"):
            build_generator_dataset(docs, gen, emb, index, SelfLearnSettings(candidates_per_query=2), tmp_path / "s")
        assert gen.calls == 1

    def test_embedder_client_error_in_the_one_document_fallback_ends_the_run(self, tmp_path):
        docs = synthetic_docs(20, seed=29)
        index = DenseIndex(cache_docs(MockEmbedderClient(dim=128), CorpusStore(docs), tmp_path / "c.emb"))

        class RejectingEmbedder(MockEmbedderClient):
            def embed_batch(self, texts):
                self.calls += 1
                raise ProtocolError("embedder returned HTTP 401")

        emb = RejectingEmbedder(dim=128)
        with pytest.raises(ProtocolError, match="HTTP 401"):
            build_generator_dataset(
                docs, MockGeneratorClient(), emb, index, SelfLearnSettings(candidates_per_query=2), tmp_path / "s"
            )
        # the chunk's one request, then the first document's own
        assert emb.calls == 2


class TestMineHardNegatives:
    def _setup(self, tmp_path, n=40):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(n, seed=31)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "m.emb")
        return emb, docs, store, cache

    def test_default_seven_negatives_exclude_positive(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path)
        target = docs[3]
        fused = embed_texts(emb, [" ".join(target.text.split()[:2]), target.text]).mean(axis=0)
        m = SelfLearnSettings().negatives
        [negatives] = mine_hard_negatives(DenseIndex(cache), fused[None], [target.id], m)
        ids = [doc_id for doc_id, _ in negatives]
        assert len(ids) == 7
        assert target.id not in ids
        assert len(set(ids)) == 7

    def test_corpus_of_m_plus_one_returns_all_others(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path, n=8)
        target = docs[0]
        fused = embed_texts(emb, ["q text", target.text]).mean(axis=0)
        [negatives] = mine_hard_negatives(DenseIndex(cache), fused[None], [target.id], m=7)
        assert sorted(doc_id for doc_id, _ in negatives) == sorted(d.id for d in docs[1:])

    def test_equals_exact_top_m(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path, n=60)
        dense = DenseIndex(cache)
        rng = np.random.default_rng(5)
        for _ in range(15):
            target = docs[int(rng.integers(0, len(docs)))]
            query_text = " ".join(target.text.split()[:3])
            [negatives] = mine_hard_negatives(
                dense, embed_texts(emb, [query_text, target.text]).mean(axis=0, keepdims=True), [target.id], m=7
            )
            fused = (embed_text(emb, query_text) + embed_text(emb, target.text)) / 2.0
            exact = [d for d, _ in dense_search(dense, fused, k=8) if d != target.id][:7]
            assert [doc_id for doc_id, _ in negatives] == exact

    def test_rows_mined_in_one_call_equal_one_row_calls(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path, n=90)
        dense = DenseIndex(cache)
        # 90 rows cross two search blocks
        fused = np.vstack([embed_texts(emb, [" ".join(d.text.split()[:2]), d.text]).mean(axis=0) for d in docs])
        positives = [d.id for d in docs]
        batched = mine_hard_negatives(dense, fused, positives, m=7)
        assert batched == [mine_hard_negatives(dense, row[None], [p], m=7)[0] for row, p in zip(fused, positives)]

    def test_corpus_too_small(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path, n=5)
        fused = embed_texts(emb, ["q", docs[0].text]).mean(axis=0, keepdims=True)
        with pytest.raises(ValidationError, match="too small"):
            mine_hard_negatives(DenseIndex(cache), fused, [docs[0].id], m=7)

    def test_m_must_be_positive(self, tmp_path):
        emb, docs, store, cache = self._setup(tmp_path, n=5)
        fused = embed_texts(emb, ["q", docs[0].text]).mean(axis=0, keepdims=True)
        with pytest.raises(ValidationError, match="m must be"):
            mine_hard_negatives(DenseIndex(cache), fused, [docs[0].id], m=0)


class TestBuildRetrieverDataset:
    def _sft(self, docs):
        return [
            SftExample(
                query=f"query about {doc.id}",
                response=doc.text,
                doc_id=doc.id,
                rank=1,
                num_candidates=5,
            )
            for doc in docs
        ]

    def test_offline_mode_reuses_response(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(20, seed=41)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "t.emb")
        sft = self._sft(docs[:5])
        triplets = _mine(
            tmp_path, sft, MockGeneratorClient(), emb, DenseIndex(cache), SelfLearnSettings(reuse_pseudo=True)
        ).triplets
        assert [t.pseudo for t in triplets] == [e.response for e in sft]

    def test_online_mode_regenerates(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(20, seed=42)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "t.emb")
        index = DenseIndex(cache)
        sft = self._sft(docs[:3])
        online = SelfLearnSettings(reuse_pseudo=False)
        result = _mine(tmp_path, sft, MockGeneratorClient(seed=5), emb, index, online, seed=9)
        assert all(t.pseudo != e.response for t, e in zip(result.triplets, sft))
        again = _mine(tmp_path, sft, MockGeneratorClient(seed=5), emb, index, online, seed=9)
        assert result == again

    def test_invariants_hold_for_every_triplet(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(30, seed=43)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "t.emb")
        triplets = _mine(
            tmp_path, self._sft(docs[:10]), MockGeneratorClient(), emb, DenseIndex(cache),
            SelfLearnSettings(negatives=7),
        ).triplets
        for triplet in triplets:
            assert triplet.positive not in triplet.negatives
            assert len(triplet.negatives) == 7
            assert len(set(triplet.negatives)) == 7

    def test_hundred_examples_round_trip_jsonl(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(120, seed=44)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "t.emb")
        triplets = _mine(
            tmp_path, self._sft(docs[:100]), MockGeneratorClient(), emb, DenseIndex(cache),
            SelfLearnSettings(negatives=7),
        ).triplets
        path = tmp_path / "triplets.jsonl"
        emit_triplets_jsonl(triplets, path)
        loaded = load_triplets_jsonl(path)
        assert loaded == triplets

    @pytest.mark.parametrize("reuse_pseudo", [True, False])
    def test_one_embedder_request_per_triplet(self, tmp_path, reuse_pseudo):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(20, seed=45)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "t.emb"))
        sft = self._sft(docs[:6])
        emb.calls = 0
        result = _mine(
            tmp_path, sft, MockGeneratorClient(), emb, index, SelfLearnSettings(negatives=7, reuse_pseudo=reuse_pseudo)
        )
        # one request per chunk of 64 examples: all 6 triplets share one
        assert emb.calls == 1
        assert len(result.reference_losses) == len(sft)

    @pytest.mark.parametrize("reuse_pseudo", [True, False])
    def test_65_examples_make_two_requests_at_any_parallelism(self, tmp_path, reuse_pseudo):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(80, seed=46)
        cache = cache_docs(emb, CorpusStore(docs), tmp_path / "t.emb")
        index = DenseIndex(cache)
        sft = self._sft(docs[:65])
        results = []
        for parallelism in (1, 4):
            emb.calls = 0
            results.append(
                _mine(
                    tmp_path, sft, MockGeneratorClient(), emb, index,
                    SelfLearnSettings(negatives=7, reuse_pseudo=reuse_pseudo), seed=9, parallelism=parallelism,
                )
            )
            assert emb.calls == 2
        assert results[0] == results[1]
        # each triplet equals the one-triplet path: its own fuse, dense_search and loss
        for triplet, value in zip(results[0].triplets, results[0].reference_losses):
            fused = embed_texts(emb, [triplet.query, triplet.pseudo]).mean(axis=0)
            exact = [(d, s) for d, s in dense_search(index, fused, k=8) if d != triplet.positive][:7]
            assert list(triplet.negatives) == [d for d, _ in exact] and triplet.scores == dict(exact)
            negative_rows = [cache.row(d) for d in triplet.negatives]
            assert value == contrastive_loss(fused, cache.row(triplet.positive), negative_rows, tau=0.02)


class TestSftRows:
    def test_saved_rows_stand_in_for_every_triplet_text(self, tmp_path, caplog):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(30, seed=47)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "t.emb"))
        settings = SelfLearnSettings(candidates_per_query=2, negatives=3)
        sft, rows_file = tmp_path / "sft.jsonl", tmp_path / "sft.jsonl.rows"
        sidecar = tmp_path / "sft.jsonl.rows.ids"  # an SLHE2 rows file's ids, stale once the file is rewritten
        sidecar.write_text("input:old\n")
        build_generator_dataset(docs[:12], MockGeneratorClient(), emb, index, settings, sft, seed=2)
        assert not sidecar.exists()
        examples = load_sft_jsonl(sft)
        rows = load_cache(rows_file)
        assert len(rows) == 2 * len(examples)
        emb.calls = 0
        with caplog.at_level("INFO", logger="slhyde.selflearn"):
            reused = _mined(build_retriever_dataset(sft, MockGeneratorClient(), emb, index, settings))
        assert emb.calls == 0
        assert "reusing SFT rows" in caplog.text
        rows_file.unlink()
        assert reused == _mined(build_retriever_dataset(sft, MockGeneratorClient(), emb, index, settings))
        # rows written for other examples than the file's are not used
        fingerprint = cache_fingerprint(emb, corpus_file_digest(sft))
        save_cache(EmbeddingCache(rows.ids[:-2], rows.matrix[:-2]), rows_file, fingerprint)
        caplog.clear()
        emb.calls = 0
        with caplog.at_level("INFO", logger="slhyde.selflearn"):
            assert _mined(build_retriever_dataset(sft, MockGeneratorClient(), emb, index, settings)) == reused
        assert "does not list the examples" in caplog.text
        assert emb.calls == 1


class TestContrastiveLoss:
    def test_symmetric_single_negative_is_ln2(self):
        q = np.array([1.0, 0.0])
        pos = np.array([0.5, 0.5])
        neg = np.array([0.5, -0.5])  # same inner product with q as pos
        loss = contrastive_loss(q, pos, [neg], tau=1.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_negatives_no_batch_is_zero(self):
        q = np.array([1.0, 0.0])
        pos = np.array([0.9, 0.1])
        assert contrastive_loss(q, pos, [], tau=0.5) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example_tau_002(self):
        # Direct formula oracle: ln(1 + e^((0.8-0.9)/0.02)) = ln(1 + e^-5)
        loss = infonce_from_scores(0.9, [0.8], tau=0.02)
        assert loss == pytest.approx(math.log1p(math.exp(-5.0)), abs=1e-12)
        assert loss == pytest.approx(0.006715348489118068, abs=1e-9)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValidationError):
            infonce_from_scores(0.9, [0.8], tau=0.0)
        with pytest.raises(ValidationError):
            contrastive_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5]), [], tau=-1.0)
        with pytest.raises(ValidationError, match="selflearn.tau"):
            SelfLearnSettings(tau=0.0)

    def test_monotonic_in_scores(self):
        # tau bounded away from 0 so a 1e-3 perturbation of any term stays
        # resolvable in float64 (at tau=0.01 a dominated negative's softmax
        # weight underflows and the strict inequality is not representable).
        rng = np.random.default_rng(0)
        for _ in range(200):
            pos = float(rng.uniform(-1, 1))
            negs = list(rng.uniform(-1, 1, size=int(rng.integers(1, 6))))
            tau = float(rng.uniform(0.2, 1.0))
            base = infonce_from_scores(pos, negs, tau)
            eps = 1e-3
            assert infonce_from_scores(pos + eps, negs, tau) < base
            bumped = list(negs)
            bumped[0] += eps
            assert infonce_from_scores(pos, bumped, tau) > base

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pos = float(rng.uniform(-1, 1))
            negs = list(rng.uniform(-1, 1, size=int(rng.integers(0, 6))))
            loss = infonce_from_scores(pos, negs, tau=float(rng.uniform(0.01, 2.0)))
            assert loss >= 0.0

    def test_joint_scale_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=8)
        pos = rng.normal(size=8)
        negs = [rng.normal(size=8) for _ in range(3)]
        for scale in (0.5, 2.0, 17.0):
            base = contrastive_loss(q, pos, negs, tau=0.1)
            scaled = contrastive_loss(q * scale, pos, negs, tau=0.1 * scale)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_dataset_reference_loss(self, tmp_path):
        emb = MockEmbedderClient(dim=64)
        docs = synthetic_docs(12, seed=51)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "l.emb")
        sft = [SftExample(query="q text", response=docs[0].text, doc_id=docs[0].id, rank=1, num_candidates=5)]
        result = _mine(
            tmp_path, sft, MockGeneratorClient(), emb, DenseIndex(cache), SelfLearnSettings(negatives=7, tau=0.02)
        )
        [triplet] = result.triplets
        # the loss of the fused (query, pseudo) vector against the cached rows
        expected = contrastive_loss(
            embed_texts(emb, [triplet.query, triplet.pseudo]).mean(axis=0),
            cache.row(triplet.positive),
            [cache.row(doc_id) for doc_id in triplet.negatives],
            tau=0.02,
        )
        assert result.reference_losses == [expected]
        assert expected >= 0.0

    def test_dataset_reference_loss_one_embedder_request_per_triplet(self, tmp_path):
        emb = MockEmbedderClient(dim=64)
        docs = synthetic_docs(12, seed=52)
        index = DenseIndex(cache_docs(emb, CorpusStore(docs), tmp_path / "l.emb"))
        sft = [
            SftExample(query=f"q text {i}", response=docs[i].text, doc_id=docs[i].id, rank=1, num_candidates=5)
            for i in range(4)
        ]
        emb.calls = 0
        result = _mine(tmp_path, sft, MockGeneratorClient(), emb, index, SelfLearnSettings(negatives=7))
        assert len(result.reference_losses) == len(sft)
        # one request per chunk of 64 examples: all 4 triplets share one
        assert emb.calls == 1


class TestTripletInvariants:
    def test_positive_in_negatives_rejected(self):
        with pytest.raises(ValidationError):
            RetrieverTriplet(query="q", pseudo="p", positive="d1", negatives=("d1", "d2"))

    def test_duplicate_negatives_rejected(self):
        with pytest.raises(ValidationError):
            RetrieverTriplet(query="q", pseudo="p", positive="d1", negatives=("d2", "d2"))


class TestEmission:
    def _examples(self, n=10):
        return [
            SftExample(
                query=f"query {i}",
                response=f"response {i}",
                doc_id=f"d{i}",
                rank=i + 1,
                num_candidates=5,
            )
            for i in range(n)
        ]

    def test_sft_round_trip_field_equality(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        examples = self._examples(10)
        emit_sft_jsonl(examples, path)
        assert load_sft_jsonl(path) == examples

    def test_unwritable_path_is_io_error(self, tmp_path):
        # A regular file in the parent position makes the path unwritable
        # even for root (permission bits would be bypassed in this sandbox).
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        with pytest.raises(OSError):
            emit_sft_jsonl(self._examples(1), blocker / "sft.jsonl")

    def test_thousand_examples_validate_against_schema(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        emit_sft_jsonl(self._examples(1000), path)
        assert validate_sft_file(path) == 1000

    def test_schema_violation_detected(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        emit_sft_jsonl(self._examples(2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        del record["meta"]["rank"]
        path.write_text(json.dumps(record) + "\n" + lines[1] + "\n")
        with pytest.raises(ValidationError, match=r"missing key meta\.rank in sft\.jsonl \(line 1\)$"):
            validate_sft_file(path)

    def test_malformed_sft_line_is_parse_error(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        emit_sft_jsonl(self._examples(2), path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ParseError, match="sft.jsonl.*line 3"):
            load_sft_jsonl(path)

    def test_malformed_triplet_line_is_parse_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"query": "q", \n')
        with pytest.raises(ParseError, match="t.jsonl.*line 1"):
            load_triplets_jsonl(path)

    @pytest.mark.parametrize("load", [load_sft_jsonl, load_triplets_jsonl])
    def test_byte_that_is_not_utf8_is_parse_error(self, tmp_path, load):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"\n" + b'{"query": "caf\xff"}\n')
        with pytest.raises(ParseError, match=r"byte 0xff is not UTF-8 in records\.jsonl \(line 2\)$"):
            load(path)

    _SFT = {"instruction": "i", "input": "q", "output": "p", "meta": {"doc_id": "d0", "rank": 1, "L": 5}}
    _TRIPLET = {"query": "q", "pseudo": "p", "pos": "d0", "neg": ["d1", "d2"], "meta": {}}

    @pytest.mark.parametrize(
        "load, good, change",
        [
            (load_triplets_jsonl, _TRIPLET, {"neg": ["d1", "d0"]}),
            (load_triplets_jsonl, _TRIPLET, {"neg": ["d1", "d1"]}),
            (load_triplets_jsonl, _TRIPLET, {"meta": []}),
            (load_triplets_jsonl, _TRIPLET, {"scores": {}}),
            (load_sft_jsonl, _SFT, {"meta": {"doc_id": "d0", "rank": 0, "L": 5}}),
            (load_sft_jsonl, _SFT, {"meta": {"doc_id": "d0", "rank": 1.0, "L": 5}}),
            (load_sft_jsonl, _SFT, {"meta": {"doc_id": "d0", "rank": 1, "L": 5, "x": 1}}),
        ],
    )
    def test_every_bad_record_names_the_file_and_line(self, tmp_path, load, good, change):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | change) + "\n")
        with pytest.raises(ValidationError, match=r" in records\.jsonl \(line 2\)$"):
            load(path)

    def test_triplet_schema_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        triplets = [
            RetrieverTriplet(
                query="q",
                pseudo="p",
                positive="d0",
                negatives=("d1", "d2"),
                scores={"d1": 0.5, "d2": 0.4},
            )
        ]
        emit_triplets_jsonl(triplets, path)
        assert len(load_triplets_jsonl(path)) == 1

    def test_sft_instruction_constant_by_default(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        emit_sft_jsonl(self._examples(3), path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        from slhyde.selflearn import DEFAULT_SFT_INSTRUCTION

        assert {r["instruction"] for r in records} == {DEFAULT_SFT_INSTRUCTION}

    def test_emitted_datasets_byte_identical_for_fixed_seed(self, tmp_path):
        emb = MockEmbedderClient(dim=128)
        docs = synthetic_docs(15, seed=61)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "d.emb")
        index = DenseIndex(cache)

        def run(out):
            gen = MockGeneratorClient(seed=2)
            build_generator_dataset(docs, gen, emb, index, SelfLearnSettings(candidates_per_query=3), out, seed=5)
            return out.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")
