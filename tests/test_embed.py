import functools
import hashlib
import itertools
import logging
import os
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhyde import embed
from slhyde.corpus import CorpusStore, Document, corpus_file_digest, load_corpus, write_corpus
from slhyde.embed import (
    EmbeddingCache,
    MockEmbedderClient,
    RemoteEmbedderClient,
    cache_embeddings,
    cache_fingerprint,
    embed_rows,
    embed_text,
    embed_texts,
    keyed_rows,
    load_cache,
    normalize,
)
from slhyde.errors import FormatError, ProtocolError, TransportError, ValidationError
from slhyde.retrieval import DenseIndex

from conftest import StubEndpoint, cache_docs, synthetic_docs


class TestNormalize:
    def test_three_four_five_triangle(self):
        out = normalize([3.0, 4.0])
        assert np.allclose(out, [0.6, 0.8], atol=1e-7)

    def test_unit_vector_unchanged(self):
        vec = np.array([1.0, 0.0, 0.0], dtype=np.float32)
        assert np.allclose(normalize(vec), vec)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            normalize([0.0, 0.0])

    @pytest.mark.parametrize("value", [1e20, 1e-30, 1e-45])
    def test_squares_that_overflow_or_underflow_are_rescaled(self, value):
        # float32 squares of 1e20 overflow to inf and those of 1e-30 underflow to 0
        assert normalize([value] * 4).tolist() == [0.5] * 4
        assert normalize([0.0, -value]).tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("vector", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [np.nan, 0.0]])
    def test_non_finite_entry_rejected_without_warning(self, vector):
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="non-finite"):
            normalize(vector)

    def test_non_finite_override_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="non-finite"):
            MockEmbedderClient(dim=2, overrides={"bad": [np.inf, 1.0]})


def _serving(rows_per_request, dim=4, batch_size=2):
    """A client whose k-th request returns rows_per_request[k], and the list
    of the requests it received."""
    client = MockEmbedderClient(dim=dim)
    client.batch_size = batch_size
    requests = []

    def embed_batch(texts):
        requests.append(texts)
        return np.asarray(rows_per_request[len(requests) - 1])

    client.embed_batch = embed_batch
    return client, requests


class TestUnitRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_only_rows_whose_norm_is_zero_or_inf_are_rescaled(self, dtype):
        huge = 1e20 if dtype == np.float32 else 1e200
        tiny = 1e-30 if dtype == np.float32 else 1e-200
        rows = np.array([[huge] * 4, [3, 4, 0, 0], [tiny] * 4, [0, -tiny, 0, 0], [1, 2, 3, 4]], dtype=dtype)
        client, _ = _serving([rows], batch_size=5)
        out = embed_texts(client, ["a", "b", "c", "d", "e"])
        assert out.dtype == np.float32
        assert out[[0, 2]].tolist() == [[0.5] * 4] * 2
        assert out[3].tolist() == [0.0, -1.0, 0.0, 0.0]
        # every other row keeps exactly rows[i] / ‖rows[i]‖
        for i in (1, 4):
            assert out[i].tobytes() == (rows[i] / np.linalg.norm(rows[i : i + 1], axis=1)).astype(np.float32).tobytes()

    def test_zero_row_is_rejected(self):
        client, _ = _serving([np.array([[1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.float32)])
        with pytest.raises(ValidationError, match="embedder returned a zero vector"):
            embed_texts(client, ["a", "b"])

    def test_a_non_finite_batch_ends_the_call_before_the_next_request(self):
        bad = np.full((2, 4), np.nan, dtype=np.float32)
        good = np.ones((2, 4), dtype=np.float32)
        client, requests = _serving([bad, good, good])
        with pytest.raises(ProtocolError, match="embedder returned non-finite values"):
            embed_texts(client, ["a", "b", "c", "d", "e", "f"])
        assert requests == [["a", "b"]]

    def test_a_batch_of_the_wrong_shape_is_a_protocol_error(self):
        client, _ = _serving([np.ones((2, 4)), np.ones((1, 4))])
        with pytest.raises(ProtocolError, match="expected 2 embeddings of dim 4"):
            embed_texts(client, ["a", "b", "c", "d"])


class TestMockEmbedder:
    def test_same_text_same_vector(self, mock_emb):
        vecs = embed_texts(mock_emb, ["a", "a"])
        assert np.array_equal(vecs[0], vecs[1])

    def test_unit_norms(self, mock_emb):
        vecs = embed_texts(mock_emb, ["short", "a much longer text with many characters"])
        norms = np.linalg.norm(vecs, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-4)

    def test_thousand_texts_identical_pairs_cosine_one(self, mock_emb):
        # 500 distinct texts, each appearing twice
        base = [f"text number {i} with some shared words" for i in range(500)]
        texts = base + base
        vecs = embed_texts(mock_emb, texts)
        # brute-force pairwise check over the duplicate pairs
        for i in range(500):
            cos = float(vecs[i] @ vecs[i + 500])
            assert abs(cos - 1.0) <= 1e-6

    def test_distinct_short_tokens_separate(self):
        client = MockEmbedderClient(dim=64)
        tokens = ["apple", "bread", "crane", "delta", "eagle", "flint"]
        vecs = embed_texts(client, tokens)
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                assert float(vecs[i] @ vecs[j]) < 0.99

    def test_order_sensitive(self, mock_emb):
        a, b = embed_texts(mock_emb, ["alpha beta gamma", "gamma beta alpha"])
        assert not np.array_equal(a, b)

    def test_truncation_by_char_budget(self):
        client = MockEmbedderClient(dim=128, truncate_chars=50)
        long_text = "x" * 49 + "TAIL_THAT_IS_CUT" * 20
        truncated = embed_text(client, long_text)
        explicit = embed_text(client, long_text[:50])
        assert np.array_equal(truncated, explicit)

    def test_overrides_pin_vectors(self):
        client = MockEmbedderClient(dim=4, overrides={"pinned": [1.0, 0.0, 0.0, 0.0]})
        vec = embed_text(client, "pinned")
        assert np.allclose(vec, [1.0, 0.0, 0.0, 0.0])

    def test_empty_text_rejected(self, mock_emb):
        with pytest.raises(ValidationError):
            embed_texts(mock_emb, ["ok", "   "])
        with pytest.raises(ValidationError):
            embed_texts(mock_emb, [])

    def test_embed_rows_embeds_each_unknown_truncation_once(self):
        # known rows are keyed by the truncation the embedder sees ("known te")
        client = MockEmbedderClient(dim=64, truncate_chars=8)
        known = keyed_rows(client, ["known text"], [embed_text(client, "known text")])
        assert list(known) == ["known te"]
        client.calls = 0
        texts = ["known text", "alpha beta", "alpha beta gamma", "known tex!", "delta"]
        batches = []
        original = client.embed_batch
        client.embed_batch = lambda batch: batches.append(batch) or original(batch)
        rows = embed_rows(client, texts, known)
        # "alpha beta gamma" shares its first 8 characters with "alpha beta", "known tex!" with "known text"
        assert batches == [["alpha be", "delta"]]
        assert rows.tobytes() == embed_texts(client, texts).tobytes()
        batches.clear()
        both = embed_rows(client, ["known text", "known tex?"], known)
        assert both.tobytes() == np.vstack([known["known te"]] * 2).tobytes()
        assert batches == []

    def test_embed_rows_looks_known_rows_up_without_iterating_them(self):
        class LookupOnly(dict):
            def _iterated(self, *args):
                raise AssertionError("the known rows were iterated")

            __iter__ = keys = values = items = copy = _iterated

        client = MockEmbedderClient(dim=32, truncate_chars=16)
        texts = [f"query number {i}" for i in range(200)]
        known = LookupOnly(keyed_rows(client, texts[:150], embed_texts(client, texts[:150])))
        batches = []
        original = client.embed_batch
        client.embed_batch = lambda batch: batches.append(batch) or original(batch)
        chunk = texts[140:160] + texts[:3]
        rows = embed_rows(client, chunk, known)
        assert [text for batch in batches for text in batch] == texts[150:160]
        assert rows.tobytes() == embed_texts(client, chunk).tobytes()

    def test_inner_product_equals_cosine_for_unit_vectors(self, mock_emb):
        vecs = embed_texts(mock_emb, [f"text {i}" for i in range(20)])
        for i in range(0, 20, 3):
            for j in range(1, 20, 4):
                dot = float(vecs[i] @ vecs[j])
                cosine = dot / (float(np.linalg.norm(vecs[i])) * float(np.linalg.norm(vecs[j])))
                assert abs(dot - cosine) <= 1e-6


def _reference_feature(gram, dim):
    value = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "little")
    return value % dim, 1.0 if value >> 63 else -1.0


def _reference_sums(text, dim):
    """The float64 sum of a text's signed grams, one gram at a time."""
    vec = np.zeros(dim, dtype=np.float64)
    for gram in [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]:
        bucket, sign = _reference_feature(gram, dim)
        vec[bucket] += sign
    return vec


def _reference_rows(client, texts):
    """The mock embedder's rows by their definition, one text at a time."""
    rows = []
    for text in texts:
        row = client._overrides.get(text)
        if row is None:
            row = _reference_sums(text, client.dim)
            if not row.any():
                row[_reference_feature(text, client.dim)[0]] = 1.0
        rows.append(row.astype(np.float32))
    return np.vstack(rows) if rows else np.zeros((0, client.dim), dtype=np.float32)


@functools.cache
def _cancelling(dim):
    """Four texts whose gram signs cancel to a zero row at `dim`, so that the
    marker bucket is their row: two grams that share a bucket and not a sign."""
    texts = (f"{i:04x}" for i in range(1 << 16))
    return list(itertools.islice((t for t in texts if not _reference_sums(t, dim).any()), 4))


_CHARS = st.one_of(
    st.characters(codec="utf-8"),  # any code point that UTF-8 can encode
    st.characters(min_codepoint=0x10000, codec="utf-8"),  # astral-plane code points
    st.sampled_from("\x00ab "),  # NUL, and a small alphabet so that grams repeat
)


class TestMockEmbedderBatches:
    @pytest.mark.parametrize("dim", [2, 3, 256])
    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(st.text(_CHARS, max_size=2) | st.text(_CHARS, max_size=14), max_size=12), data=st.data())
    def test_rows_equal_the_per_text_definition(self, dim, texts, data):
        texts = texts + data.draw(st.lists(st.sampled_from(_cancelling(dim)), max_size=2))
        pinned = data.draw(st.sets(st.sampled_from(texts))) if texts else set()
        client = MockEmbedderClient(dim=dim, overrides={t: np.arange(dim) + len(t) - 1.5 for t in pinned})
        expected = _reference_rows(client, texts).tobytes()
        # cold memo first, then warm; passes of the default size and passes so
        # small that most texts are a pass of their own
        for pass_grams in (None, 1, 5, 16):
            with mock.patch.object(embed, "_PASS_GRAMS", pass_grams or embed._PASS_GRAMS):
                assert client.embed_batch(texts).tobytes() == expected
        # a row does not depend on its batch neighbours
        assert b"".join(client.embed_batch([text]).tobytes() for text in texts) == expected

    def test_a_batch_holds_one_pass_of_temporaries(self):
        texts = [doc.text for doc in synthetic_docs(1024, extra_tokens=10)]  # 251 characters each
        client = MockEmbedderClient(dim=256)
        tracemalloc.start()
        try:
            rows = client.embed_batch(texts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.tobytes() == _reference_rows(client, texts).tobytes()
        # what the call keeps is the rows and the memo of its 19,416 distinct
        # trigrams; its temporaries are one pass's (0.95x the rows at 2**14
        # trigrams per pass), where hashing the batch in one pass took 15x
        assert peak - kept <= 1.5 * rows.nbytes

    def test_concurrent_batches_share_the_memo(self):
        # More threads than cores and a tiny switch interval: each batch
        # overlaps the next, so the threads meet the same new trigrams, and a
        # memo entry read half-written would move a row
        texts = [doc.text for doc in synthetic_docs(500, extra_tokens=10)]
        batches = [texts[start : start + 200] for start in range(0, 400, 100)]
        serial = [MockEmbedderClient(dim=64).embed_batch(batch).tobytes() for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(embed, "_PASS_GRAMS", 256), ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(5):
                    client = MockEmbedderClient(dim=64)
                    assert [rows.tobytes() for rows in pool.map(client.embed_batch, batches)] == serial
                    assert client.calls == len(batches)
        finally:
            sys.setswitchinterval(interval)


class TestRemoteEmbedder:
    def test_parses_embeddings_response(self):
        class StubResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 2.0]}]}

        class StubSession:
            def post(self, url, json=None, timeout=None, headers=None):
                return StubResponse()

        client = RemoteEmbedderClient("http://x", model="m", dim=2, session=StubSession())
        vecs = embed_texts(client, ["a", "b"])
        assert vecs.shape == (2, 2)
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)

    def test_dim_mismatch_is_protocol_error(self):
        class StubResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"data": [{"embedding": [1.0, 0.0, 0.0]}]}

        class StubSession:
            def post(self, url, json=None, timeout=None, headers=None):
                return StubResponse()

        client = RemoteEmbedderClient("http://x", model="m", dim=2, session=StubSession())
        with pytest.raises(ProtocolError, match="dim"):
            embed_texts(client, ["a"])

    @pytest.mark.parametrize("rows", [[[1.0, 0.0], [1.0]], [["x", "y"], [0.0, 1.0]], [1.0, 0.0]])
    def test_unreadable_embeddings_are_protocol_errors_without_retry(self, rows):
        session = StubEndpoint({"data": [{"embedding": row} for row in rows]})
        client = RemoteEmbedderClient("http://x", model="m", dim=2, max_retries=2, session=session)
        with pytest.raises(ProtocolError):
            embed_texts(client, ["a", "b"])
        assert len(session.headers) == 1

    def test_non_finite_values_rejected(self):
        class StubResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"data": [{"embedding": [float("nan"), 1.0]}]}

        class StubSession:
            def post(self, url, json=None, timeout=None, headers=None):
                return StubResponse()

        client = RemoteEmbedderClient("http://x", model="m", dim=2, session=StubSession())
        with pytest.raises(ProtocolError, match="non-finite"):
            embed_texts(client, ["a"])

    def test_transport_failure_retries_then_raises(self):
        class FailingSession:
            def __init__(self):
                self.calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                raise ConnectionError("down")

        session = FailingSession()
        client = RemoteEmbedderClient(
            "http://x", model="m", dim=2, max_retries=1, backoff=0.0, session=session
        )
        with pytest.raises(TransportError) as excinfo:
            embed_texts(client, ["a"])
        assert excinfo.value.attempts == 2
        assert session.calls == 2


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path, mock_emb):
        store = CorpusStore(synthetic_docs(10))
        cache = cache_docs(mock_emb, store, tmp_path / "c.emb")
        loaded = load_cache(tmp_path / "c.emb")
        assert loaded.ids == cache.ids
        assert loaded.matrix.tobytes() == cache.matrix.tobytes()

    def test_load_holds_one_copy_of_the_rows(self, tmp_path):
        client = MockEmbedderClient(dim=64)
        cache = cache_docs(client, CorpusStore(synthetic_docs(2000)), tmp_path / "c.emb")
        tracemalloc.start()
        try:
            loaded = load_cache(tmp_path / "c.emb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.matrix.tobytes() == cache.matrix.tobytes()
        # the rows and the ids; a second copy of the file would take the peak
        # past twice the rows
        assert peak < 1.6 * cache.matrix.nbytes

    def test_cold_build_holds_one_matrix_and_one_batch(self, tmp_path):
        n, dim, batch = 4000, 256, 500
        rows = np.random.default_rng(5).normal(size=(n, dim)).astype(np.float32)
        client, _ = _serving([rows[start : start + batch] for start in range(0, n, batch)], dim=dim, batch_size=batch)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(synthetic_docs(n), corpus)
        tracemalloc.start()
        try:
            # what the corpus alone costs: its digest, the parsed store and the texts
            corpus_file_digest(corpus)
            store = load_corpus(corpus)
            texts = [doc.indexed_text for doc in store]
            _, corpus_peak = tracemalloc.get_traced_memory()
            del store, texts
            tracemalloc.reset_peak()
            built = cache_embeddings(client, corpus, tmp_path / "c.emb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        assert built.matrix.tobytes() == expected.tobytes() == load_cache(tmp_path / "c.emb").matrix.tobytes()
        # the matrix once, a batch's temporaries and the ids; stacking the
        # batches, copying them to normalize and serializing them took about 3x
        assert peak <= 1.5 * built.matrix.nbytes + rows[:batch].nbytes + corpus_peak

    @pytest.mark.parametrize("n, batch_size", [(7, 1), (7, 3), (7, 12), (0, 4)])
    def test_streamed_cache_is_the_bytes_of_the_saved_matrix(self, tmp_path, n, batch_size):
        docs = synthetic_docs(n)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(docs, corpus)
        client = MockEmbedderClient(dim=32)
        client.batch_size = batch_size
        cache = cache_embeddings(client, corpus, tmp_path / "c.emb", load=False)
        assert load_cache(tmp_path / "c.emb").ids == [d.id for d in docs] and cache is None
        assert client.calls == -(-n // batch_size)
        if docs:
            matrix = embed_texts(MockEmbedderClient(dim=32), [d.indexed_text for d in docs])
        else:
            matrix = np.zeros((0, 32), dtype=np.float32)
        fingerprint = cache_fingerprint(client, corpus_file_digest(corpus))
        embed.save_cache(EmbeddingCache(ids=[d.id for d in docs], matrix=matrix), tmp_path / "saved.emb", fingerprint)
        assert (tmp_path / "c.emb").read_bytes() == (tmp_path / "saved.emb").read_bytes()

    @pytest.mark.parametrize("error", [ProtocolError, TransportError])
    def test_an_embedder_failing_at_batch_k_leaves_the_old_cache(self, tmp_path, error):
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(synthetic_docs(4, seed=1), corpus)
        cache_embeddings(MockEmbedderClient(dim=32), corpus, path)
        before = path.read_bytes()
        write_corpus(synthetic_docs(10, seed=2), corpus)  # another fingerprint: the next run rebuilds
        client = MockEmbedderClient(dim=32)
        client.batch_size = 3
        embed_batch, sent = client.embed_batch, []

        def fail_at_third_batch(texts):
            sent.append(texts)
            if len(sent) >= 3:
                raise error("embedder down")
            return embed_batch(texts)

        client.embed_batch = fail_at_third_batch
        for load in (True, False):
            sent.clear()
            with pytest.raises(error) as excinfo:
                cache_embeddings(client, corpus, path, load=load)
            # a ProtocolError is never retried; a TransportError is, until the retries are used up
            assert len(sent) == (3 if error is ProtocolError else 2 + client.max_retries + 1)
            if error is TransportError:
                assert excinfo.value.attempts == client.max_retries + 1
            assert path.read_bytes() == before
            assert not list(tmp_path.glob("*.part"))

    def test_a_corpus_edited_during_the_build_commits_nothing(self, tmp_path):
        docs = synthetic_docs(6, seed=3)
        edited = docs[:2] + [Document(docs[2].id, "an edited text")] + docs[3:]
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        client = MockEmbedderClient(dim=32)
        client.batch_size = 2
        embed_batch = client.embed_batch

        def edit_on_the_first_batch(texts):
            if client.calls == 0:
                write_corpus(edited, corpus)  # a new file: the open second read still sees the old bytes
            return embed_batch(texts)

        client.embed_batch = edit_on_the_first_batch
        for load in (True, False):
            write_corpus(docs, corpus)
            client.calls = 0
            with pytest.raises(ValidationError, match=r"corpus file .*corpus\.jsonl changed while its embedding cache"):
                cache_embeddings(client, corpus, path, load=load)
            assert client.calls == 3  # every batch was embedded before the file was hashed again
            assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]  # no cache, no .part
        # a rerun builds a cache whose fingerprint names the edited bytes
        fresh = MockEmbedderClient(dim=32)
        rebuilt = cache_embeddings(fresh, corpus, path)
        fingerprint = cache_fingerprint(fresh, corpus_file_digest(corpus))
        assert load_cache(path, fingerprint=fingerprint).ids == rebuilt.ids == [d.id for d in edited]
        assert rebuilt.row(docs[2].id).tobytes() == embed_text(fresh, "an edited text").tobytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda docs: docs[:3] + [Document("elsewhere", docs[3].text)] + docs[4:],
             r"_id 'elsewhere' is not 'd0003', row 3 of the corpus's first read in corpus\.jsonl \(line 4\)$"),
            (lambda docs: docs + [Document("extra", "one more record")],
             r"_id 'extra' is past the 6 rows of the corpus's first read in corpus\.jsonl \(line 7\)$"),
            (lambda docs: docs[:5], r"corpus\.jsonl holds 5 records, its first read 6 rows$"),
        ],
        ids=["moved_id", "added_record", "removed_record"],
    )
    def test_a_record_that_changed_between_the_reads_names_the_file_and_line(self, tmp_path, monkeypatch, edit, message):
        docs = synthetic_docs(6, seed=3)
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(docs, corpus)
        read_corpus = embed.read_corpus

        def edit_before_the_second_read(corpus_path, *args):
            if args:  # the second read, checked against the first read's ids
                write_corpus(edit(docs), corpus)
            return read_corpus(corpus_path, *args)

        monkeypatch.setattr(embed, "read_corpus", edit_before_the_second_read)
        client = MockEmbedderClient(dim=32)
        client.batch_size = 2
        with pytest.raises(ValidationError, match=message):
            cache_embeddings(client, corpus, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_a_bad_record_stops_a_cold_build_before_any_request(self, tmp_path):
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(synthetic_docs(6, seed=3), corpus)
        with corpus.open("a", encoding="utf-8") as fh:
            fh.write('{"_id": "d0001", "text": "a repeated id"}\n')
        client = MockEmbedderClient(dim=32)
        client.batch_size = 2
        with pytest.raises(ValidationError, match=r"duplicate _id 'd0001' in corpus\.jsonl \(line 7\)$"):
            cache_embeddings(client, corpus, path)
        assert client.calls == 0 and not path.exists()

    def test_memory_of_a_cold_build_grows_with_the_corpus_by_its_ids_only(self, tmp_path):
        client = MockEmbedderClient(dim=64)
        client.batch_size = 500
        peaks = {}
        for n in (2000, 8000):  # 4 and 16 batches
            corpus = tmp_path / f"corpus{n}.jsonl"
            write_corpus(synthetic_docs(n, seed=n), corpus)
            cache_embeddings(client, corpus, tmp_path / "warm.emb", load=False)  # warms the memo: it no longer grows
            tracemalloc.start()
            try:
                cache_embeddings(client, corpus, tmp_path / f"c{n}.emb", load=False)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # A document's ids: its id string, its slot in the ids list, its line
        # in the ids block and, while the first read checks for repeats, its
        # entry in the set of ids seen. Parsing the corpus into a store first
        # held every text and Document: 447 bytes a document.
        assert (peaks[8000] - peaks[2000]) / 6000 < 128

    def test_concurrent_cold_builders_both_commit_the_same_bytes(self, tmp_path):
        docs = synthetic_docs(40)
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(docs, corpus)
        both_writing = threading.Barrier(2, timeout=30)

        def build(load):
            client = MockEmbedderClient(dim=32)
            client.batch_size = 8
            embed_batch = client.embed_batch

            def first_batch_waits(texts):
                if client.calls == 0:  # both builders hold their temp file before either sends a request
                    both_writing.wait()
                return embed_batch(texts)

            client.embed_batch = first_batch_waits
            return client, cache_embeddings(client, corpus, path, load=load)

        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(build, [True, False]))
        assert all(client.calls > 0 for client, _ in results)  # both built: neither found the other's file
        expected = embed_texts(MockEmbedderClient(dim=32), [d.indexed_text for d in docs])
        assert results[0][1].matrix.tobytes() == expected.tobytes()
        assert load_cache(path).matrix.tobytes() == expected.tobytes()
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("c.emb")] == ["c.emb"]

    def test_cold_embed_corpus_holds_one_batch_not_the_matrix(self, tmp_path):
        n, dim, batch = 4096, 256, 256
        rows = np.random.default_rng(5).normal(size=(n, dim)).astype(np.float32)
        client, _ = _serving([rows[start : start + batch] for start in range(0, n, batch)], dim=dim, batch_size=batch)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(synthetic_docs(n), corpus)
        tracemalloc.start()
        try:
            # what the parsed store and its texts keep
            store = load_corpus(corpus)
            texts = [doc.indexed_text for doc in store]
            kept, _ = tracemalloc.get_traced_memory()
            del store, texts
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            cache = cache_embeddings(client, corpus, tmp_path / "c.emb", load=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache is None and len(load_cache(tmp_path / "c.emb")) == n
        expected = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        assert load_cache(tmp_path / "c.emb").matrix.tobytes() == expected.tobytes()
        # a batch, its temporaries and the ids block; holding the matrix took it past 4 MB
        assert peak - base - kept < rows.nbytes / 2

    def test_cold_build_of_a_titled_corpus_holds_one_batch_of_its_texts(self, tmp_path):
        n, batch = 2048, 128
        docs = [Document(id=doc.id, text=doc.text, title=f"{doc.id} " * 40) for doc in synthetic_docs(n)]
        rows = np.random.default_rng(7).normal(size=(n, 8)).astype(np.float32)
        client = MockEmbedderClient(dim=8)
        client.batch_size = batch

        def embed_batch(texts):  # keeps no text, unlike `_serving`
            client.calls += 1
            return rows[(client.calls - 1) * batch : client.calls * batch]

        client.embed_batch = embed_batch
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(docs, corpus)
        # a titled document's indexed text is a new string per call
        titled = sum(sys.getsizeof(doc.indexed_text) for doc in docs)
        tracemalloc.start()
        try:
            store = load_corpus(corpus)
            kept, _ = tracemalloc.get_traced_memory()
            del store
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            cache_embeddings(client, corpus, tmp_path / "c.emb", load=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert client.calls == n // batch
        expected = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        assert load_cache(tmp_path / "c.emb").matrix.tobytes() == expected.tobytes()
        # above the parsed store: one batch of texts (a sixteenth of them), its
        # rows and the ids, 0.16 MB measured against the titled texts' 1.03 MB;
        # every text at once took it to 1.10 MB
        assert peak - base - kept < titled / 4

    def test_warm_embed_corpus_checks_the_file_without_the_matrix(self, tmp_path, caplog):
        n, dim = 4096, 256
        rows = np.random.default_rng(6).normal(size=(n, dim)).astype(np.float32)
        client, _ = _serving([rows], dim=dim, batch_size=n)
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(synthetic_docs(n), corpus)
        cache_embeddings(client, corpus, path, load=False)
        client.embed_batch = lambda texts: pytest.fail("a warm cache was embedded again")
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            with caplog.at_level(logging.INFO):
                result = cache_embeddings(client, corpus, path, load=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is None
        assert "reusing embedding cache" in caplog.text
        # the corpus digest's buffer, one block of rows and the ids; loading the rows took it past 4 MB
        assert peak - base < rows.nbytes / 2
        # the warm check makes load_cache's checks: a non-finite last value is found and rebuilt
        blob = bytearray(path.read_bytes())
        rows_end = embed._HEADER.size + rows.nbytes
        blob[rows_end - 4 : rows_end] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        client.embed_batch = lambda texts: rows
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            cache_embeddings(client, corpus, path, load=False)
        assert "rebuilding embedding cache" in caplog.text and "contains non-finite values" in caplog.text
        expected = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        assert load_cache(path).matrix.tobytes() == expected.tobytes()  # the rebuilt file

    def test_finiteness_check_needs_no_mask_of_the_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4000, 256)).astype(np.float32)
        path = tmp_path / "c.emb"
        embed.save_cache(EmbeddingCache(ids=[f"d{i:04d}" for i in range(4000)], matrix=rows), path, b"\0" * 32)
        rows_end = embed._HEADER.size + rows.nbytes
        tracemalloc.start()
        try:
            # what the ids alone cost: the read of the file's ids block and the cache's id order
            with path.open("rb") as fh:
                fh.seek(rows_end)
                tail = fh.read()
            EmbeddingCache(ids=tail.decode("utf-8").split("\n")[:-1], matrix=rows[:, :0])
            _, ids_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_cache(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.matrix.tobytes() == rows.tobytes()
        # a whole-matrix bool mask would add a quarter of the rows
        assert peak <= 1.05 * rows.nbytes + ids_peak
        # a non-finite value in the last row block is still found, by both checks
        blob = bytearray(path.read_bytes())
        blob[rows_end - 4 : rows_end] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="contains non-finite values"):
            load_cache(path)
        rows[-1, -1] = np.inf
        client = MockEmbedderClient(dim=256)
        client.batch_size = len(rows)
        client.embed_batch = lambda texts: rows[: len(texts)]
        with pytest.raises(ProtocolError, match="embedder returned non-finite values"):
            embed_texts(client, [f"text {i}" for i in range(4000)])

    def test_padded_file_is_format_error(self, tmp_path, mock_emb):
        store = CorpusStore(synthetic_docs(5))
        path = tmp_path / "c.emb"
        cache_docs(mock_emb, store, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="padded"):
            load_cache(path)

    def test_truncated_file_is_format_error(self, tmp_path, mock_emb):
        store = CorpusStore(synthetic_docs(5))
        path = tmp_path / "c.emb"
        cache_docs(mock_emb, store, path)
        blob = path.read_bytes()
        rows_end = embed._HEADER.size + 5 * mock_emb.dim * 4
        # a cut into the ids block, and one into the rows
        for size in (len(blob) - 7, rows_end - 4):
            path.write_bytes(blob[:size])
            with pytest.raises(FormatError, match="truncated"):
                load_cache(path)

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "c.emb"
        path.write_bytes(b"WRONG" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic b'WRONG'"):
            load_cache(path)

    def test_non_finite_payload_is_format_error(self, tmp_path, mock_emb):
        store = CorpusStore(synthetic_docs(2))
        path = tmp_path / "c.emb"
        cache_docs(mock_emb, store, path)
        blob = bytearray(path.read_bytes())
        header = embed._HEADER.size
        blob[header : header + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_cache(path)

    def test_reuse_skips_reembedding(self, tmp_path):
        store = CorpusStore(synthetic_docs(10))
        path = tmp_path / "c.emb"
        first_client = MockEmbedderClient(dim=64)
        cache_docs(first_client, store, path)
        assert first_client.calls > 0
        second_client = MockEmbedderClient(dim=64)
        cache = cache_docs(second_client, store, path)
        assert second_client.calls == 0  # call-count oracle: nothing re-embedded
        assert cache.ids == store.ids

    def test_corrupted_cache_rebuilt_with_warning(self, tmp_path, caplog):
        store = CorpusStore(synthetic_docs(4))
        path = tmp_path / "c.emb"
        client = MockEmbedderClient(dim=32)
        cache_docs(client, store, path)
        path.write_bytes(b"garbage")
        fresh = MockEmbedderClient(dim=32)
        with caplog.at_level(logging.WARNING):
            cache = cache_docs(fresh, store, path)
        assert fresh.calls > 0
        assert len(cache) == 4
        assert any("rebuild" in record.message.lower() for record in caplog.records)

    def test_stale_ids_rebuilt(self, tmp_path):
        client = MockEmbedderClient(dim=32)
        path = tmp_path / "c.emb"
        cache_docs(client, CorpusStore(synthetic_docs(4, seed=1)), path)
        fresh = MockEmbedderClient(dim=32)
        other = CorpusStore(synthetic_docs(5, seed=2))
        cache = cache_docs(fresh, other, path)
        assert fresh.calls > 0
        assert cache.ids == other.ids

    def test_text_edit_with_same_ids_rebuilt(self, tmp_path, caplog):
        docs = synthetic_docs(4)
        path = tmp_path / "c.emb"
        cache_docs(MockEmbedderClient(dim=32), CorpusStore(docs), path)
        edited = list(docs)
        edited[2] = Document(id=docs[2].id, text=docs[2].text + " amended", title=docs[2].title)
        fresh = MockEmbedderClient(dim=32)
        with caplog.at_level(logging.WARNING):
            cache = cache_docs(fresh, CorpusStore(edited), path)
        assert fresh.calls > 0
        assert cache.ids == [d.id for d in docs]
        assert np.array_equal(cache.row(docs[2].id), embed_text(fresh, edited[2].indexed_text))
        assert "fingerprint mismatch" in caplog.text

    @pytest.mark.parametrize(
        "changed",
        [
            {"truncate_chars": 16},
            {"overrides": {"pinned text": [1.0] + [0.0] * 31}},
        ],
        ids=["truncate_chars", "overrides"],
    )
    def test_embedder_setting_change_at_same_dim_rebuilt(self, tmp_path, caplog, changed):
        store = CorpusStore(synthetic_docs(4))
        path = tmp_path / "c.emb"
        cache_docs(MockEmbedderClient(dim=32), store, path)
        fresh = MockEmbedderClient(dim=32, **changed)
        with caplog.at_level(logging.WARNING):
            cache_docs(fresh, store, path)
        assert fresh.calls > 0
        assert "fingerprint mismatch" in caplog.text
        again = MockEmbedderClient(dim=32, **changed)
        cache_docs(again, store, path)
        assert again.calls == 0

    def test_fingerprint_covers_every_vector_setting(self):
        digest = bytes(32)

        def remote(**changed):
            settings = {"endpoint": "http://x", "model": "m", "dim": 8, "session": object()}
            return RemoteEmbedderClient(**{**settings, **changed})

        prints = [
            cache_fingerprint(client, corpus)
            for client, corpus in [
                (remote(), digest),
                (remote(model="other"), digest),
                (remote(truncate_chars=10), digest),
                (remote(dim=9), digest),
                (MockEmbedderClient(dim=8), digest),
                (remote(), b"\x01" * 32),
            ]
        ]
        assert len(set(prints)) == len(prints)
        # settings that do not change the vectors keep the fingerprint
        assert cache_fingerprint(remote(batch_size=3, endpoint="http://y"), digest) == prints[0]

    def test_edited_ids_block_is_detected_and_rebuilt(self, tmp_path, caplog):
        docs = synthetic_docs(4, seed=1)
        path = tmp_path / "c.emb"
        cache_docs(MockEmbedderClient(dim=32), docs, path)
        blob = path.read_bytes()
        edited = blob.replace(f"{docs[1].id}\n".encode(), f"{docs[1].id[:-1]}X\n".encode())
        assert len(edited) == len(blob) and edited != blob
        path.write_bytes(edited)
        with pytest.raises(FormatError, match="digest mismatch"):
            load_cache(path)
        fresh = MockEmbedderClient(dim=32)
        with caplog.at_level(logging.WARNING):
            cache = cache_docs(fresh, docs, path)
        assert fresh.calls > 0
        assert cache.ids == [d.id for d in docs]
        assert "digest mismatch" in caplog.text
        assert load_cache(path).ids == cache.ids
        assert path.read_bytes() == blob

    def test_ids_that_are_not_utf8_are_rebuilt(self, tmp_path, caplog):
        # the digest matches, so only the decode can tell
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "c.emb"
        write_corpus(synthetic_docs(1), corpus)
        client = MockEmbedderClient(dim=4)
        ids = b"\xff\n"
        header = embed._HEADER.pack(
            embed.CACHE_MAGIC, 4, 1, cache_fingerprint(client, corpus_file_digest(corpus)), hashlib.sha256(ids).digest()
        )
        path.write_bytes(header + np.ones(4, dtype="<f4").tobytes() + ids)
        with pytest.raises(FormatError, match="not UTF-8"):
            load_cache(path)
        for load in (False, True):
            with caplog.at_level(logging.WARNING):
                cache_embeddings(client, corpus, path, load=load)
            assert "rebuilding embedding cache" in caplog.text and "not UTF-8" in caplog.text
            assert load_cache(path).ids == [synthetic_docs(1)[0].id]  # the rebuilt file
            path.write_bytes(header + np.ones(4, dtype="<f4").tobytes() + ids)

    @pytest.mark.parametrize("corpus", ["warm", "failed"])
    def test_failed_write_leaves_the_old_cache(self, tmp_path, monkeypatch, caplog, corpus):
        warm = synthetic_docs(4, seed=1)
        failed = [Document(id=f"other-{d.id}", text=d.text) for d in synthetic_docs(4, seed=2)]
        path = tmp_path / "c.emb"
        cache_docs(MockEmbedderClient(dim=32), warm, path)
        before = path.read_bytes()
        replace = os.replace

        def fail_at_commit(src, dst):
            if Path(dst) == path:
                raise OSError("disk full")
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", fail_at_commit)
            with pytest.raises(OSError, match="disk full"):
                cache_docs(MockEmbedderClient(dim=32), failed, path)
        # the failed run left the old file and no partial one
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("c.emb")) == [
            "c.emb", "c.emb.corpus.jsonl"
        ]
        docs = warm if corpus == "warm" else failed
        fresh = MockEmbedderClient(dim=32)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            cache = cache_docs(fresh, docs, path)
        if corpus == "warm":
            assert fresh.calls == 0
            assert "rebuilding" not in caplog.text
        else:
            assert fresh.calls > 0
            assert "fingerprint mismatch" in caplog.text
        expected = embed_texts(MockEmbedderClient(dim=32), [d.indexed_text for d in docs])
        for served in (cache, load_cache(path)):
            assert served.ids == [d.id for d in docs]
            assert served.matrix.tobytes() == expected.tobytes()

    def test_reader_during_a_rebuild_gets_the_old_cache(self, tmp_path, monkeypatch, caplog):
        old_docs = synthetic_docs(4, seed=1)
        new_docs = [Document(id=f"new-{d.id}", text=d.text) for d in synthetic_docs(5, seed=2)]
        path = tmp_path / "c.emb"
        old = cache_docs(MockEmbedderClient(dim=32), old_docs, path)
        replace = os.replace
        read = []

        def read_then_replace(src, dst):
            if Path(dst) == path:
                # a reader that opens the cache while the rebuild is about to commit
                read.append(load_cache(path))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", read_then_replace)
        with caplog.at_level(logging.WARNING):
            new = cache_docs(MockEmbedderClient(dim=32), new_docs, path)
        assert "fingerprint mismatch" in caplog.text
        assert len(read) == 1
        assert read[0].ids == old.ids and read[0].matrix.tobytes() == old.matrix.tobytes()
        assert load_cache(path).ids == new.ids == [d.id for d in new_docs]

    def test_a_warm_cache_is_reused_without_parsing_the_corpus(self, tmp_path, monkeypatch):
        docs = synthetic_docs(5)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(docs, corpus)
        path = tmp_path / "c.emb"
        reads = []
        read_corpus = embed.read_corpus
        monkeypatch.setattr(embed, "read_corpus", lambda *args: reads.append(args) or read_corpus(*args))
        built = cache_embeddings(MockEmbedderClient(dim=32), corpus, path)
        assert built.ids == [d.id for d in docs]
        assert len(reads) == 2  # cold: once for the ids, once more to embed
        monkeypatch.setattr(embed, "read_corpus", lambda *args: pytest.fail("a warm cache parsed the corpus"))
        reused = cache_embeddings(MockEmbedderClient(dim=32), corpus, path)
        assert reused.ids == built.ids and reused.matrix.tobytes() == built.matrix.tobytes()

    @pytest.mark.parametrize("magic", [b"SLHE1", b"SLHE2"])
    def test_earlier_format_is_rebuilt(self, tmp_path, caplog, magic):
        store = CorpusStore(synthetic_docs(3))
        client = MockEmbedderClient(dim=32)
        rows = embed_texts(client, [d.indexed_text for d in store])
        path = tmp_path / "c.emb"
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(store, corpus)
        ids = "".join(f"{i}\n" for i in store.ids).encode()
        header = struct.pack("<5sIQ", magic, 32, 3)
        if magic == b"SLHE2":  # the current fingerprint: only the format is old
            header += cache_fingerprint(client, corpus_file_digest(corpus)) + hashlib.sha256(ids).digest()
        path.write_bytes(header + rows.astype("<f4").tobytes())
        (tmp_path / "c.emb.ids").write_bytes(ids)
        with pytest.raises(FormatError, match=f"magic {magic!r}"):
            load_cache(path)
        fresh = MockEmbedderClient(dim=32)
        with caplog.at_level(logging.WARNING):
            cache = cache_embeddings(fresh, corpus, path)
        assert fresh.calls > 0
        assert repr(magic) in caplog.text
        assert path.read_bytes()[:5] == b"SLHE3"
        assert load_cache(path).ids == cache.ids == store.ids
        assert not (tmp_path / "c.emb.ids").exists()

    def test_cache_row_lookup(self, tmp_path, mock_emb):
        store = CorpusStore(synthetic_docs(6))
        cache = cache_docs(mock_emb, store, tmp_path / "c.emb")
        doc = store[2]
        assert np.array_equal(cache.row(doc.id), cache.matrix[2])
        with pytest.raises(ValidationError):
            cache.row("missing")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingCache(ids=["a", "a"], matrix=np.zeros((2, 4), dtype=np.float32))

    def test_empty_corpus_cache(self, tmp_path, mock_emb):
        store = CorpusStore([])
        cache = cache_docs(mock_emb, store, tmp_path / "c.emb")
        assert len(cache) == 0
        loaded = load_cache(tmp_path / "c.emb")
        assert len(loaded) == 0 and loaded.dim == mock_emb.dim


# ids with shared prefixes, digit runs and non-ASCII characters (outside the
# BMP too), whose code-point order is not their order by number or length
_ID_PARTS = st.sampled_from(["doc", "doc-", "d", "0", "9", "10", "007", "é", "ß", "中文", "\U0001d11e", "-"])
_IDS = st.lists(_ID_PARTS, min_size=1, max_size=4).map("".join) | st.text(min_size=1, max_size=5)


def _cache_of(ids):
    return EmbeddingCache(ids=ids, matrix=np.arange(2.0 * len(ids), dtype=np.float32).reshape(len(ids), 2))


class TestIdOrder:
    @given(ids=st.lists(_IDS, unique=True, max_size=40), probes=st.lists(_IDS, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_lookups_and_tie_ranks_match_a_dict_and_sorted(self, ids, probes):
        cache = _cache_of(list(ids))
        positions = {doc_id: pos for pos, doc_id in enumerate(ids)}
        for doc_id in ids + probes:
            assert (doc_id in cache) == (doc_id in positions)
            if doc_id in positions:
                assert cache.position(doc_id) == positions[doc_id]
                assert cache.row(doc_id).tobytes() == cache.matrix[positions[doc_id]].tobytes()
            else:
                for lookup in (cache.position, cache.row):
                    with pytest.raises(ValidationError) as err:
                        lookup(doc_id)
                    assert str(err.value) == f"unknown id {doc_id!r}"
        ascending = sorted(ids)
        assert [ids[pos] for pos in cache.id_order.tolist()] == ascending
        rank = {doc_id: r for r, doc_id in enumerate(ascending)}
        assert DenseIndex(cache)._id_rank.tolist() == [rank[doc_id] for doc_id in ids]

    @given(ids=st.lists(_IDS, min_size=1, max_size=30), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_duplicate_is_named_as_a_dict_of_positions_names_it(self, ids, data):
        ids = data.draw(st.permutations(ids + [data.draw(st.sampled_from(ids))]))
        seen, repeated = set(), None
        for doc_id in ids:
            if doc_id in seen:
                repeated = doc_id  # the first id to repeat, in row order
                break
            seen.add(doc_id)
        with pytest.raises(ValidationError) as err:
            _cache_of(ids)
        assert str(err.value) == f"duplicate id {repeated!r} in cache"

    def test_loaded_cache_holds_few_bytes_per_id_beyond_its_rows_and_id_strings(self, tmp_path):
        n = 20_000
        path = tmp_path / "c.emb"
        rows = np.random.default_rng(5).normal(size=(n, 8)).astype(np.float32)
        # not in ascending order: ids shuffled as a corpus's may be
        ids = [f"doc-{i:06d}" for i in np.random.default_rng(6).permutation(n).tolist()]
        embed.save_cache(EmbeddingCache(ids=ids, matrix=rows), path, b"\0" * 32)
        tracemalloc.start()
        try:
            cache = load_cache(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond = held - cache.matrix.nbytes - sum(sys.getsizeof(doc_id) for doc_id in cache.ids)
        # the ids list (8 bytes an id) and the int64 id order (8 more), about
        # 16; with a dict of positions instead of the order it was 56
        assert beyond / n < 24
        assert cache.position(ids[123]) == 123
