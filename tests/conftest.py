"""Shared synthetic-data builders and fixtures."""
from __future__ import annotations

import functools
import string
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from slhyde.corpus import CorpusStore, Document, Query, write_corpus
from slhyde.embed import EmbeddingCache, MockEmbedderClient, cache_embeddings
from slhyde.retrieval import DenseIndex

LETTERS = np.array(list(string.ascii_lowercase))

# Short texts that are never blank, for property tests that embed them.
WORDS = st.text(alphabet="abcdefghij klmnop", min_size=1, max_size=40).filter(str.strip)


def random_token(rng: np.random.Generator, length: int = 8) -> str:
    return "".join(rng.choice(LETTERS, size=length))


def synthetic_docs(
    n: int,
    seed: int = 0,
    anchors_per_doc: int = 3,
    shared_vocab: int = 12,
    extra_tokens: int = 6,
) -> list[Document]:
    """Documents with distinctive anchor tokens plus shared filler.

    Anchors are random 8-char strings unique to each document, so the trigram
    mock embedder separates documents well while the filler gives realistic
    overlap.
    """
    rng = np.random.default_rng(seed)
    filler = [random_token(rng) for _ in range(shared_vocab)]
    docs = []
    for i in range(n):
        anchors = [random_token(rng) for _ in range(anchors_per_doc)]
        extra = [random_token(rng) for _ in range(extra_tokens)]
        tokens = anchors * 2 + list(rng.permutation(filler)) + extra
        docs.append(Document(id=f"d{i:04d}", text=" ".join(tokens)))
    return docs


def queries_for_docs(
    docs: list[Document],
    seed: int = 1,
    anchor_tokens: int = 1,
    noise_tokens: int = 3,
) -> list[Query]:
    """One query per document: a few of its tokens plus random noise."""
    rng = np.random.default_rng(seed)
    queries = []
    for i, doc in enumerate(docs):
        tokens = doc.text.split()
        picked = list(tokens[:anchor_tokens])
        picked += [random_token(rng) for _ in range(noise_tokens)]
        queries.append(Query(id=f"q{i:04d}", text=" ".join(picked)))
    return queries


# CJK Unified Ideographs; the i-th commonest character or word of the CJK
# generator below has frequency proportional to i ** -ZIPF_EXPONENT.
IDEOGRAPHS = np.array([chr(code) for code in range(0x4E00, 0xA000)])
ZIPF_EXPONENT = 1.1


def zipf_weights(count: int) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return weights / weights.sum()


def cjk_dataset(
    n: int,
    seed: int = 0,
    characters: int = 1000,
    vocabulary: int = 400,
    common_words: int = 18,
    noise_words: int = 3,
) -> tuple[list[Document], list[Query]]:
    """(documents, one query per document) of space-separated CJK words, the
    script of CMIRB's Chinese text, so that common terms (and the unigrams and
    bigrams `bm25.tokenize` cuts them into) occur in many documents.

    A vocabulary of 2-character words is drawn from `characters` seeded
    ideographs with Zipf character frequencies. A document is three anchors,
    each two vocabulary words drawn uniformly and written as one 4-character
    word that no other document has, each anchor twice, then `common_words`
    words drawn from the vocabulary with Zipf frequencies; its query is its
    first anchor and `noise_words` such words.
    """
    rng = np.random.default_rng(seed)
    chars = rng.permutation(IDEOGRAPHS)[:characters]
    char_weights = zipf_weights(characters)
    words = np.array(["".join(rng.choice(chars, size=2, p=char_weights)) for _ in range(vocabulary)])
    word_weights = zipf_weights(vocabulary)
    anchors: set[str] = set()

    def anchor() -> str:
        while (text := "".join(rng.choice(words, size=2))) in anchors:
            pass
        anchors.add(text)
        return text

    docs, queries = [], []
    for i in range(n):
        doc_anchors = [anchor() for _ in range(3)]
        body = doc_anchors * 2 + rng.choice(words, size=common_words, p=word_weights).tolist()
        docs.append(Document(id=f"d{i:04d}", text=" ".join(body)))
        noise = rng.choice(words, size=noise_words, p=word_weights).tolist()
        queries.append(Query(id=f"q{i:04d}", text=" ".join([doc_anchors[0]] + noise)))
    return docs, queries


def cache_docs(client, docs, path) -> EmbeddingCache:
    """The cache `cache_embeddings` gives for `docs` written as a corpus file
    next to `path`: the same reuse-or-build path every CLI command takes."""
    corpus = Path(f"{path}.corpus.jsonl")
    write_corpus(docs, corpus)
    return cache_embeddings(client, corpus, path)


@pytest.fixture
def mock_emb():
    return MockEmbedderClient(dim=256)


@pytest.fixture
def small_store():
    return CorpusStore(synthetic_docs(30, seed=7))


@pytest.fixture
def small_index(tmp_path, mock_emb, small_store):
    return DenseIndex(cache_docs(mock_emb, small_store, tmp_path / "small.emb"))


class StubEndpoint:
    """A requests.Session stand-in whose every POST answers with its
    `status_code`, the response headers `reply_headers`, and as JSON
    `payload`, or `payload(request body)` when that is callable; a None
    payload is a body that is not JSON. `headers` holds each request's
    headers, one entry per request."""

    def __init__(self, payload, status_code=200, reply_headers=None):
        self.payload = payload
        self.status_code = status_code
        self.reply_headers = reply_headers or {}
        self.headers = []

    def post(self, url, json, timeout, headers):
        self.headers.append(headers)
        return types.SimpleNamespace(
            status_code=self.status_code, headers=self.reply_headers, json=functools.partial(self._json, json)
        )

    def _json(self, body):
        payload = self.payload(body) if callable(self.payload) else self.payload
        if payload is None:
            raise ValueError("Expecting value: line 1 column 1 (char 0)")
        return payload
