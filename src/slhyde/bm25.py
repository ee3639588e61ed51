"""Okapi BM25 lexical index with a CJK-aware tokenizer.

`Bm25Settings` is the `bm25` config section: k1 (finite, >= 0, default 0.9),
b (in [0, 1], default 0.4) and the tokenizer; `Bm25Index.build` takes it. IDF
is the Lucene-style ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly
positive, so only documents containing at least one query term can appear
in results.

An index answers the queries it was built for: `Bm25Index.build` takes
their texts and keeps each text's slots, one per query term that some
document holds. Only those terms get postings; document lengths, the average
length and document frequencies still count every token, so the scores are
those of an index over every term. A query term that no document holds adds
nothing to any score and gets no slot. Searching with a text the index was
not built for is a ValidationError that names it.

The index is columnar: an int64 offsets array, and for every slot's postings
in document order an int32 `positions` column and a float64 `contrib` column,
12 bytes a posting (per-term lists of (position, tf) tuples took about 135).
The build scores each posting once: contrib is its term's whole share of the
document's score, idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl)),
evaluated with the scalar formula's IEEE operations in their order. A search
adds the contributions of the query's slots in query-token order, one dict
entry at a time for a query of at most `DENSE_POSTINGS` postings and one
vectorized addition a slot into a dense score array for a longer one; a
document's position is unique within a slot, so either way each document
gets the same additions in the same order, and the scores are bitwise those
of the tuple-list index.

The default "cjk" tokenizer lowercases and splits on non-word characters,
then expands runs of CJK characters into unigrams plus bigrams (the standard
label-free segmentation); it is a no-op for pure-Latin text. "simple" keeps
whole word tokens only.
"""
from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusStore
from .errors import ValidationError
from .retrieval import RankedHits

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

TOKENIZERS = ("cjk", "simple")

# A query whose slots hold more postings than this is scored into a dense array.
DENSE_POSTINGS = 64


# The CJK Unified Ideographs, Extension A and Compatibility Ideographs blocks.
_CJK_RE = re.compile("[\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff]")
_CJK_RUNS_RE = re.compile(f"({_CJK_RE.pattern}+)")


def _expand_cjk(word: str) -> list[str]:
    """Each CJK run of `word` as its unigrams and then its bigrams, and each
    piece between runs whole, in order."""
    tokens: list[str] = []
    # split keeps the runs (its group) at the odd positions
    for i, part in enumerate(_CJK_RUNS_RE.split(word)):
        if i % 2:
            tokens.extend(part)
            tokens.extend(part[j : j + 2] for j in range(len(part) - 1))
        elif part:
            tokens.append(part)
    return tokens


def tokenize(text: str, mode: str = "cjk") -> list[str]:
    if mode not in TOKENIZERS:
        raise ValidationError(f"unknown tokenizer {mode!r}")
    words = _WORD_RE.findall(text.lower())
    if mode == "simple" or text.isascii():  # ASCII text holds no CJK run
        return words
    tokens: list[str] = []
    for word in words:
        if _CJK_RE.search(word):
            tokens.extend(_expand_cjk(word))
        else:
            tokens.append(word)
    return tokens


@dataclass(frozen=True)
class Bm25Settings:
    k1: float = 0.9
    b: float = 0.4
    tokenizer: str = "cjk"

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:
            raise ValidationError(f"bm25.k1 must be finite and >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValidationError(f"bm25.b must be in [0, 1], got {self.b}")
        if self.tokenizer not in TOKENIZERS:
            raise ValidationError(f"bm25.tokenizer {self.tokenizer!r} is not one of {TOKENIZERS}")


class Bm25Index:
    """Inverted index in columns: `query_slots` maps each query text the index
    was built for to the slots of its tokens that some document holds, in
    token order and with multiplicity, and the postings of slot s are
    positions[offsets[s]:offsets[s + 1]] (document positions, ascending) with
    their score contributions in `contrib`. Every slot has postings."""

    def __init__(
        self,
        ids: list[str],
        query_slots: dict[str, tuple[int, ...]],
        offsets: np.ndarray,
        positions: np.ndarray,
        contrib: np.ndarray,
    ):
        self.ids = ids  # the store's own list, not a copy
        self.query_slots = query_slots
        self.offsets = offsets
        self.positions = positions
        self.contrib = contrib

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, store: CorpusStore, settings: Bm25Settings, queries: list[str]) -> "Bm25Index":
        """The index of `store` for the query texts `queries`. The queries'
        terms are held only while the documents are read; a term gets its
        slot from the first document that holds it."""
        query_slots: dict = dict.fromkeys(queries)  # each text's slots once the documents are read
        # each query term's slot, None until a document holds the term
        terms: dict[str, int | None] = dict.fromkeys(
            token for text in query_slots for token in tokenize(text, settings.tokenizer)
        )
        n_slots = 0
        slots, tfs, doc_lens, doc_terms = array("i"), array("i"), array("i"), array("i")
        for doc in store:
            tokens = tokenize(doc.indexed_text, settings.tokenizer)
            doc_lens.append(len(tokens))
            # the order of a document's terms is free: the sort by slot below fixes it
            counts = Counter(filter(terms.__contains__, tokens))
            for term in counts:
                if terms[term] is None:
                    terms[term] = n_slots
                    n_slots += 1
                slots.append(terms[term])
            tfs.extend(counts.values())
            doc_terms.append(len(counts))
        for text in query_slots:
            tokens = tokenize(text, settings.tokenizer)
            query_slots[text] = tuple(slot for token in tokens if (slot := terms[token]) is not None)
        del terms
        n_docs = len(doc_lens)
        lens = np.frombuffer(doc_lens, dtype=np.int32)
        avgdl = (int(lens.sum()) / n_docs) if n_docs else 0.0
        k1, b = settings.k1, settings.b
        # k1 * (1 - b + b * |d| / avgdl) per document, the term of the score's
        # denominator that does not depend on the query.
        length_norm = k1 * (1.0 - b + b * lens / avgdl) if avgdl else np.zeros(n_docs)
        slots_arr = np.frombuffer(slots, dtype=np.int32)
        # A stable sort by slot keeps each term's postings in document order.
        order = np.argsort(slots_arr, kind="stable")
        dfs = np.bincount(slots_arr, minlength=n_slots)
        offsets = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(dfs, out=offsets[1:])
        del slots_arr, slots
        positions = np.repeat(np.arange(n_docs, dtype=np.int32), np.frombuffer(doc_terms, dtype=np.int32))[order]
        tf = np.frombuffer(tfs, dtype=np.int32)[order]
        del order, tfs
        # idf * tf * (k1 + 1.0) / (tf + length_norm), operation by operation in
        # place (x + y is y + x bit for bit); math.log, not np.log, so that
        # every idf has the scalar formula's bits
        contrib = np.repeat([math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)) for df in dfs.tolist()], dfs)
        contrib *= tf
        contrib *= k1 + 1.0
        denominator = length_norm[positions]
        denominator += tf
        contrib /= denominator
        return cls(store.ids, query_slots, offsets, positions, contrib)


def bm25_search(index: Bm25Index, query_text: str, k: int) -> RankedHits:
    """Okapi BM25 top-k for a query text the index was built for; query terms
    score with multiplicity; dense tie rule."""
    if len(index) == 0:
        raise ValidationError("cannot search an empty index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    slots = index.query_slots.get(query_text)
    if slots is None:
        raise ValidationError(f"the BM25 index was not built for the query {query_text!r}")
    spans = [index.offsets[slot : slot + 2].tolist() for slot in slots]
    if sum(hi - lo for lo, hi in spans) <= DENSE_POSTINGS:
        scores: dict[int, float] = {}
        for lo, hi in spans:
            for pos, value in zip(index.positions[lo:hi].tolist(), index.contrib[lo:hi].tolist()):
                scores[pos] = scores.get(pos, 0.0) + value
    else:
        acc = np.zeros(len(index))
        for lo, hi in spans:  # positions are unique within a slot
            acc[index.positions[lo:hi]] += index.contrib[lo:hi]
        hit = np.flatnonzero(acc)  # every contribution is > 0
        if len(hit) > k:  # the k best and every score tied with the k-th
            kth = np.partition(acc[hit], len(hit) - k)[len(hit) - k]
            hit = hit[acc[hit] >= kth]
        scores = dict(zip(hit.tolist(), acc[hit].tolist()))
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.ids[item[0]]))[:k]
    return RankedHits(ids=[index.ids[pos] for pos, _ in ranked], scores=[score for _, score in ranked])
