"""Okapi BM25 lexical index with a CJK-aware tokenizer.

`Bm25Settings` is the `bm25` config section: k1 (>= 0, default 0.9), b (in
[0, 1], default 0.4) and the tokenizer; `Bm25Index.build` takes it. IDF is
the Lucene-style ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly
positive, so only documents containing at least one query term can appear
in results.

An index answers the queries it was built for: `Bm25Index.build` takes
their texts, tokenizes each once, and keeps each text's slots. A document
adds postings for those slots only; document lengths, the average length and
document frequencies still count every token, so the scores are those of an
index over every term. Searching with a text the index was not built for is
a ValidationError that names it.

The index is columnar: an int64 offsets array and flat int32 `positions` and
`tfs` arrays holding every slot's postings in document order, about 8 bytes
per posting (per-term lists of (position, tf) tuples took about 135). The
part of the score's denominator that depends only on the document is
computed once per document. A search adds each matching posting's term to
its document's score one at a time, in query-token order and with the scalar
formula's operations in their order, so the scores are bitwise those of the
tuple-list index.

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
        if not self.k1 >= 0:
            raise ValidationError(f"bm25.k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValidationError(f"bm25.b must be in [0, 1], got {self.b}")
        if self.tokenizer not in TOKENIZERS:
            raise ValidationError(f"bm25.tokenizer {self.tokenizer!r} is not one of {TOKENIZERS}")


class Bm25Index:
    """Inverted index in columns: `query_slots` maps each query text the index
    was built for to its tokens' slots, in token order and with multiplicity,
    and the postings of slot s are positions[offsets[s]:offsets[s + 1]]
    (document positions, ascending) with the matching term frequencies in
    `tfs`. A slot that no document holds has an empty range."""

    def __init__(
        self,
        ids: list[str],
        query_slots: dict[str, tuple[int, ...]],
        offsets: np.ndarray,
        positions: np.ndarray,
        tfs: np.ndarray,
        doc_lens: np.ndarray,
        settings: Bm25Settings,
    ):
        self.ids = ids  # the store's own list, not a copy
        self.query_slots = query_slots
        self.offsets = offsets
        self.positions = positions
        self.tfs = tfs
        self.settings = settings
        avgdl = (int(doc_lens.sum()) / len(doc_lens)) if len(doc_lens) else 0.0
        k1, b = settings.k1, settings.b
        # k1 * (1 - b + b * |d| / avgdl) per document, the term of the score's
        # denominator that does not depend on the query.
        self.length_norm = k1 * (1.0 - b + b * doc_lens / avgdl) if avgdl else np.zeros(len(doc_lens))

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, store: CorpusStore, settings: Bm25Settings, queries: list[str]) -> "Bm25Index":
        """The index of `store` for the query texts `queries`. The slots are
        the queries' tokens in first-occurrence order; the term-to-slot map
        is dropped on return."""
        vocab: dict[str, int] = {}
        query_slots: dict[str, tuple[int, ...]] = {}
        for text in queries:
            if text not in query_slots:
                tokens = tokenize(text, settings.tokenizer)
                query_slots[text] = tuple(vocab.setdefault(token, len(vocab)) for token in tokens)
        slots, tfs, doc_lens, doc_terms = array("i"), array("i"), array("i"), array("i")
        for doc in store:
            tokens = tokenize(doc.indexed_text, settings.tokenizer)
            counts = Counter(tokens)
            doc_lens.append(len(tokens))
            # the order of a document's terms is free: the sort by slot below fixes it
            kept = counts.keys() & vocab.keys()
            slots.extend(vocab[term] for term in kept)
            tfs.extend(counts[term] for term in kept)
            doc_terms.append(len(kept))
        slots_arr = np.frombuffer(slots, dtype=np.int32)
        # A stable sort by slot keeps each term's postings in document order.
        order = np.argsort(slots_arr, kind="stable")
        offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(slots_arr, minlength=len(vocab)), out=offsets[1:])
        positions = np.repeat(np.arange(len(doc_lens), dtype=np.int32), np.frombuffer(doc_terms, dtype=np.int32))
        return cls(
            store.ids,
            query_slots,
            offsets,
            positions[order],
            np.frombuffer(tfs, dtype=np.int32)[order],
            np.frombuffer(doc_lens, dtype=np.int32),
            settings,
        )


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
    scores: dict[int, float] = {}
    k1, n_docs = index.settings.k1, len(index)
    for slot in slots:
        lo, hi = index.offsets[slot : slot + 2].tolist()
        idf = math.log(1.0 + (n_docs - (hi - lo) + 0.5) / ((hi - lo) + 0.5))
        positions = index.positions[lo:hi]
        for pos, tf, norm in zip(positions.tolist(), index.tfs[lo:hi].tolist(), index.length_norm[positions].tolist()):
            scores[pos] = scores.get(pos, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.ids[item[0]]))[:k]
    return RankedHits(ids=[index.ids[pos] for pos, _ in ranked], scores=[score for _, score in ranked])
