"""Okapi BM25 lexical index with a CJK-aware tokenizer.

`Bm25Settings` is the `bm25` config section: k1 (>= 0, default 0.9), b (in
[0, 1], default 0.4) and the tokenizer; `Bm25Index.build` takes it. IDF is
the Lucene-style ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly
positive, so only documents containing at least one query term can appear
in results.

The default "cjk" tokenizer lowercases and splits on non-word characters,
then expands runs of CJK characters into unigrams plus bigrams (the standard
label-free segmentation); it is a no-op for pure-Latin text. "simple" keeps
whole word tokens only.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .corpus import CorpusStore
from .errors import ValidationError
from .retrieval import RankedHits

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

TOKENIZERS = ("cjk", "simple")


# The three ranges of _is_cjk as one character class: one search per word.
_CJK_RE = re.compile("[\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff]")


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return (
        0x4E00 <= code <= 0x9FFF
        or 0x3400 <= code <= 0x4DBF
        or 0xF900 <= code <= 0xFAFF
    )


def _expand_cjk(word: str) -> list[str]:
    tokens: list[str] = []
    run: list[str] = []

    def flush_run():
        if not run:
            return
        tokens.extend(run)
        tokens.extend(run[i] + run[i + 1] for i in range(len(run) - 1))
        run.clear()

    buffer = []
    for ch in word:
        if _is_cjk(ch):
            if buffer:
                tokens.append("".join(buffer))
                buffer = []
            run.append(ch)
        else:
            flush_run()
            buffer.append(ch)
    flush_run()
    if buffer:
        tokens.append("".join(buffer))
    return tokens


def tokenize(text: str, mode: str = "cjk") -> list[str]:
    if mode not in TOKENIZERS:
        raise ValidationError(f"unknown tokenizer {mode!r}")
    words = _WORD_RE.findall(text.lower())
    if mode == "simple":
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
    """Inverted index with postings (doc position, term frequency) in doc order."""

    def __init__(
        self,
        ids: list[str],
        postings: dict[str, list[tuple[int, int]]],
        doc_lens: list[int],
        settings: Bm25Settings,
    ):
        self.ids = list(ids)
        self.postings = postings
        self.doc_lens = list(doc_lens)
        self.settings = settings
        self.avgdl = (sum(self.doc_lens) / len(self.doc_lens)) if self.doc_lens else 0.0

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, store: CorpusStore, settings: Bm25Settings = Bm25Settings()) -> "Bm25Index":
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lens = []
        for pos, doc in enumerate(store):
            tokens = tokenize(doc.indexed_text, settings.tokenizer)
            doc_lens.append(len(tokens))
            for term, tf in Counter(tokens).items():
                postings.setdefault(term, []).append((pos, tf))
        return cls(store.ids, postings, doc_lens, settings)

    def idf(self, term: str) -> float:
        plist = self.postings.get(term)
        if not plist:
            return 0.0
        df = len(plist)
        return math.log(1.0 + (len(self.ids) - df + 0.5) / (df + 0.5))


def bm25_search(index: Bm25Index, query_text: str, k: int) -> RankedHits:
    """Okapi BM25 top-k; query terms score with multiplicity; dense tie rule."""
    if len(index) == 0:
        raise ValidationError("cannot search an empty index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    scores: dict[int, float] = {}
    k1, b, avgdl = index.settings.k1, index.settings.b, index.avgdl
    for term in tokenize(query_text, index.settings.tokenizer):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for pos, tf in plist:
            denom = tf + k1 * (1.0 - b + b * index.doc_lens[pos] / avgdl)
            scores[pos] = scores.get(pos, 0.0) + idf * tf * (k1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.ids[item[0]]))[:k]
    return RankedHits(ids=[index.ids[pos] for pos, _ in ranked], scores=[score for _, score in ranked])
