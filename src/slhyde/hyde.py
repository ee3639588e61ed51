"""Hypothetical-document retrieval: generate, fuse, search.

`fuse_rows` is the one fusion rule, the unnormalized mean of a plan's own rows;
`fuse(emb, texts)` applies it to one embed_texts call, and self-learning to
each (query, pseudo-document) pair of its chunk's embed_texts call.

HyDE runs in two halves. `hypothesize` generates a query's hypothetical
documents and returns the texts its fusion strategy averages.
`search_hypothesized` takes a batch of such plans: it embeds every distinct
text in one embed_texts call, fuses each query as the mean of its own rows,
and searches all fused vectors with one search_many call. The CLI runs its
queries in chunks of 64, so a chunk costs one embed_texts call (one request
per embedder batch_size texts) and one search. `hyde_search` is the
one-query form of the two. Rows of a batch equal the rows of single calls, so
a query's vector, and its hits, do not depend on which queries share its
batch.

The mean is deliberately NOT renormalized: document vectors are unit length
and ranking is an argsort of inner products, so rescaling the query vector
cannot change the ordering (see the retrieval module's scale-invariance
property).
"""
from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Query
from .embed import embed_texts
from .errors import (
    DegenerateOutputError,
    TransportError,
    ValidationError,
)
from .retrieval import DenseIndex, RankedHits, search_many
from .textgen import SamplingConfig, generate_hypothetical

logger = logging.getLogger(__name__)


class FusionStrategy(str, enum.Enum):
    MEAN_POOL = "mean_pool"          # mean of query + N hypothetical embeddings
    DOC_ONLY = "doc_only"            # hypothetical embeddings only, query excluded
    CONCAT = "concat"                # embed(query + " " + hypothetical), single string
    MEAN_POOL_K = "mean_pool_k"      # mean pooling with N documents (default 5)


_DEFAULT_N = {
    FusionStrategy.MEAN_POOL: 1,
    FusionStrategy.DOC_ONLY: 1,
    FusionStrategy.CONCAT: 1,
    FusionStrategy.MEAN_POOL_K: 5,
}


@dataclass(frozen=True)
class FusionConfig:
    strategy: FusionStrategy = FusionStrategy.MEAN_POOL
    n: int | None = None
    template: str = "Q2P"

    def __post_init__(self):
        try:
            strategy = FusionStrategy(self.strategy)
        except ValueError:
            raise ValidationError(
                f"unknown fusion strategy {self.strategy!r}; "
                f"expected one of {[s.value for s in FusionStrategy]}"
            ) from None
        object.__setattr__(self, "strategy", strategy)
        n = self.n if self.n is not None else _DEFAULT_N[strategy]
        if n < 0:
            raise ValidationError("n must be >= 0")
        if n == 0 and strategy is not FusionStrategy.MEAN_POOL:
            raise ValidationError("n=0 (query-only fallback) is only valid with mean_pool")
        if strategy is FusionStrategy.CONCAT and n != 1:
            raise ValidationError("concat fusion uses exactly one hypothetical document")
        object.__setattr__(self, "n", n)


def fuse_rows(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Row i is the unnormalized mean of the next sizes[i] rows of `rows`."""
    return np.vstack([np.mean(part, axis=0) for part in np.split(rows, np.cumsum(sizes)[:-1])])


def fuse(emb, texts: list[str]) -> np.ndarray:
    """Fused vector of the rows of one embed_texts(emb, texts) call."""
    return fuse_rows(embed_texts(emb, texts), [len(texts)])[0]


def hypothesize(
    query: Query, gen, cfg: FusionConfig, sampling: SamplingConfig | None = None
) -> tuple[list[str], dict]:
    """The texts whose embeddings the fusion strategy averages for `query`, and
    the meta of its result.

    Generation failures degrade to the query alone; the meta then carries
    degraded=True so callers can flag the run.
    """
    meta = {"strategy": cfg.strategy.value, "n": cfg.n}
    texts = [query.text]
    if cfg.n == 0:
        meta["mode"] = "query_only"
    else:
        try:
            hypothetical = generate_hypothetical(gen, query.text, cfg.template, cfg.n, sampling)
        except (TransportError, DegenerateOutputError) as exc:
            logger.warning("generation failed for query %s (%s); falling back to query-only", query.id, exc)
            meta.update(degraded=True, mode="query_only")
        else:
            meta["hypothetical_texts"] = hypothetical
            if cfg.strategy is FusionStrategy.CONCAT:
                texts = [query.text + " " + hypothetical[0]]
            elif cfg.strategy is FusionStrategy.DOC_ONLY:
                texts = hypothetical
            else:
                texts = [query.text, *hypothetical]
    return texts, meta


def search_hypothesized(
    planned: list[tuple[list[str], dict]],
    emb,
    index: DenseIndex,
    k: int,
    known_rows: dict[str, np.ndarray] | None = None,
) -> list[RankedHits]:
    """Top-k hits for each (texts, meta) plan of `hypothesize`, with its meta.

    The embedder sees a text's first emb.truncate_chars characters only, so
    texts are told apart by those. Every distinct text that `known_rows` (text
    -> a row embed_texts returned for it) does not hold is embedded in one
    embed_texts call; each plan is fused as the mean of its own rows, and all
    fused vectors are searched with one search_many call.
    """
    if not planned:
        return []
    cut = emb.truncate_chars
    rows = {text[:cut]: row for text, row in (known_rows or {}).items()}
    missing = {}
    for texts, _ in planned:
        for text in texts:
            if text[:cut] not in rows:
                missing.setdefault(text[:cut], text)
    if missing:
        rows.update(zip(missing, embed_texts(emb, list(missing.values()))))
    stacked = np.vstack([rows[text[:cut]] for texts, _ in planned for text in texts])
    results = search_many(index, fuse_rows(stacked, [len(texts) for texts, _ in planned]), k)
    for hits, (_, meta) in zip(results, planned):
        hits.meta.update(meta)
    return results


def hyde_search(
    query: Query,
    gen,
    emb,
    index: DenseIndex,
    cfg: FusionConfig,
    k: int,
    sampling: SamplingConfig | None = None,
) -> RankedHits:
    """Generate hypothetical documents for one query, fuse, and search with
    one embed_texts call. See hypothesize and search_hypothesized.

    Generation runs before any embedding, so when the embedder fails the
    generator has already been called.
    """
    return search_hypothesized([hypothesize(query, gen, cfg, sampling)], emb, index, k)[0]
