"""Hypothetical-document retrieval: generate, fuse, search.

The fused query vector is the plain arithmetic mean of the query embedding
and the hypothetical-document embeddings and is deliberately NOT
renormalized: document vectors are unit length and ranking is an argsort of
inner products, so rescaling the query vector cannot change the ordering
(see the retrieval module's scale-invariance property).
"""
from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Query
from .embed import embed_text, embed_texts
from .errors import (
    DegenerateOutputError,
    TransportError,
    ValidationError,
)
from .retrieval import DenseIndex, RankedHits, dense_search
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


@dataclass
class FusedQuery:
    """Fused query vector plus the texts it came from."""

    vector: np.ndarray
    query_text: str = ""
    hypothetical_texts: list[str] = field(default_factory=list)


def fuse(query_vec: np.ndarray, pseudo_vecs, *, query_text: str = "", texts=()) -> FusedQuery:
    """Arithmetic mean of the query vector and N hypothetical vectors, unnormalized."""
    query_vec = np.asarray(query_vec, dtype=np.float32).ravel()
    stacked = [query_vec]
    for vec in pseudo_vecs:
        vec = np.asarray(vec, dtype=np.float32).ravel()
        if vec.shape[0] != query_vec.shape[0]:
            raise ValidationError(
                f"dim mismatch: query {query_vec.shape[0]}, hypothetical {vec.shape[0]}"
            )
        stacked.append(vec)
    fused = np.mean(np.stack(stacked), axis=0)
    return FusedQuery(vector=fused, query_text=query_text, hypothetical_texts=list(texts))


def hyde_search(
    query: Query,
    gen,
    emb,
    index: DenseIndex,
    cfg: FusionConfig,
    k: int,
    sampling: SamplingConfig | None = None,
) -> RankedHits:
    """Generate hypothetical documents for the query, fuse, and search.

    Generation failures degrade to query-only retrieval; the result's meta
    carries degraded=True so callers can flag the run.
    """
    query_vec = embed_text(emb, query.text)
    if cfg.n == 0:
        hits = dense_search(index, query_vec, k)
        hits.meta.update(strategy=cfg.strategy.value, n=0, mode="query_only")
        return hits

    try:
        texts = generate_hypothetical(gen, query.text, cfg.template, cfg.n, sampling)
    except (TransportError, DegenerateOutputError) as exc:
        logger.warning("generation failed for query %s (%s); falling back to query-only", query.id, exc)
        hits = dense_search(index, query_vec, k)
        hits.meta.update(strategy=cfg.strategy.value, n=cfg.n, degraded=True, mode="query_only")
        return hits

    # Every strategy searches with the mean of the rows it selects.
    if cfg.strategy is FusionStrategy.CONCAT:
        rows = embed_texts(emb, [query.text + " " + texts[0]])
    elif cfg.strategy is FusionStrategy.DOC_ONLY:
        rows = embed_texts(emb, texts)
    else:
        rows = np.vstack([query_vec, embed_texts(emb, texts)])
    hits = dense_search(index, np.mean(rows, axis=0), k)
    hits.meta.update(strategy=cfg.strategy.value, n=cfg.n, hypothetical_texts=texts)
    return hits
