"""Hypothetical-document retrieval: generate, fuse, search.

`fuse(emb, texts)` is the one place a retrieval vector is built from text:
it embeds the texts with a single embed_texts call (one embedder request)
and returns the plain arithmetic mean of the rows. HyDE searches with the
fuse of the query and its hypothetical documents, and the self-learning
module mines negatives with the fuse of (query, pseudo-document).

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


def fuse(emb, texts: list[str]) -> np.ndarray:
    """Unnormalized mean of the rows of one embed_texts(emb, texts) call."""
    return np.mean(embed_texts(emb, texts), axis=0)


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
    carries degraded=True so callers can flag the run. Generation runs before
    any embedding, so when the embedder fails the generator has already been
    called.
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
    hits = dense_search(index, fuse(emb, texts), k)
    hits.meta.update(meta)
    return hits
