"""Hypothetical-document retrieval: generate, fuse, search.

`FusionConfig` is the `fusion` config section and the library's fusion
argument, one definition for both: `FUSION_STRATEGIES` maps each strategy to
its default N, and the section checks the strategy, N and template itself.

`fuse_rows` is the one fusion rule, the unnormalized mean of a plan's own rows
(one reshape and mean per run of equal-size plans); HyDE applies it to each
query's texts, and self-learning to each (query, pseudo-document) pair of its
chunk's rows.

HyDE runs in two halves. `hypothesize` generates a query's hypothetical
documents and returns the texts its fusion strategy averages.
`search_hypothesized` takes a batch of such plans: it embeds every distinct
text it is not given a row for (`embed.embed_rows`, the helper self-learning's
triplet builder shares) in one embed_texts call, fuses each query as the mean
of its own rows, and searches all fused vectors with one search_many call.
HyDE with N = 0 (`mean_pool`, the query-only plan) is the dense baseline: its
plan is the query alone, whose mean is its own row, so its hits are bit for
bit a dense search's, and the CLI's dense runs are that plan. The CLI runs its
queries in chunks of 64, so a chunk costs one embed_texts call (one request
per embedder batch_size texts) and one search, and it consumes each chunk's
hits as they come (`cli._run_queries` yields them as a stream of (query id,
hits) pairs), so it holds one chunk of hits at a time. `hyde_search` is the
one-query form of the two. Rows of a batch equal the rows of single calls, so
a query's vector, and its hits, do not depend on which queries share its
batch.

The mean is deliberately NOT renormalized: document vectors are unit length
and ranking is an argsort of inner products, so rescaling the query vector
cannot change the ordering (see the retrieval module's scale-invariance
property).
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Query
from .embed import embed_rows
from .errors import (
    DegenerateOutputError,
    TransportError,
    ValidationError,
)
from .retrieval import DenseIndex, RankedHits, search_many
from .textgen import HYPOTHETICAL_TEMPLATES, SamplingConfig, generate_hypothetical

logger = logging.getLogger(__name__)


# Each fusion strategy and the number of hypothetical documents (N) it
# generates when `n` is unset.
FUSION_STRATEGIES = {
    "mean_pool": 1,    # mean of query + N hypothetical embeddings
    "doc_only": 1,     # hypothetical embeddings only, query excluded
    "concat": 1,       # embed(query + " " + hypothetical), single string
    "mean_pool_k": 5,  # mean pooling with N documents
}


@dataclass(frozen=True)
class FusionConfig:
    """The `fusion` config section. Values are kept as written (`n` may be
    None); `count` is the resolved N."""

    strategy: str = "mean_pool"
    n: int | None = None
    template: str = "Q2P"

    def __post_init__(self):
        if self.strategy not in FUSION_STRATEGIES:
            raise ValidationError(
                f"fusion.strategy {self.strategy!r} is not one of {list(FUSION_STRATEGIES)}"
            )
        if self.template not in HYPOTHETICAL_TEMPLATES:
            raise ValidationError(
                f"fusion.template {self.template!r} is not one of {HYPOTHETICAL_TEMPLATES}"
            )
        if self.count < 0:
            raise ValidationError("fusion.n must be >= 0")
        if self.count == 0 and self.strategy != "mean_pool":
            raise ValidationError("fusion.n=0 (query-only fallback) is only valid with mean_pool")
        if self.strategy == "concat" and self.count != 1:
            raise ValidationError("concat fusion uses exactly one hypothetical document (fusion.n)")

    @property
    def count(self) -> int:
        """N: hypothetical documents generated per query."""
        return FUSION_STRATEGIES[self.strategy] if self.n is None else self.n


def fuse_rows(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Row i is the unnormalized mean of the next sizes[i] rows of `rows`.

    Each run of consecutive plans of one size is fused by one reshape and
    mean, bit for bit np.mean of each plan's own rows; mixed sizes are
    several runs."""
    fused, start = [], 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        stop = start + count * size
        fused.append(rows[start:stop].reshape(count, size, -1).mean(axis=1))
        start = stop
    return np.vstack(fused)


def hypothesize(
    query: Query, gen, cfg: FusionConfig, sampling: SamplingConfig | None = None
) -> tuple[list[str], dict]:
    """The texts whose embeddings the fusion strategy averages for `query`, and
    the meta of its result: the `hypothetical_texts`, or degraded=True when
    generation fails and the plan falls back to the query alone, so callers
    can flag the run. With N = 0, the query-only plan (a dense search), the
    texts are the query alone, the meta is empty and `gen` is not called.
    """
    if cfg.count == 0:
        return [query.text], {}
    try:
        hypothetical = generate_hypothetical(gen, query.text, cfg.template, cfg.count, sampling)
    except (TransportError, DegenerateOutputError) as exc:
        logger.warning("generation failed for query %s (%s); falling back to query-only", query.id, exc)
        return [query.text], {"degraded": True}
    meta = {"hypothetical_texts": hypothetical}
    if cfg.strategy == "concat":
        return [query.text + " " + hypothetical[0]], meta
    if cfg.strategy == "doc_only":
        return hypothetical, meta
    return [query.text, *hypothetical], meta


def search_hypothesized(
    planned: list[tuple[list[str], dict]],
    emb,
    index: DenseIndex,
    k: int,
    known_rows: dict[str, np.ndarray] | None = None,
) -> list[RankedHits]:
    """Top-k hits for each (texts, meta) plan of `hypothesize`, with its meta.

    The plans' texts are embedded by one `embed_rows` call (one embed_texts
    call for the distinct texts that `known_rows`, an `embed.keyed_rows`
    mapping, lacks); each plan is fused as the mean of its own rows, and all
    fused vectors are searched with one search_many call.
    """
    if not planned:
        return []
    rows = embed_rows(emb, [text for texts, _ in planned for text in texts], known_rows)
    results = search_many(index, fuse_rows(rows, [len(texts) for texts, _ in planned]), k)
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
