#!/usr/bin/env python3
"""Fusion-strategy study on a synthetic dataset, offline.

Runs the four fusion variants (mean pooling with one hypothetical document,
document-only, string concatenation, mean pooling over five documents)
against the query-only dense baseline and prints a comparison table with
relative improvements and paired significance. The mock generator is
scripted to return noisy paraphrases of each query's target document, so
the study shows the ordering the fusion strategies produce under a
controlled signal rather than any real-model numbers. The baseline and each
strategy embed their texts in one embedder request and search all queries
with one search_many call.
"""
from __future__ import annotations

import argparse
import string

import numpy as np

from slhyde.corpus import CorpusStore, Document, Query
from slhyde.embed import MockEmbedderClient, EmbeddingCache, embed_texts
from slhyde.hyde import FUSION_STRATEGIES, FusionConfig, hypothesize, search_hypothesized
from slhyde.metrics import build_report, ndcg_at_k, render_report_text
from slhyde.retrieval import DenseIndex, search_many
from slhyde.textgen import MockGeneratorClient, hash_paraphrase, load_template, render_prompt

LETTERS = np.array(list(string.ascii_lowercase))


def _token(rng, length=8):
    return "".join(rng.choice(LETTERS, size=length))


def build_world(n_docs: int, n_queries: int, seed: int):
    rng = np.random.default_rng(seed)
    filler = [_token(rng) for _ in range(12)]
    docs = []
    for i in range(n_docs):
        anchors = [_token(rng) for _ in range(3)]
        body = anchors * 2 + list(rng.permutation(filler)) + [_token(rng) for _ in range(6)]
        docs.append(Document(id=f"d{i:05d}", text=" ".join(body)))
    queries, qrels = [], {}
    for i in range(n_queries):
        target = docs[i]
        text = " ".join([target.text.split()[0]] + [_token(rng) for _ in range(4)])
        query = Query(id=f"q{i:05d}", text=text)
        queries.append(query)
        qrels[query.id] = {target.id: 1}
    return docs, queries, qrels


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=200)
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    docs, queries, qrels = build_world(args.docs, args.queries, args.seed)
    emb = MockEmbedderClient(dim=256)
    store = CorpusStore(docs)
    matrix = embed_texts(emb, [d.indexed_text for d in docs])
    index = DenseIndex(EmbeddingCache(ids=store.ids, matrix=matrix))

    # Generator scripted per query: a lossy paraphrase of the target document
    # contaminated with tokens from a distractor document. Hypotheses are
    # useful but imperfect, which is what separates the fusion strategies.
    rng = np.random.default_rng(args.seed + 1)
    template = load_template("Q2P")
    responses = {}
    for query in queries:
        target = docs[int(query.id[1:])]
        prompt = render_prompt(template, {"QUESTION": query.text})
        variants = []
        for i in range(5):
            kept = hash_paraphrase(target.text, seed=args.seed, index=i, drop_rate=0.55)
            distractor = docs[int(rng.integers(0, len(docs)))]
            noise = hash_paraphrase(distractor.text, seed=args.seed, index=i, drop_rate=0.7)
            variants.append(kept + " " + noise)
        responses[prompt] = variants
    gen = MockGeneratorClient(responses=responses)

    # Per-query values are lists in query order, which is query-id order below
    # 100,000 queries: the ids are zero-padded to five digits.
    query_hits = search_many(index, embed_texts(emb, [q.text for q in queries]), args.k)
    baseline = [ndcg_at_k(hits, qrels[q.id], args.k) for q, hits in zip(queries, query_hits)]

    for strategy in FUSION_STRATEGIES:
        cfg = FusionConfig(strategy=strategy)
        planned = [hypothesize(query, gen, cfg) for query in queries]
        fused_hits = search_hypothesized(planned, emb, index, args.k)
        per_query = [ndcg_at_k(hits, qrels[q.id], args.k) for q, hits in zip(queries, fused_hits)]
        report = build_report({strategy: per_query}, baseline={strategy: baseline}, metric=f"ndcg@{args.k}")
        print(render_report_text(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
