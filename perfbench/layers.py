"""Per-layer metrics derived from the spans of one traced repetition.

A layer is a slhyde module; span names are `<module>.<function>` (or
`<module>.<Class>` for the index constructors). A span's self time is its
duration minus the part of its interval that its child spans cover.
"""
from __future__ import annotations

import json
from collections import defaultdict

NS = 1e-9

# Module layers whose total self time is reported as `<layer>.self_s`.
LAYERS = (
    "cli", "corpus", "embed", "textgen", "retrieval", "ann", "hyde", "selflearn",
    "metrics", "bm25", "benchkit", "config", "util",
)

# cli command function -> command name, for the `cli.<command>.*` metrics.
COMMANDS = {
    "cli.cmd_embed_corpus": "embed-corpus",
    "cli.cmd_build_sft": "build-sft-data",
    "cli.cmd_build_triplets": "build-retriever-data",
    "cli.cmd_evaluate": "evaluate",
    "cli.cmd_construct_benchmark": "construct-benchmark",
}

# The three benchkit stages whose judge requests are counted separately.
STAGES = {
    "benchkit.medical_relevance_filter": "medical_filter",
    "benchkit.match_positive_pairs": "pair_matching",
    "benchkit.filter_pseudo_relevant": "relevance_filter",
}

# Each per-layer metric name and its unit; the order is the report order.
UNITS = {
    "import.slhyde_cli_s": "s", "corpus.load.self_s": "s",
    "embed.cache_load_s": "s", "embed.cache_build_s": "s", "embed.requests": "count",
    "embed.texts": "count", "embed.distinct_ratio": "fraction", "textgen.requests": "count",
    "retrieval.dense_search.calls": "count", "retrieval.dense_search.self_s": "s",
    "retrieval.dense_search.p50_ms": "ms", "retrieval.dense_search.p99_ms": "ms",
    "retrieval.index_build_s": "s", "retrieval.rank_of.calls": "count",
    "retrieval.rank_of.self_s": "s", "ann.build_s": "s", "ann.search.calls": "count",
    "ann.search.self_s": "s", "ann.exact_fallbacks": "count", "hyde.hyde_search.calls": "count",
    "hyde.hyde_search.self_s": "s", "hyde.hyde_search.p50_ms": "ms",
    "hyde.hyde_search.p99_ms": "ms", "selflearn.score_candidates.self_s": "s",
    "selflearn.mine_hard_negatives.self_s": "s", "selflearn.load_sft.self_s": "s",
    "selflearn.reference_loss.self_s": "s", "selflearn.emit.self_s": "s",
    "selflearn.sft_emitted_ratio": "fraction", "bm25.build_s": "s", "bm25.search.calls": "count",
    "bm25.search.self_s": "s",
}
UNITS.update({f"benchkit.{stage}.self_s": "s" for stage in STAGES.values()})
UNITS.update({f"benchkit.{stage}.judge_requests": "count" for stage in STAGES.values()})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({f"cli.{cmd}.wall_s": "s" for cmd in COMMANDS.values()})
UNITS.update({f"cli.{cmd}.unattributed_s": "s" for cmd in COMMANDS.values()})
UNITS.update({"trace.overhead_s": "s", "trace.coverage_min": "fraction", "trace.spans": "count"})


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _self_times(spans, children) -> dict[int, int]:
    result = {}
    for span_id, _, start, end, *_ in spans:
        covered, cursor = 0, start
        for c_start, c_end in sorted((c[2], c[3]) for c in children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = end - start - covered
    return result


def _percentile_ms(durations: list[int], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))  # nearest-rank
    return ordered[int(rank) - 1] * NS * 1e3


def derive(spans: list[tuple], traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metric values for one traced repetition, keyed as in UNITS."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    self_ns = _self_times(spans, children)

    calls = defaultdict(int)
    self_by_name = defaultdict(int)
    durations = defaultdict(list)
    for span_id, name, start, end, *_ in spans:
        calls[name] += 1
        self_by_name[name] += self_ns[span_id]
        durations[name].append(end - start)

    def self_s(*names):
        return sum(self_by_name[n] for n in names) * NS

    def total_s(name):
        return sum(durations[name]) * NS

    def ancestor(span, names):
        parent = by_id.get(span[4])
        while parent is not None and parent[1] not in names:
            parent = by_id.get(parent[4])
        return parent

    m = {"import.slhyde_cli_s": traced["import_s"]}
    m["corpus.load.self_s"] = self_s("corpus.load_corpus", "corpus.load_queries", "corpus.load_qrels")
    m["embed.cache_load_s"] = total_s("embed.load_cache")
    m["embed.cache_build_s"] = total_s("embed.save_cache") + sum(
        (s[3] - s[2]) * NS
        for s in spans
        if s[1] == "embed.embed_texts" and by_id.get(s[4], (None, ""))[1] == "embed.cache_embeddings"
    )
    counters = traced["counters"]
    m["embed.requests"] = counters["embed_requests"]
    m["embed.texts"] = counters["embed_texts"]
    m["embed.distinct_ratio"] = counters["embed_distinct"] / counters["embed_texts"] if counters["embed_texts"] else 0.0
    m["textgen.requests"] = counters["gen_requests"]
    for metric, name in (("retrieval.dense_search", "retrieval.dense_search"), ("hyde.hyde_search", "hyde.hyde_search")):
        m[f"{metric}.calls"] = calls[name]
        m[f"{metric}.self_s"] = self_s(name)
        m[f"{metric}.p50_ms"] = _percentile_ms(durations[name], 50)
        m[f"{metric}.p99_ms"] = _percentile_ms(durations[name], 99)
    m["retrieval.index_build_s"] = total_s("retrieval.DenseIndex")
    m["retrieval.rank_of.calls"] = calls["retrieval.rank_of"]
    m["retrieval.rank_of.self_s"] = self_s("retrieval.rank_of")
    m["ann.build_s"] = total_s("ann.AnnIndex")
    m["ann.search.calls"] = calls["ann.ann_search"]
    m["ann.search.self_s"] = self_s("ann.ann_search")
    m["ann.exact_fallbacks"] = calls["ann.ann_search"] - calls["selflearn.mine_hard_negatives"]
    m["selflearn.score_candidates.self_s"] = self_s("selflearn.score_candidates")
    m["selflearn.mine_hard_negatives.self_s"] = self_s("selflearn.mine_hard_negatives")
    m["selflearn.load_sft.self_s"] = self_s("selflearn.load_sft_jsonl")
    m["selflearn.reference_loss.self_s"] = self_s(
        "selflearn.dataset_reference_loss", "selflearn.contrastive_loss", "selflearn.infonce_from_scores"
    )
    m["selflearn.emit.self_s"] = self_s("selflearn.emit_sft_jsonl", "selflearn.emit_triplets_jsonl")
    m["selflearn.sft_emitted_ratio"] = traced.get("sft_emitted_ratio", 0.0)
    m["bm25.build_s"] = total_s("bm25.Bm25Index.build")
    m["bm25.search.calls"] = calls["bm25.bm25_search"]
    m["bm25.search.self_s"] = self_s("bm25.bm25_search")

    judge_requests = defaultdict(int)
    for span in spans:
        if span[1] == "textgen.MockGeneratorClient.request_completions":
            stage = ancestor(span, STAGES)
            if stage is not None:
                judge_requests[stage[1]] += 1
    for name, stage in STAGES.items():
        m[f"benchkit.{stage}.self_s"] = self_s(name)
        m[f"benchkit.{stage}.judge_requests"] = judge_requests[name]

    layer_self = defaultdict(int)
    for span_id, name, *_ in spans:
        layer_self[name.partition(".")[0]] += self_ns[span_id]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * NS

    # A command's wall is its cli.main span. Spans below it account for their
    # self time (the cli command functions too, as layer cli); what is left
    # unattributed is the self time of cli.main: argument parsing, logging
    # set-up and dispatch.
    wall = defaultdict(int)
    unattributed = defaultdict(int)
    for span in spans:
        command = COMMANDS.get(span[1])
        if command is not None:
            main = by_id[span[4]]
            wall[command] += main[3] - main[2]
            unattributed[command] += self_ns[main[0]]
    coverage = [1.0 - unattributed[c] / wall[c] for c in wall if wall[c]]
    for command in COMMANDS.values():
        m[f"cli.{command}.wall_s"] = wall[command] * NS
        m[f"cli.{command}.unattributed_s"] = unattributed[command] * NS
    m["trace.overhead_s"] = traced["after_import_s"] - untraced["after_import_s"]
    m["trace.coverage_min"] = min(coverage) if coverage else 0.0
    m["trace.spans"] = len(spans)
    return m
