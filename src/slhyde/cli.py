"""Command-line surface binding the modules into reproducible pipelines.

Commands: embed-corpus, search, hyde-search, evaluate, build-sft-data,
build-retriever-data, construct-benchmark. Exit codes: 0 ok, 1 validation
error, 2 runtime error, 3 completed but degraded (fallbacks or flags).

Run artifacts are written to a staging directory and promoted into the
output directory file-by-file (os.replace) only when the command succeeds;
embedding caches are managed in place with atomic writes so unchanged
corpora are never re-embedded, and a warm cache is used without parsing the
corpus file.

Every command runs from one table in `build_parser` and writes through one
staged step, `staged_outputs`, which writes the resolved config and prompt
templates first, so every run directory holds them. `search`, `hyde-search`
and `evaluate` consume one stream of (query id, hits) pairs, chunk by chunk:
each pair's trec lines (and trace line, or metric values) are written or
added up as it arrives, so memory holds one chunk of hits, never a run. One
function, `_run_queries`, makes every such stream; a dense run is HyDE's
query-only plan (N = 0) over rows embedded up front. `build-sft-data` and
`build-retriever-data` likewise write each chunk's SFT lines and rows, or
triplet lines, into staging as the chunk is scored or mined.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import os
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

from .benchkit import run_pipeline
from .config import (
    RunConfig,
    build_embedder_client,
    build_generator_client,
    load_config,
    write_resolved_config,
)
from .corpus import load_corpus, load_qrels, load_queries, sample_documents
from .embed import cache_embeddings, embed_texts, keyed_rows
from .errors import ParseError, SlhydeError, ValidationError
from .hyde import FusionConfig, hypothesize, search_hypothesized
from .metrics import build_report, ndcg_at_k, recall_at_k, render_report_text, report_to_dict, write_trec_run
from .retrieval import DenseIndex
from .selflearn import build_generator_dataset, build_retriever_dataset, emit_triplets_jsonl
from .textgen import SamplingConfig
from .util import atomic_write_text, derive_seed, dump_json, jsonl_line, replacing, run_chunked

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_DEGRADED = 3

# HyDE without a hypothetical document: the plan of every dense run.
QUERY_ONLY = FusionConfig(strategy="mean_pool", n=0)


@contextmanager
def staged_outputs(config: RunConfig):
    """Write into a unique sibling staging dir of config.out_dir (concurrent
    runs never share one) that starts with the resolved config; promote
    per-file on success only. A command stages files, never a directory.
    The staging dir is removed whatever happens, a failed promotion included."""
    out_dir = Path(config.out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out_dir.parent, prefix=out_dir.name + ".staging-"))
    try:
        write_resolved_config(config, staging)
        yield staging
        out_dir.mkdir(parents=True, exist_ok=True)
        for item in sorted(staging.iterdir()):
            os.replace(item, out_dir / item.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _sampling(config: RunConfig, seed: int | None = None) -> SamplingConfig:
    # vars, not dataclasses.asdict: this runs once per query and repeat, and
    # the flat section's __dict__ is its fields.
    return SamplingConfig(**vars(config.sampling), seed=seed)


def _fusion_for(config: RunConfig, dataset) -> FusionConfig:
    # The hypothetical-document template is task-dependent; datasets may
    # override the run-wide choice.
    return dataclasses.replace(config.fusion, template=dataset.template or config.fusion.template)


def _path(dataset, key: str) -> str:
    """The dataset's `key` path (corpus, queries or qrels); a ValidationError
    naming the key when the config leaves it unset. Only the commands that
    read queries or qrels ask for them: the label-free ones need a corpus."""
    path = getattr(dataset, key)
    if not path:
        raise ValidationError(f"dataset {dataset.name!r} has no {key} path in the config")
    return path


def _dataset_cache(config: RunConfig, emb, dataset, load: bool = True):
    """`cache_embeddings` for one dataset: its cache, or None unless `load`."""
    return cache_embeddings(emb, _path(dataset, "corpus"), Path(config.out_dir) / f"{dataset.name}.emb", load)


def _single_dataset(config: RunConfig, command: str):
    datasets = config.all_datasets()
    if len(datasets) != 1:
        raise ValidationError(f"{command} takes one dataset, but the config lists {len(datasets)}")
    return datasets[0]


def cmd_embed_corpus(config: RunConfig, command: str) -> int:
    emb = build_embedder_client(config)
    for dataset in config.all_datasets():
        _dataset_cache(config, emb, dataset, load=False)  # makes each file current; holds no matrix
    with staged_outputs(config):
        pass
    return EXIT_OK


def _query_rows(emb, queries) -> dict:
    """Each query's embedding row, from one embed_texts call (none for no
    queries), as `embed.keyed_rows`: the known rows of a dense run and of every
    HyDE repeat."""
    texts = [q.text for q in queries]
    return keyed_rows(emb, texts, embed_texts(emb, texts)) if texts else {}


def _run_queries(config: RunConfig, emb, index, queries, k: int, gen, fusion, seed_parts, known_rows=None):
    """(query id, RankedHits) for each HyDE task in task order: the run of
    each entry of `seed_parts` in turn, a pair per query, yielded as each
    chunk's search_hypothesized call returns them. This is every command's
    one source of such pairs: a dense run is the query-only plan
    (`QUERY_ONLY`, gen None) over the queries' `known_rows`, so it makes no
    request here and its hits are bit for bit a dense search's.

    Query q of the run for seed parts p samples with derive_seed(config.seed,
    *p, q.id). The (p, q) tasks go through `run_chunked`, drawn as they are
    needed: a chunk is generated for, then one search_hypothesized call embeds
    the chunk's distinct texts (those not in `known_rows`, an
    `embed.keyed_rows` mapping) with one embed_texts call and searches the chunk with one search_many
    call. So when the embedder fails, the generator has already been called
    for the whole chunk.
    """

    def plan(task):
        parts, q = task
        return q.id, hypothesize(q, gen, fusion, _sampling(config, derive_seed(config.seed, *parts, q.id)))

    def finish(planned):
        ids, plans = zip(*planned)
        return zip(ids, search_hypothesized(list(plans), emb, index, k, known_rows))

    tasks = ((parts, q) for parts in seed_parts for q in queries)
    return run_chunked(tasks, plan, finish, config.parallelism)


def _tap(pairs, see):
    """The (query id, hits) pairs, each handed to see(query_id, hits) as it passes."""
    for query_id, hits in pairs:
        see(query_id, hits)
        yield query_id, hits


def _search_k(config: RunConfig, k: int | None) -> int:
    """The --k flag, else the largest configured k; checked before any corpus or client work."""
    k = k if k is not None else max(config.eval.k_values)
    if k < 1:
        raise ValidationError("k must be >= 1")
    return k


def cmd_search(config: RunConfig, command: str, k: int | None = None, trace: bool = False) -> int:
    """search (dense) and hyde-search: one trec run per dataset, and with
    --trace each query's hypothetical texts and hits, both written as each
    query's hits arrive."""
    hyde = command == "hyde-search"
    k = _search_k(config, k)
    gen = build_generator_client(config) if hyde else None
    emb = build_embedder_client(config)
    tag = "hyde" if hyde else "dense"
    degraded = False
    with staged_outputs(config) as staging:
        for dataset in config.all_datasets():
            # the queries are read (and so checked) before the corpus is embedded
            queries = load_queries(_path(dataset, "queries"))
            index = DenseIndex(_dataset_cache(config, emb, dataset))
            if hyde:
                fusion, known_rows = _fusion_for(config, dataset), None
            else:
                fusion, known_rows = QUERY_ONLY, _query_rows(emb, queries)
            pairs = _run_queries(config, emb, index, queries, k, gen, fusion, [(tag, dataset.name)], known_rows)
            trace_path = staging / f"trace_{dataset.name}.jsonl"
            with replacing(trace_path, "x", encoding="utf-8", newline="") if trace else nullcontext() as trace_file:

                def see(query_id, hits):
                    nonlocal degraded
                    degraded = degraded or bool(hits.meta.get("degraded"))
                    if trace_file:
                        record = {
                            "query_id": query_id,
                            "hypothetical_texts": hits.meta.get("hypothetical_texts", []),
                            "hits": [[doc_id, score] for doc_id, score in hits],
                        }
                        trace_file.write(jsonl_line(record))

                write_trec_run(_tap(pairs, see), staging / f"run_{dataset.name}.trec", tag=tag)
    return EXIT_DEGRADED if degraded else EXIT_OK


class _Scores(NamedTuple):  # one metric's report inputs for one dataset
    values: list[float]  # each query's mean over the runs in query-id order, or the run means
    dense: list[float] | None  # the dense run's values, paired with them entry for entry
    per_run: dict  # the run means and their spread
    skipped: int  # judged queries without a value


def _evaluate_dataset(config: RunConfig, gen, emb, dataset, metrics: list[str], staging: Path, tag: str):
    """Search one dataset's judged queries and take each (query id, hits)
    pair as it arrives: its trec lines go to staging/run_<dataset>_r<i>.trec
    and its metric values into running sums, so memory holds one chunk of
    hits and the per-query values, never a run.

    The queries are embedded once, in one embed_texts call, which every run
    reuses: the runs are the dense run itself (the query-only plan) when `gen`
    is None, else one HyDE run per repeat. Returns ({metric: _Scores},
    degraded). The values are run means when a HyDE evaluation pairs runs
    (`eval.pairing: run`). dense is None, and no dense run beside the runs is
    searched, unless a HyDE evaluation compares against dense
    (`eval.compare_to_dense`).
    Every sum is added from 0 in query or run order as sum() adds them
    (before Python 3.12, whose sum() compensates); degraded says whether any
    run fell back.
    Queries without a positive judgment have no value (they are skipped), so
    every run scores the same queries: skips depend on qrels only.
    """
    queries = load_queries(_path(dataset, "queries"))
    qrels = load_qrels(_path(dataset, "qrels"))
    cache = _dataset_cache(config, emb, dataset)
    index = DenseIndex(cache)
    judged_ids = set(qrels.entries)
    eval_queries = [q for q in queries if q.id in judged_ids]
    orphan = judged_ids - {q.id for q in queries}
    if orphan:
        logger.warning("%d qrels queries missing from the query file are ignored", len(orphan))
    unindexed = {doc_id for grades in qrels.entries.values() for doc_id in grades if doc_id not in cache}
    if unindexed:
        logger.warning(
            "%d qrels documents missing from the corpus still count in the nDCG ideal and the recall denominator",
            len(unindexed),
        )
    if not eval_queries:
        raise ValidationError(f"dataset {dataset.name!r} has no judged queries to evaluate")

    scorers = []
    for metric in metrics:
        kind, _, k = metric.partition("@")
        scorers.append((metric, ndcg_at_k if kind == "ndcg" else recall_at_k, int(k)))

    def values(query_id, hits):
        """(metric, value) for each metric that has a value for the query."""
        grades = qrels.grades_for(query_id)
        for metric, fn, k in scorers:
            value = fn(hits, grades, k)
            if value is not None:
                yield metric, value

    max_k = max(list(config.eval.k_values) + [config.eval.primary_k])
    query_rows = _query_rows(emb, eval_queries)
    # a generator: nothing is searched unless it is consumed
    dense = _run_queries(config, emb, index, eval_queries, max_k, None, QUERY_ONLY, [("dense",)], query_rows)
    baseline = None  # or {metric: {query_id: the dense run's value}}
    if gen is None:
        runs = [dense]
    else:
        if config.eval.compare_to_dense:
            baseline = {metric: {} for metric in metrics}
            for query_id, hits in dense:
                for metric, value in values(query_id, hits):
                    baseline[metric][query_id] = value
        seed_parts = [("eval", dataset.name, run_index) for run_index in range(config.eval.repeats)]
        fusion = _fusion_for(config, dataset)
        pairs = _run_queries(config, emb, index, eval_queries, max_k, gen, fusion, seed_parts, query_rows)
        runs = (itertools.islice(pairs, len(eval_queries)) for _ in seed_parts)
    sums = {metric: ([], {}) for metric in metrics}  # ([sum, count] in each run, {query_id: sum over the runs})
    degraded = False

    def see(query_id, hits):
        nonlocal degraded
        for metric, value in values(query_id, hits):
            per_run, per_query = sums[metric]
            per_run[-1][0] += value
            per_run[-1][1] += 1
            per_query[query_id] = per_query.get(query_id, 0) + value
        degraded = degraded or bool(hits.meta.get("degraded"))

    for run_index, run in enumerate(runs):
        for per_run, _ in sums.values():
            per_run.append([0, 0])
        write_trec_run(_tap(run, see), staging / f"run_{dataset.name}_r{run_index}.trec", tag=tag)

    run_pairing = gen is not None and config.eval.pairing == "run"
    scores = {}
    for metric in metrics:
        totals, per_query = sums[metric]
        run_means = [total / count for total, count in totals if count]
        ids = sorted(per_query)  # the same in every run, the dense one too
        if run_pairing:
            system = run_means
            # no run mean (nothing scored) leaves the dense mean uncomputed: build_report names the dataset
            dense_values = baseline and [sum(baseline[metric].values()) / len(baseline[metric]) for _ in run_means]
        else:
            system = [per_query[qid] / len(totals) for qid in ids]
            dense_values = baseline and [baseline[metric][qid] for qid in ids]
        spread = statistics.stdev(run_means) if len(run_means) > 1 else 0.0
        skipped = len(eval_queries) - totals[0][1]  # every run scores the same queries
        scores[metric] = _Scores(system, dense_values, {"run_means": run_means, "spread": spread}, skipped)
    return scores, degraded


def cmd_evaluate(config: RunConfig, command: str, mode: str = "hyde") -> int:
    gen = build_generator_client(config) if mode == "hyde" else None
    emb = build_embedder_client(config)
    primary = f"ndcg@{config.eval.primary_k}"
    metrics = list(dict.fromkeys([primary] + [f"recall@{k}" for k in config.eval.k_values]))
    scores: dict[str, dict[str, _Scores]] = {}
    degraded = False
    with staged_outputs(config) as staging:
        for dataset in config.all_datasets():
            scores[dataset.name], fell_back = _evaluate_dataset(config, gen, emb, dataset, metrics, staging, mode)
            degraded = degraded or fell_back

        reports = {}
        for metric in metrics:
            by_name = {name: by_metric[metric] for name, by_metric in scores.items()}
            reports[metric] = build_report(
                {name: s.values for name, s in by_name.items()},
                {name: s.dense for name, s in by_name.items() if s.dense is not None} or None,  # None: no comparison
                metric=metric, pairing=config.eval.pairing,
                skipped={name: s.skipped for name, s in by_name.items()},
            )

        payload = {
            "mode": mode,
            "repeats": config.eval.repeats if mode == "hyde" else 1,
            "reports": {name: report_to_dict(report) for name, report in reports.items()},
            "per_run": {name: {m: s.per_run for m, s in by_metric.items()} for name, by_metric in scores.items()},
            "degraded": degraded,
        }
        atomic_write_text(staging / "report.json", dump_json(payload))
        atomic_write_text(staging / "report.txt", render_report_text(reports[primary]))
    print(render_report_text(reports[primary]), end="")
    return EXIT_DEGRADED if degraded else EXIT_OK


def cmd_build_sft(config: RunConfig, command: str) -> int:
    """Sample documents and write each chunk's SFT lines and rows into
    staging as it is scored: memory holds the sampled documents and one
    chunk, and the corpus is read once to keep the sampled ones."""
    gen = build_generator_client(config)
    emb = build_embedder_client(config)
    dataset = _single_dataset(config, command)
    cache = _dataset_cache(config, emb, dataset)
    sample_n = min(config.selflearn.sample_docs or len(cache), len(cache))
    docs = sample_documents(_path(dataset, "corpus"), cache.ids, sample_n, derive_seed(config.seed, "sample"))
    with staged_outputs(config) as staging:
        stats = build_generator_dataset(
            docs, gen, emb, DenseIndex(cache), config.selflearn, staging / "sft.jsonl", config.seed,
            _sampling(config), config.parallelism,
        )
        atomic_write_text(staging / "sft_stats.json", dump_json(dataclasses.asdict(stats)))
    return EXIT_OK


def cmd_build_triplets(config: RunConfig, command: str, sft: str | None = None) -> int:
    """Write each chunk's triplet lines into staging as it is mined, and add
    its reference losses into a running sum from 0 in file order (the
    additions sum() makes before Python 3.12): memory holds one chunk."""
    gen = build_generator_client(config)
    emb = build_embedder_client(config)
    dataset = _single_dataset(config, command)
    sft_file = Path(sft) if sft else Path(config.out_dir) / "sft.jsonl"
    if not sft_file.is_file():
        raise ValidationError(f"SFT dataset not found: {sft_file} (run build-sft-data first)")
    cache = _dataset_cache(config, emb, dataset)
    pairs = build_retriever_dataset(
        sft_file,
        gen,
        emb,
        DenseIndex(cache),
        config.selflearn,
        _fusion_for(config, dataset).template,
        config.seed,
        _sampling(config),
        config.parallelism,
    )
    count, loss_sum = 0, 0

    def triplets():
        nonlocal count, loss_sum
        for triplet, loss in pairs:
            count, loss_sum = count + 1, loss_sum + loss
            yield triplet

    with staged_outputs(config) as staging:
        emit_triplets_jsonl(triplets(), staging / "triplets.jsonl")
        atomic_write_text(
            staging / "triplets_stats.json",
            dump_json(
                {
                    "count": count,
                    "negatives_per_triplet": config.selflearn.negatives,
                    "tau": config.selflearn.tau,
                    "mean_reference_loss": loss_sum / count if count else None,
                }
            ),
        )
    return EXIT_OK


def cmd_construct_benchmark(
    config: RunConfig, command: str, texts: str | None = None, queries: str | None = None
) -> int:
    texts_file = texts or config.benchmark.raw_texts
    queries_file = queries or config.benchmark.raw_queries
    if not texts_file or not queries_file:
        raise ValidationError(f"{command} needs raw texts and raw queries paths")
    thresholds = (config.benchmark.med_threshold, config.benchmark.rel_threshold)
    if config.clients == "remote" and None in thresholds:
        raise ValidationError(
            "med_threshold and rel_threshold must be set explicitly for remote (production) runs"
        )
    judge = build_generator_client(config)
    # Raw inputs are corpus and queries files; a title is neither judged nor written.
    texts = load_corpus(texts_file, titles=False)
    queries = load_queries(queries_file)
    with staged_outputs(config) as staging:
        report = run_pipeline(texts, queries, judge, config.benchmark, config.bm25, staging, config.parallelism)
    return EXIT_DEGRADED if report.flagged else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # --help describes the commands: the docstring without its last paragraph
    parser = argparse.ArgumentParser(prog="slhyde", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    k = ("--k", {"type": int, "default": None})
    sft = ("--sft", {"default": None, "help": "path to the SFT jsonl"})
    mode = ("--mode", {"choices": ["retriever", "hyde"], "default": "hyde"})
    raw = [("--texts", {"default": None}), ("--queries", {"default": None})]
    # (name, function, own flags), built per call: a cmd_* attribute rebound
    # after import (a tracing wrapper, say) is the one a command runs.
    for name, run, flags in (
        ("embed-corpus", cmd_embed_corpus, []),
        ("search", cmd_search, [k]),
        ("hyde-search", cmd_search, [k, ("--trace", {"action": "store_true"})]),
        ("evaluate", cmd_evaluate, [mode]),
        ("build-sft-data", cmd_build_sft, []),
        ("build-retriever-data", cmd_build_triplets, [sft]),
        ("construct-benchmark", cmd_construct_benchmark, raw),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="YAML run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="global seed override")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--clients", choices=["mock", "remote"], default=None)
        cmd.add_argument("--parallelism", type=int, default=None)
        for flag, options in flags:
            cmd.add_argument(flag, **options)
        cmd.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = args.pop("run")
    logging.basicConfig(
        level=logging.DEBUG if args.pop("verbose") else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(
            args.pop("config"),
            seed=args.pop("seed"),
            out_dir=args.pop("out"),
            clients=args.pop("clients"),
            parallelism=args.pop("parallelism"),
        )
        return run(config, **args)  # the command's name and its own flags
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SlhydeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.exception("unexpected failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
