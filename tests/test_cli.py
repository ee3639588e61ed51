import dataclasses
import hashlib
import itertools
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
import yaml

from slhyde import cli, embed, hyde, selflearn, textgen
from slhyde.bm25 import DENSE_POSTINGS, Bm25Index, Bm25Settings
from slhyde.cli import build_parser, main
from slhyde.config import build_embedder_client, build_generator_client, load_config, write_resolved_config
from slhyde.corpus import CorpusStore, Document, corpus_file_digest, load_qrels, write_corpus, write_qrels
from slhyde.corpus import write_queries
from slhyde.corpus import Query, RelevanceJudgments, load_corpus, load_queries, read_corpus
from slhyde.embed import MockEmbedderClient, cache_embeddings, embed_text, embed_texts, load_cache
from slhyde.errors import ParseError, SlhydeError, TransportError, ValidationError
from slhyde.hyde import FusionConfig, hyde_search
from slhyde.metrics import build_report, ndcg_at_k, recall_at_k, report_to_dict, write_trec_run
from slhyde.retrieval import DenseIndex, dense_search
from slhyde.selflearn import contrastive_loss, load_sft_jsonl, load_triplets_jsonl, validate_sft_file
from slhyde.textgen import MockGeneratorClient, SamplingConfig, load_template, render_prompt
from slhyde.util import derive_seed

from conftest import StubEndpoint, cache_docs, cjk_dataset, queries_for_docs, synthetic_docs


def make_dataset(root, n_docs=20, seed=0):
    """Synthetic dataset on disk: each query's target doc is its relevant doc."""
    root.mkdir(parents=True, exist_ok=True)
    docs = synthetic_docs(n_docs, seed=seed)
    queries = queries_for_docs(docs, seed=seed + 1)
    qrels = RelevanceJudgments(entries={q.id: {d.id: 1} for q, d in zip(queries, docs)})
    write_corpus(docs, root / "corpus.jsonl")
    write_queries(queries, root / "queries.jsonl")
    write_qrels(qrels, root / "qrels.tsv")
    return docs, queries, qrels


def make_config(tmp_path, dataset_dir, out_dir, **extra):
    config = {
        "seed": 7,
        "out_dir": str(out_dir),
        "clients": "mock",
        "dataset": {
            "name": "synthetic",
            "corpus": str(dataset_dir / "corpus.jsonl"),
            "queries": str(dataset_dir / "queries.jsonl"),
            "qrels": str(dataset_dir / "qrels.tsv"),
        },
        "embedder": {"dim": 128},
        "eval": {"k_values": [10], "primary_k": 10, "repeats": 2},
        "selflearn": {"candidates_per_query": 2, "negatives": 3},
    }
    if "datasets" in extra:
        del config["dataset"]
    config.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def _direct_hyde_report(config_path, metric, cache_dir):
    """`evaluate --mode hyde` recomputed from dense_search, hyde_search, the metric and build_report."""
    config = load_config(config_path)
    gen, emb = build_generator_client(config), build_embedder_client(config)
    fusion = FusionConfig(
        strategy=config.fusion.strategy, n=config.fusion.n, template=config.fusion.template
    )
    kind, _, k = metric.partition("@")
    score = ndcg_at_k if kind == "ndcg" else recall_at_k
    max_k = max(config.eval.k_values + [config.eval.primary_k])
    system, baseline = {}, {}
    for ds in config.all_datasets():
        index = DenseIndex(cache_embeddings(emb, ds.corpus, cache_dir / f"{ds.name}.emb"))
        qrels = load_qrels(ds.qrels)
        queries = load_queries(ds.queries)
        dense = {}
        for q in queries:
            hits = dense_search(index, embed_text(emb, q.text), max_k)
            dense[q.id] = score(hits, qrels.grades_for(q.id), int(k))
        runs = []
        for run_index in range(config.eval.repeats):
            run = {}
            for q in queries:
                sampling = SamplingConfig(
                    temperature=config.sampling.temperature,
                    max_output_tokens=config.sampling.max_output_tokens,
                    seed=derive_seed(config.seed, "eval", ds.name, run_index, q.id),
                )
                hits = hyde_search(q, gen, emb, index, fusion, max_k, sampling)
                run[q.id] = score(hits, qrels.grades_for(q.id), int(k))
            runs.append(run)
        if config.eval.pairing == "run":
            system[ds.name] = [sum(run.values()) / len(run) for run in runs]
            baseline[ds.name] = [sum(dense.values()) / len(dense)] * len(runs)
        else:
            system[ds.name] = [sum(run[qid] for run in runs) / len(runs) for qid in sorted(dense)]
            baseline[ds.name] = [dense[qid] for qid in sorted(dense)]
    compare = baseline if config.eval.compare_to_dense else None
    return report_to_dict(build_report(system, compare, metric=metric, pairing=config.eval.pairing))


def _assert_same_report(actual, expected):
    assert set(actual["datasets"]) == set(expected["datasets"])
    for name, result in expected["datasets"].items():
        assert actual["datasets"][name]["mean"] == pytest.approx(result["mean"], abs=1e-12)
        assert actual["datasets"][name]["values"] == pytest.approx(result["values"], abs=1e-12)
        assert actual["datasets"][name]["skipped"] == 0
    assert actual["average"] == pytest.approx(expected["average"], abs=1e-12)
    assert ("comparison" in actual) == ("comparison" in expected)
    if "comparison" in expected:
        for key in ("baseline_means", "improvement_pct", "p_values"):
            assert actual["comparison"][key] == pytest.approx(expected["comparison"][key], abs=1e-12)
        assert actual["comparison"]["pairing"] == expected["comparison"]["pairing"]


def _report_digests(out) -> dict:
    """The first 16 hex digits of the sha256 of out's report.json and report.txt."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in ("report.json", "report.txt")}


def _count_gen_requests(monkeypatch) -> list:
    """Record every mock generator request made from now on."""
    requests = []
    original = MockGeneratorClient.request_completions
    monkeypatch.setattr(
        MockGeneratorClient,
        "request_completions",
        lambda client, *args: requests.append(args) or original(client, *args),
    )
    return requests


def _record_embed_batches(monkeypatch) -> list:
    """Record the texts of every mock embedder request made from now on."""
    batches = []
    original = MockEmbedderClient.embed_batch
    monkeypatch.setattr(
        MockEmbedderClient, "embed_batch", lambda client, texts: batches.append(texts) or original(client, texts)
    )
    return batches


def _remove_sft_rows(sft_path):
    Path(str(sft_path) + ".rows").unlink()


def _out_bytes(out_dir):
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


RESOLVED_DEFAULTS = """\
benchmark:
  bm25_top_k: 20
  max_review_fraction: 0.25
  med_threshold: null
  raw_queries: ''
  raw_texts: ''
  rel_threshold: null
  rerank_top_m: 3
bm25:
  b: 0.4
  k1: 0.9
  tokenizer: cjk
clients: mock
dataset:
  corpus: ''
  name: dataset
  qrels: ''
  queries: ''
  template: null
datasets: []
embedder:
  api_key: ''
  backoff: 1.0
  batch_size: 64
  dim: 256
  endpoint: ''
  max_retries: 2
  model: ''
  timeout: 30.0
  truncate_chars: 1024
eval:
  compare_to_dense: true
  k_values:
  - 10
  - 100
  pairing: query
  primary_k: 10
  repeats: 5
fusion:
  n: null
  strategy: mean_pool
  template: Q2P
generator:
  api_key: ''
  backoff: 1.0
  endpoint: ''
  max_retries: 2
  model: ''
  timeout: 30.0
out_dir: runs/out
parallelism: 1
sampling:
  max_output_tokens: 512
  temperature: 0.7
seed: 0
selflearn:
  candidates_per_query: 5
  max_skip_fraction: 0.5
  negatives: 7
  rank_cutoff: 100
  rank_scoring: candidate
  reuse_pseudo: true
  sample_docs: null
  tau: 0.02
"""


class TestCommandSurface:
    """Every command takes the shared flags and its own, and no other command's."""

    SHARED = {"config": None, "seed": None, "out": None, "clients": None, "parallelism": None}
    # command -> {dest: (default, argv that sets it, value parsed from that argv)}
    OWN = {
        "embed-corpus": {},
        "search": {"k": (None, ["--k", "7"], 7)},
        "hyde-search": {"k": (None, ["--k", "0"], 0), "trace": (False, ["--trace"], True)},
        "evaluate": {"mode": ("hyde", ["--mode", "retriever"], "retriever")},
        "build-sft-data": {},
        "build-retriever-data": {"sft": (None, ["--sft", "x.jsonl"], "x.jsonl")},
        "construct-benchmark": {"texts": (None, ["--texts", "t"], "t"), "queries": (None, ["--queries", "q"], "q")},
    }

    @pytest.mark.parametrize("command", list(OWN))
    def test_own_flags_and_defaults(self, command):
        own = self.OWN[command]
        args = build_parser().parse_args([command])
        assert args.command == command
        assert {dest: getattr(args, dest) for dest in self.SHARED} == self.SHARED
        assert {dest: getattr(args, dest) for dest in own} == {dest: flag[0] for dest, flag in own.items()}
        others = {dest for flags in self.OWN.values() for dest in flags} - own.keys()
        assert not [dest for dest in others if hasattr(args, dest)]
        argv = [command, "--seed", "3"] + [token for _, given, _ in own.values() for token in given]
        args = build_parser().parse_args(argv)
        assert args.seed == 3
        assert {dest: getattr(args, dest) for dest in own} == {dest: flag[2] for dest, flag in own.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--trace"],
            ["search", "--mode", "hyde"],
            ["hyde-search", "--sft", "x"],
            ["evaluate", "--k", "5"],
            ["embed-corpus", "--texts", "x"],
            ["build-sft-data", "--sft", "x"],
            ["construct-benchmark", "--k", "3"],
        ],
    )
    def test_another_commands_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfig:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.clients == "mock"
        assert config.selflearn.negatives == 7
        assert config.selflearn.tau == 0.02
        assert config.eval.repeats == 5
        assert config.eval.primary_k == 10

    def test_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECRET_TOKEN", "s3cr3t")
        path = tmp_path / "c.yaml"
        path.write_text("generator:\n  api_key: ${SECRET_TOKEN}\n")
        config = load_config(path)
        assert config.generator.api_key == "s3cr3t"

    def test_missing_env_var_is_validation_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("generator:\n  api_key: ${DOES_NOT_EXIST_XYZ}\n")
        with pytest.raises(ValidationError, match="DOES_NOT_EXIST_XYZ"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        # `ann` configured the graph index that hard-negative mining no longer builds
        for text, key in (("bogus_key: 1\n", "'bogus_key'"), ("ann:\n  graph_degree: 16\n", "'ann'")):
            path.write_text(text)
            with pytest.raises(ValidationError, match=f"unknown top-level config key {key}"):
                load_config(path)

    def test_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"seed: 3\r\n# caf\xe9\r\nparallelism: 2\r\n")
        with pytest.raises(ParseError, match=r"byte 0xe9 is not UTF-8 in c\.yaml \(line 2\)$"):
            load_config(path)
        path.write_bytes("seed: 3\r\n# café\r\nparallelism: 2\r\n".encode())
        assert (load_config(path).seed, load_config(path).parallelism) == (3, 2)

    def test_control_character_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"seed: 3\r\nout_dir: x\r\na: \x07\n")
        with pytest.raises(ParseError) as raised:
            load_config(path)
        assert str(raised.value) == (
            "unacceptable character #x0007: special characters are not allowed in bad.yaml (line 3)"
        )

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 1\nout_dir: from_file\n")
        config = load_config(path, seed=99, out_dir="from_flag")
        assert config.seed == 99
        assert config.out_dir == "from_flag"

    def test_remote_requires_endpoints(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("clients: remote\n")
        with pytest.raises(ValidationError, match="endpoint"):
            load_config(path)

    def test_resolved_config_redacts_secrets(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOK", "visible-secret")
        path = tmp_path / "c.yaml"
        path.write_text("generator:\n  api_key: ${TOK}\n")
        config = load_config(path)
        write_resolved_config(config, tmp_path / "run")
        dumped = (tmp_path / "run" / "resolved_config.yaml").read_text()
        assert "visible-secret" not in dumped
        manifest = json.loads((tmp_path / "run" / "prompt_templates.json").read_text())
        assert "Q2P" in manifest and "{QUESTION}" in manifest["Q2P"]

    def test_resolved_config_bytes_are_pinned(self, tmp_path):
        write_resolved_config(load_config(None), tmp_path / "default")
        assert (tmp_path / "default" / "resolved_config.yaml").read_text() == RESOLVED_DEFAULTS
        path = tmp_path / "c.yaml"
        path.write_text("fusion:\n  strategy: mean_pool_k\n")
        write_resolved_config(load_config(path), tmp_path / "k")
        expected = RESOLVED_DEFAULTS.replace("  strategy: mean_pool\n", "  strategy: mean_pool_k\n")
        assert (tmp_path / "k" / "resolved_config.yaml").read_text() == expected

    def test_remote_client_builders_pass_every_field(self, tmp_path):
        generator = {
            "endpoint": "http://gen.invalid/v1", "model": "gen-m", "api_key": "gk",
            "timeout": 12.5, "max_retries": 4, "backoff": 0.25,
        }
        embedder = {
            "endpoint": "http://emb.invalid/v1", "model": "emb-m", "api_key": "ek", "dim": 8,
            "truncate_chars": 77, "batch_size": 9, "timeout": 7.0, "max_retries": 0, "backoff": 0.0,
        }
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({"clients": "remote", "generator": generator, "embedder": embedder}))
        config = load_config(path)
        gen, emb = build_generator_client(config), build_embedder_client(config)
        assert {key: getattr(gen, key) for key in generator} == generator
        assert {key: getattr(emb, key) for key in embedder} == embedder

    def test_unset_api_key_sends_no_authorization_header(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            yaml.safe_dump({"clients": "remote", "generator": {"endpoint": "g"}, "embedder": {"endpoint": "e", "dim": 2}})
        )
        config = load_config(path)
        sent = []

        class Session:
            def post(self, url, json, timeout, headers):
                sent.append(headers)
                return Response(json)

        class Response:
            def __init__(self, body):
                self.body = body

            def json(self):
                if "input" in self.body:
                    return {"data": [{"embedding": [1.0, 0.0]} for _ in self.body["input"]]}
                return {"choices": [{"message": {"content": "ok"}}]}

        gen, emb = build_generator_client(config), build_embedder_client(config)
        gen._session = emb._session = Session()
        gen.request_completions("prompt", SamplingConfig())
        emb.embed_batch(["text"])
        assert sent == [{}, {}]


class TestEmbedCorpusCommand:
    def test_creates_cache_and_rerun_is_noop(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        cache_path = out / "synthetic.emb"
        assert cache_path.exists()
        first = cache_path.read_bytes()
        first_mtime = os.stat(cache_path).st_mtime_ns
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        assert cache_path.read_bytes() == first
        assert os.stat(cache_path).st_mtime_ns == first_mtime  # untouched, not rewritten

    def test_corrupted_cache_rebuilt(self, tmp_path, caplog):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        main(["embed-corpus", "--config", str(config_path)])
        cache_path = out / "synthetic.emb"
        cache_path.write_bytes(b"corrupted!")
        with caplog.at_level(logging.WARNING):
            assert main(["embed-corpus", "--config", str(config_path)]) == 0
        loaded = load_cache(cache_path)
        assert len(loaded) == 20

    def test_resolved_config_written(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        main(["embed-corpus", "--config", str(config_path)])
        assert (out / "resolved_config.yaml").exists()
        assert (out / "prompt_templates.json").exists()


class TestWarmCache:
    def _warm(self, tmp_path, **extra):
        dataset = tmp_path / "data"
        docs, _, _ = make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out, **extra)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        return dataset, out, config_path, docs

    def test_text_edit_with_same_ids_rebuilds(self, tmp_path, caplog):
        dataset, out, config_path, docs = self._warm(tmp_path)
        edited = list(docs)
        edited[3] = Document(id=docs[3].id, text=docs[3].text + " amended")
        write_corpus(edited, dataset / "corpus.jsonl")
        with caplog.at_level(logging.WARNING):
            assert main(["embed-corpus", "--config", str(config_path)]) == 0
        assert "fingerprint mismatch" in caplog.text
        cache = load_cache(out / "synthetic.emb")
        expected = embed_text(MockEmbedderClient(dim=128), edited[3].indexed_text)
        assert cache.row(docs[3].id).tobytes() == expected.tobytes()

    def test_truncate_chars_change_rebuilds(self, tmp_path, caplog):
        dataset, out, _, docs = self._warm(tmp_path)
        config_path = make_config(tmp_path, dataset, out, embedder={"dim": 128, "truncate_chars": 16})
        with caplog.at_level(logging.WARNING):
            assert main(["search", "--config", str(config_path)]) == 0
        assert "fingerprint mismatch" in caplog.text
        cache = load_cache(out / "synthetic.emb")
        expected = embed_text(MockEmbedderClient(dim=128), docs[0].indexed_text[:16])
        assert cache.row(docs[0].id).tobytes() == expected.tobytes()

    def test_warm_commands_parse_the_corpus_only_to_sample(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        docs, _, _ = make_dataset(dataset)
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        loads, samples, batches = [], [], []
        monkeypatch.setattr(cli, "load_corpus", lambda path, **kw: loads.append(path) or load_corpus(path, **kw))
        monkeypatch.setattr(embed, "read_corpus", lambda path, *args: loads.append(path) or read_corpus(path, *args))
        sample = cli.sample_documents
        monkeypatch.setattr(cli, "sample_documents", lambda path, *args: samples.append(path) or sample(path, *args))
        original = MockEmbedderClient.embed_batch
        monkeypatch.setattr(
            MockEmbedderClient, "embed_batch", lambda client, texts: batches.append(texts) or original(client, texts)
        )
        flags = ["--config", str(config_path)]
        # cold: read once for the ids and once to embed, then once to sample
        assert main(["build-sft-data", *flags]) == 0
        assert (len(loads), len(samples)) == (2, 1)
        loads.clear()
        samples.clear()
        assert main(["build-sft-data", *flags]) == 0  # warm: never parsed whole, read once to sample
        assert (len(loads), len(samples)) == (0, 1)
        samples.clear()
        batches.clear()
        for command in (["embed-corpus"], ["search"], ["hyde-search"], ["evaluate"], ["build-retriever-data"]):
            assert main([*command, *flags]) == 0
        assert loads == samples == []
        corpus_texts = {doc.indexed_text for doc in docs}
        assert batches and not any(corpus_texts & set(batch) for batch in batches)

    def test_deleted_corpus_is_validation_exit(self, tmp_path, capsys):
        dataset, _, config_path, _ = self._warm(tmp_path)
        (dataset / "corpus.jsonl").unlink()
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert "corpus file not found" in capsys.readouterr().err

    def test_bad_line_appended_to_corpus_is_validation_exit(self, tmp_path, capsys):
        dataset, _, config_path, _ = self._warm(tmp_path)
        with (dataset / "corpus.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        assert main(["search", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "corpus.jsonl" in err and "(line 21)" in err


class TestSearchCommands:
    def test_search_writes_trec_run_matching_dense(self, tmp_path):
        dataset = tmp_path / "data"
        docs, queries, qrels = make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["search", "--config", str(config_path), "--k", "5"]) == 0
        runs = {}
        for line in (out / "run_synthetic.trec").read_text().splitlines():
            qid, _, doc_id, rank, _, _ = line.split()
            runs.setdefault(qid, []).append((int(rank), doc_id))
        assert set(runs) == {q.id for q in queries}
        emb = MockEmbedderClient(dim=128)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "check.emb")
        index = DenseIndex(cache)
        expected = dense_search(index, embed_text(emb, queries[0].text), 5)
        assert [d for _, d in sorted(runs[queries[0].id])] == expected.ids

    @pytest.mark.parametrize(
        "name, record", [("corpus", {"_id": "a b", "text": "body"}), ("queries", {"_id": "q 1", "text": "what"})]
    )
    def test_whitespace_in_an_id_exits_before_any_embedding(self, tmp_path, monkeypatch, capsys, name, record):
        dataset = tmp_path / "data"
        make_dataset(dataset)  # 20 documents and 20 queries
        with (dataset / f"{name}.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        batches = _record_embed_batches(monkeypatch)
        out = tmp_path / "run"
        assert main(["search", "--config", str(make_config(tmp_path, dataset, out))]) == 1
        assert f"contains whitespace in {name}.jsonl (line 21)" in capsys.readouterr().err
        assert batches == []
        assert not list(tmp_path.rglob("*.trec"))

    def test_hyde_search_with_trace(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["hyde-search", "--config", str(config_path), "--k", "5", "--trace"]) == 0
        assert (out / "run_synthetic.trec").exists()
        trace_lines = (out / "trace_synthetic.jsonl").read_text().splitlines()
        assert len(trace_lines) == 20
        record = json.loads(trace_lines[0])
        assert record["hypothetical_texts"] and record["hits"]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_search_is_hyde_search_without_a_hypothetical_document(self, tmp_path, monkeypatch, parallelism):
        # 140 queries: three chunks of the query-only plan
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=140, seed=8)
        requests = _count_gen_requests(monkeypatch)
        runs = {}
        for command in ("search", "hyde-search"):
            out = tmp_path / command
            config_path = make_config(tmp_path, dataset, out, fusion={"strategy": "mean_pool", "n": 0})
            assert main([command, "--config", str(config_path), "--parallelism", str(parallelism)]) == 0
            runs[command] = [line.split() for line in (out / "run_synthetic.trec").read_text().splitlines()]
        assert requests == []
        # the same lines but the tag column
        assert {line.pop() for line in runs["search"]} == {"dense"}
        assert {line.pop() for line in runs["hyde-search"]} == {"hyde"}
        assert len(runs["search"]) == 140 * 10
        assert runs["search"] == runs["hyde-search"]

    def test_dense_and_hyde_runs_keep_their_request_counts(self, tmp_path, monkeypatch):
        # 140 queries in batches of 16: the queries are embedded once, up
        # front (9 requests), and a dense run makes no request beyond that;
        # each chunk of the 280 HyDE tasks embeds its own hypothetical
        # documents (4 chunks of 64 and one of 24: 18 requests).
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=140, seed=8)
        config_path = make_config(tmp_path, dataset, tmp_path / "run", eval={"k_values": [10], "repeats": 2})
        assert main(["embed-corpus", "--config", str(config_path)]) == 0

        def embedder(config):
            emb = MockEmbedderClient(dim=config.embedder.dim)
            emb.batch_size = 16
            return emb

        monkeypatch.setattr(cli, "build_embedder_client", embedder)
        batches, requests = _record_embed_batches(monkeypatch), _count_gen_requests(monkeypatch)
        counts = {}
        for argv in (["search"], ["evaluate", "--mode", "retriever"], ["evaluate", "--mode", "hyde"]):
            batches.clear()
            requests.clear()
            assert main([*argv, "--config", str(config_path)]) == 0
            counts[" ".join(argv)] = (len(batches), sum(map(len, batches)), len(requests))
        # (embedder requests, texts embedded, generator requests)
        assert counts == {
            "search": (9, 140, 0),
            "evaluate --mode retriever": (9, 140, 0),
            "evaluate --mode hyde": (27, 420, 280),
        }


# The sha256 of every file test_multi_chunk_outputs_are_pinned writes, but
# resolved_config.yaml, at --parallelism 1 and 4 alike.
MULTI_CHUNK_DIGESTS = {
    "query/prompt_templates.json": "d2c4b1a32a12bd245090cfd330ceb995ea9eb2a5a0316cf5f9326e66adad73fe",
    "query/report.json": "110e9201b21babbdddf92b5ce90d5fb27bd8b27c015612ab279188e8fbc6f1f5",
    "query/report.txt": "16978bb1fa56627713cb8ca8df6ba2d6655a864384bfbb674c2e4b6c09ce46f2",
    "query/run_synthetic_r0.trec": "1a36dabca9663e41956a40f20ba14155ff62d01523eb55f14047b72ab8894d96",
    "query/run_synthetic_r1.trec": "6a23a23ea57667a77bba197735bdd2e3af16b27457ccde62825761d46b21eedd",
    "query/run_synthetic_r2.trec": "e11c43b561012c0f9cff3acbdb6c812dea4f6972954c3ca1195db04989b4e320",
    "query/synthetic.emb": "e29471687c6afceec337b447ed247d2d7c7579339562216b4579dd0b27a09625",
    "run/prompt_templates.json": "d2c4b1a32a12bd245090cfd330ceb995ea9eb2a5a0316cf5f9326e66adad73fe",
    "run/report.json": "770ace18ac2a7c7b7b08e0bd7c5aa80e6254304e68fc606744d7bbfa85ae1d68",
    "run/report.txt": "8e1b7bfea5c77cd1a82b2d227851ef1a0d3e7b841cd8b43b077148ce8af4a7af",
    "run/run_synthetic_r0.trec": "1a36dabca9663e41956a40f20ba14155ff62d01523eb55f14047b72ab8894d96",
    "run/run_synthetic_r1.trec": "6a23a23ea57667a77bba197735bdd2e3af16b27457ccde62825761d46b21eedd",
    "run/run_synthetic_r2.trec": "e11c43b561012c0f9cff3acbdb6c812dea4f6972954c3ca1195db04989b4e320",
    "run/synthetic.emb": "e29471687c6afceec337b447ed247d2d7c7579339562216b4579dd0b27a09625",
    "retriever/prompt_templates.json": "d2c4b1a32a12bd245090cfd330ceb995ea9eb2a5a0316cf5f9326e66adad73fe",
    "retriever/report.json": "46f440499a615d68098caf09b7663bcd45c76f40f2d7f822a72522b229b314d2",
    "retriever/report.txt": "7ead93795a9272d72d322afe56136aa905e2a17d74fadda9e7a321f2c0bdf1e5",
    "retriever/run_synthetic_r0.trec": "5a26ae833f4e3428767af0243ea9f12cdef33de3ab67786fdbad4c7a6576a70b",
    "retriever/synthetic.emb": "e29471687c6afceec337b447ed247d2d7c7579339562216b4579dd0b27a09625",
    "hyde-search/prompt_templates.json": "d2c4b1a32a12bd245090cfd330ceb995ea9eb2a5a0316cf5f9326e66adad73fe",
    "hyde-search/run_synthetic.trec": "5827e5fefa506058c7268fb7e45831e764a35e04e1aef5ad3aafe01c7e80df5f",
    "hyde-search/synthetic.emb": "e29471687c6afceec337b447ed247d2d7c7579339562216b4579dd0b27a09625",
    "hyde-search/trace_synthetic.jsonl": "d6e17ee2191bf6dbae7bbe8ff18aab33a07a9a2e6cbfd86d2428178aadb6a648",
    "search/prompt_templates.json": "d2c4b1a32a12bd245090cfd330ceb995ea9eb2a5a0316cf5f9326e66adad73fe",
    "search/run_synthetic.trec": "cc7a8b70229f67ecab175b33a0a89ebcbd4c9c3fa1bf0fad50b656d6dde50e89",
    "search/synthetic.emb": "e29471687c6afceec337b447ed247d2d7c7579339562216b4579dd0b27a09625",
}


# The sha256 of the SFT and triplet files test_multi_chunk_sft_outputs_are_pinned
# writes, at --parallelism 1 and 4 alike.
SFT_MULTI_CHUNK_DIGESTS = {
    "candidate/sft.jsonl": "4a02153fde3a267688d29ba55541c8b2f8eb8d11f4fcf2ea94ec9e5305cfa115",
    "candidate/sft.jsonl.rows": "d9eb9950b49c170bfbc7d64db5c258af2c217ff9e81de0a7ed97a97d709e0eeb",
    "candidate/sft_stats.json": "d3a8cba6646efd5c7217c30ab2f16868b602faa78b57793bb79789499e3b8e40",
    "candidate/triplets.jsonl": "169547711a164eaa89fe80504b962f6dc77ced84804502840b5d7d8f93bfc9c3",
    "candidate/triplets_stats.json": "bc6aeeff523350781afca82bcf84135132906427290f9e52860a9d2ec066b6fa",
    "fused/sft.jsonl": "3333741eb864ae1258c0328e93fd44d388dc047d4210bda1c581b866c14fb9d4",
    "fused/sft.jsonl.rows": "8a2b9c9c5b9e120dd0777874a30dd81dacf32352458a83a9eeb4e4f4e81ee948",
    "fused/sft_stats.json": "d3a8cba6646efd5c7217c30ab2f16868b602faa78b57793bb79789499e3b8e40",
    "fused/triplets.jsonl": "cd3b39c95d7f32570fb9223067f7fd74c69b13d596e789317ba394c20b78f3aa",
    "fused/triplets_stats.json": "1095d43f0af427e687a7e46597b66ebc0ab7b1698248b73b7c3ff9f92715dc75",
}


class TestEvaluateCommand:
    def test_retriever_mode_equals_direct_dense_metrics(self, tmp_path):
        dataset = tmp_path / "data"
        docs, queries, qrels = make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["evaluate", "--config", str(config_path), "--mode", "retriever"]) == 0
        payload = json.loads((out / "report.json").read_text())
        report = payload["reports"]["ndcg@10"]
        emb = MockEmbedderClient(dim=128)
        store = CorpusStore(docs)
        cache = cache_docs(emb, store, tmp_path / "check.emb")
        index = DenseIndex(cache)
        expected = []
        for query in queries:
            hits = dense_search(index, embed_text(emb, query.text), 10)
            expected.append(ndcg_at_k(hits, qrels.grades_for(query.id), 10))
        expected_mean = sum(expected) / len(expected)
        assert report["datasets"]["synthetic"]["mean"] == pytest.approx(expected_mean, abs=1e-12)

    def test_hyde_mode_reports_spread_and_comparison(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["repeats"] == 2
        per_run = payload["per_run"]["synthetic"]["ndcg@10"]
        assert len(per_run["run_means"]) == 2
        assert "spread" in per_run
        assert payload["reports"]["ndcg@10"]["comparison"]["pairing"] == "query"
        assert (out / "run_synthetic_r0.trec").exists()
        assert (out / "run_synthetic_r1.trec").exists()
        text = (out / "report.txt").read_text()
        assert "improve%" in text

    def test_zero_dense_baseline_keeps_the_finished_evaluation(self, tmp_path):
        dataset = tmp_path / "data"
        _, queries, _ = make_dataset(dataset)
        # every judged document is missing from the corpus: every run scores 0
        write_qrels(RelevanceJudgments(entries={q.id: {f"gone-{q.id}": 1} for q in queries}), dataset / "qrels.tsv")
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 0
        report = json.loads((out / "report.json").read_text())["reports"]["ndcg@10"]
        assert report["comparison"]["improvement_pct"] == {"synthetic": None}
        assert report["comparison"]["average_improvement_pct"] is None
        assert report["datasets"]["synthetic"]["values"] == [0.0] * len(queries)
        assert (out / "run_synthetic_r0.trec").stat().st_size and (out / "run_synthetic_r1.trec").stat().st_size
        assert (out / "report.txt").read_text().splitlines()[2].split()[-2:] == ["-", "1.0000"]

    def test_run_pairing_matches_direct_computation(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            dataset,
            out,
            eval={"k_values": [5, 10], "primary_k": 10, "repeats": 3, "pairing": "run"},
        )
        assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 0
        payload = json.loads((out / "report.json").read_text())
        for metric in ("ndcg@10", "recall@5", "recall@10"):
            report = payload["reports"][metric]
            _assert_same_report(report, _direct_hyde_report(config_path, metric, tmp_path))
            assert report["comparison"]["pairing"] == "run"
            run_means = payload["per_run"]["synthetic"][metric]["run_means"]
            assert report["datasets"]["synthetic"]["values"] == run_means

    @pytest.mark.parametrize("pairing", ["query", "run"])
    def test_qrels_without_a_positive_grade_is_validation_exit(self, tmp_path, capsys, pairing):
        dataset = tmp_path / "data"
        _, queries, _ = make_dataset(dataset, n_docs=5)
        docs = load_corpus(dataset / "corpus.jsonl")
        write_qrels(
            RelevanceJudgments(entries={q.id: {doc.id: 0} for q, doc in zip(queries, docs)}),
            dataset / "qrels.tsv",
        )
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path, dataset, out, eval={"k_values": [10], "primary_k": 10, "repeats": 2, "pairing": pairing}
        )
        assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 1
        assert "dataset has no scored queries" in capsys.readouterr().err

    def test_two_datasets_without_dense_comparison(self, tmp_path):
        make_dataset(tmp_path / "alpha", n_docs=12, seed=1)
        make_dataset(tmp_path / "beta", n_docs=12, seed=2)
        datasets = [
            {
                "name": name,
                "corpus": str(tmp_path / name / "corpus.jsonl"),
                "queries": str(tmp_path / name / "queries.jsonl"),
                "qrels": str(tmp_path / name / "qrels.tsv"),
            }
            for name in ("alpha", "beta")
        ]
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            tmp_path / "alpha",
            out,
            datasets=datasets,
            eval={"k_values": [10], "primary_k": 10, "repeats": 2, "compare_to_dense": False},
        )
        assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 0
        payload = json.loads((out / "report.json").read_text())
        for metric in ("ndcg@10", "recall@10"):
            report = payload["reports"][metric]
            _assert_same_report(report, _direct_hyde_report(config_path, metric, tmp_path))
            assert "comparison" not in report
        assert "improve%" not in (out / "report.txt").read_text()
        assert sorted(p.name for p in out.glob("*.trec")) == [
            f"run_{name}_r{r}.trec" for name in ("alpha", "beta") for r in range(2)
        ]
        assert _report_digests(out) == {
            "report.json": "9e18124c4faee4a9",
            "report.txt": "456c535ea923cf94",
        }

    def test_without_dense_comparison_no_dense_search_is_made(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=30, seed=3)
        searched = []  # the query-row count of every chunk's search, dense and HyDE alike
        original = hyde.search_many
        monkeypatch.setattr(
            hyde, "search_many", lambda index, rows, k: searched.append(len(rows)) or original(index, rows, k)
        )
        calls, digests = {}, {}
        for compare in (True, False):
            out = tmp_path / f"run-{compare}"
            eval_settings = {"k_values": [10], "primary_k": 10, "repeats": 2, "compare_to_dense": compare}
            config_path = make_config(tmp_path, dataset, out, eval=eval_settings)
            searched.clear()
            assert main(["evaluate", "--config", str(config_path), "--mode", "hyde"]) == 0
            calls[compare] = list(searched)
            digests[compare] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                for name in ("report.json", "report.txt", "run_synthetic_r0.trec", "run_synthetic_r1.trec")
            }
        # the dense run of the 30 judged queries, one chunk, is the one call
        # the comparison adds; the two repeats' 60 tasks are another chunk
        assert calls[False] == [60]
        assert calls[True] == [30] + calls[False]
        for name in ("run_synthetic_r0.trec", "run_synthetic_r1.trec"):
            assert digests[False][name] == digests[True][name]
        # the bytes written when every judged query was also searched densely
        assert digests[False] == {
            "report.json": "1643e59337b68eed",
            "report.txt": "beb06e710f8f4f4a",
            "run_synthetic_r0.trec": "4985a99e4926a811",
            "run_synthetic_r1.trec": "d1da18456a5fd018",
        }

    def test_memory_holds_one_run_whatever_the_repeats(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=200)
        peaks = {}
        for repeats in (1, 4):
            config_path = make_config(
                tmp_path, dataset, tmp_path / "run", eval={"k_values": [100], "primary_k": 10, "repeats": repeats}
            )
            assert main(["embed-corpus", "--config", str(config_path)]) == 0  # a warm cache, built untraced
            tracemalloc.start()
            try:
                assert main(["evaluate", "--mode", "hyde", "--config", str(config_path)]) == 0
                _, peaks[repeats] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # what one run keeps in memory: its hits and meta, searched a second
        # time so that the mock embedder's memo no longer grows
        config = load_config(config_path)
        emb, gen = build_embedder_client(config), build_generator_client(config)
        index = DenseIndex(load_cache(tmp_path / "run" / "synthetic.emb"))
        queries = load_queries(dataset / "queries.jsonl")
        args = (config, emb, index, queries, 100, gen, config.fusion, [("eval", "synthetic", 0)])
        run = dict(cli._run_queries(*args))
        del run
        tracemalloc.start()
        try:
            run = dict(cli._run_queries(*args))
            run_size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(run) == 200
        # three more runs cost their metric values, never a run each
        assert peaks[4] - peaks[1] < run_size

    def test_memory_grows_with_queries_by_their_rows_and_sums_only(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data"
        _, queries, qrels = make_dataset(dataset, n_docs=1024)
        dim = 128
        peaks = {}
        for count in (256, 1024):
            judged = queries[:count]
            write_queries(judged, dataset / "queries.jsonl")
            write_qrels(RelevanceJudgments(entries={q.id: qrels.entries[q.id] for q in judged}), dataset / "qrels.tsv")
            config_path = make_config(
                tmp_path,
                dataset,
                tmp_path / "run",
                embedder={"dim": dim},
                eval={"k_values": [200], "primary_k": 10, "repeats": 2},
            )
            # one embedder, warmed by an untraced run, so that its memo no longer grows
            emb = MockEmbedderClient(dim=dim)
            monkeypatch.setattr(cli, "build_embedder_client", lambda config: emb)
            assert main(["evaluate", "--mode", "hyde", "--config", str(config_path)]) == 0
            tracemalloc.start()
            try:
                assert main(["evaluate", "--mode", "hyde", "--config", str(config_path)]) == 0
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # A query's floor: its embedding row as the embedder's float32 batch
        # and the float32 matrix hold it (8 bytes a dimension), and 1 KiB for
        # its Query, its qrels entry, its known row and its values and running
        # sums. The dense run searches a chunk's rows at a time, so no float64
        # copy of every query's row fits, nor a run of 200 hits a query (ids
        # and float64 scores).
        floor = 8 * dim + 1024
        assert peaks[1024] - peaks[256] < (1024 - 256) * floor

    def test_late_validation_error_leaves_no_run_file(self, tmp_path, monkeypatch):
        for name in ("alpha", "beta"):
            make_dataset(tmp_path / name, n_docs=12)
        datasets = [
            {
                "name": name,
                "corpus": str(tmp_path / name / "corpus.jsonl"),
                "queries": str(tmp_path / name / "queries.jsonl"),
                "qrels": str(tmp_path / name / "qrels.tsv") if name == "alpha" else "",
            }
            for name in ("alpha", "beta")
        ]
        written = []
        monkeypatch.setattr(
            cli, "write_trec_run", lambda run, path, tag: written.append(path.name) or write_trec_run(run, path, tag)
        )
        config_path = make_config(tmp_path, tmp_path / "alpha", tmp_path / "run", datasets=datasets)
        assert main(["evaluate", "--mode", "hyde", "--config", str(config_path)]) == 1
        assert written == ["run_alpha_r0.trec", "run_alpha_r1.trec"]  # staged before beta was read
        self._assert_no_outputs(tmp_path)

    def test_embedder_failure_in_a_later_repeat_leaves_no_run_file(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=40)  # 3 repeats of 40 queries: 120 tasks, two chunks
        staged_runs = []

        class FailingOnceARunIsStaged(MockEmbedderClient):
            def embed_batch(self, texts):
                staged_runs.extend(tmp_path.glob("run.staging-*/run_*.trec"))
                if staged_runs:
                    raise TransportError("embedder went away")
                return super().embed_batch(texts)

        monkeypatch.setattr(cli, "build_embedder_client", lambda config: FailingOnceARunIsStaged(dim=128))
        config_path = make_config(
            tmp_path, dataset, tmp_path / "run", eval={"k_values": [10], "primary_k": 10, "repeats": 3}
        )
        assert main(["evaluate", "--mode", "hyde", "--config", str(config_path)]) == 2
        assert {path.name for path in staged_runs} == {"run_synthetic_r0.trec"}
        self._assert_no_outputs(tmp_path)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_multi_chunk_outputs_are_pinned(self, tmp_path, monkeypatch, parallelism):
        # 140 queries, 130 judged, 3 repeats: 390 tasks in chunks of 64, so
        # each run ends inside a chunk; the dense passes cover three blocks
        docs = synthetic_docs(140, seed=5)
        queries = queries_for_docs(docs, seed=6)
        entries = {}
        for i, (query, doc) in enumerate(zip(queries, docs)):
            if i % 13 == 12:
                continue  # unjudged
            entries[query.id] = {doc.id: 0 if i % 11 == 10 else 1}  # a zero grade only: skipped
            if i % 7 == 3:
                entries[query.id][docs[(i + 1) % len(docs)].id] = 2
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_corpus(docs, dataset / "corpus.jsonl")
        write_queries(queries, dataset / "queries.jsonl")
        write_qrels(RelevanceJudgments(entries=entries), dataset / "qrels.tsv")

        def generator(config):
            # an empty completion for about one (query, repeat) seed in nine:
            # those fall back to the query alone, so a chunk fuses mixed sizes
            return MockGeneratorClient(
                seed=derive_seed(config.seed, "generator"), responder=lambda prompt, cfg: "" if cfg.seed % 9 == 0 else None
            )

        monkeypatch.setattr(cli, "build_generator_client", generator)
        commands = {
            "query": (["evaluate", "--mode", "hyde"], "query"),
            "run": (["evaluate", "--mode", "hyde"], "run"),
            "retriever": (["evaluate", "--mode", "retriever"], "query"),
            "hyde-search": (["hyde-search", "--trace"], "query"),
            "search": (["search"], "query"),
        }
        digests, codes = {}, {}
        for name, (argv, pairing) in commands.items():
            eval_settings = {"k_values": [10, 100], "primary_k": 10, "repeats": 3, "pairing": pairing}
            config_path = make_config(
                tmp_path, dataset, tmp_path / name, eval=eval_settings, fusion={"strategy": "mean_pool_k", "n": 3}
            )
            codes[name] = main([*argv, "--config", str(config_path), "--parallelism", str(parallelism)])
            for path in sorted((tmp_path / name).iterdir()):
                if path.name != "resolved_config.yaml":  # it holds the parallelism and tmp_path
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert codes == {"query": 3, "run": 3, "retriever": 0, "hyde-search": 3, "search": 0}
        assert digests == MULTI_CHUNK_DIGESTS

    @staticmethod
    def _assert_no_outputs(tmp_path):
        assert not list(tmp_path.rglob("run_*.trec"))
        assert not list(tmp_path.rglob("report.json"))
        assert not list(tmp_path.glob("*.staging-*"))

    def test_missing_qrels_is_validation_exit(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        (dataset / "qrels.tsv").unlink()
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["evaluate", "--config", str(config_path)]) == 1

    def test_qrels_documents_missing_from_corpus_are_counted_in_a_warning(self, tmp_path, caplog):
        dataset = tmp_path / "data"
        _, queries, qrels = make_dataset(dataset)
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        flags = ["evaluate", "--mode", "retriever", "--config", str(config_path)]

        def warnings():
            return [r.getMessage() for r in caplog.records if "qrels documents" in r.getMessage()]

        with caplog.at_level(logging.WARNING, logger="slhyde.cli"):
            assert main(flags) == 0
            assert warnings() == []
            qrels.entries[queries[0].id]["ghost-a"] = 1
            qrels.entries[queries[1].id]["ghost-b"] = 0
            qrels.entries[queries[2].id]["ghost-a"] = 2
            write_qrels(qrels, dataset / "qrels.tsv")
            assert main(flags) == 0
        assert warnings() == [
            "2 qrels documents missing from the corpus still count in the nDCG ideal and the recall denominator"
        ]


class TestBuildDataCommands:
    def test_sft_then_triplets_chain(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        assert validate_sft_file(out / "sft.jsonl") > 0
        stats = json.loads((out / "sft_stats.json").read_text())
        assert stats["total_documents"] == 20
        assert main(["build-retriever-data", "--config", str(config_path)]) == 0
        count = len(load_triplets_jsonl(out / "triplets.jsonl"))
        assert count == stats["emitted"]
        tstats = json.loads((out / "triplets_stats.json").read_text())
        assert tstats["negatives_per_triplet"] == 3
        assert tstats["mean_reference_loss"] >= 0.0

    def test_negatives_are_exact_top_m_with_one_request_per_triplet(self, tmp_path, monkeypatch):
        # 2,000 documents: large enough that an approximate graph search misses
        # some of the true nearest neighbours.
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=2000, seed=3)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path, dataset, out, selflearn={"candidates_per_query": 2, "negatives": 7, "sample_docs": 80}
        )
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path)]) == 0
        triplets = load_triplets_jsonl(out / "triplets.jsonl")
        assert len(triplets) > 40
        # the SFT stage's rows hold every query and pseudo-document
        assert batches == []
        with_rows = (out / "triplets.jsonl").read_bytes()
        _remove_sft_rows(out / "sft.jsonl")
        assert main(["build-retriever-data", "--config", str(config_path)]) == 0
        assert (out / "triplets.jsonl").read_bytes() == with_rows
        # without them, one request per chunk of 64 triplets, holding each one's query and pseudo-document
        assert [len(batch) for batch in batches] == [
            2 * len(triplets[start : start + 64]) for start in range(0, len(triplets), 64)
        ]

        config = load_config(config_path)
        emb = build_embedder_client(config)
        cache = load_cache(out / "synthetic.emb")
        index = DenseIndex(cache)
        losses = []
        for triplet in triplets:
            fused = embed_texts(emb, [triplet.query, triplet.pseudo]).mean(axis=0)
            exact = [(d, s) for d, s in dense_search(index, fused, 8) if d != triplet.positive][:7]
            assert list(triplet.negatives) == [d for d, _ in exact]
            assert triplet.scores == dict(exact)
            negative_rows = [cache.row(d) for d in triplet.negatives]
            losses.append(contrastive_loss(fused, cache.row(triplet.positive), negative_rows, config.selflearn.tau))
        stats = json.loads((out / "triplets_stats.json").read_text())
        assert stats["mean_reference_loss"] == sum(losses) / len(losses)

    def test_triplets_without_sft_is_validation_error(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path)]) == 1
        assert batches == []  # the corpus is not embedded for a command that cannot run

    def test_sft_doc_id_not_in_corpus_exits_before_any_request(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        selflearn = {"candidates_per_query": 2, "negatives": 3, "reuse_pseudo": False}
        config_path = make_config(tmp_path, dataset, out, selflearn=selflearn)
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        lines = (out / "sft.jsonl").read_text("utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        record["meta"]["doc_id"] = "nosuchdoc"
        bad = tmp_path / "bad_sft.jsonl"
        bad.write_text(lines[0] + "\n" + json.dumps(record) + "\n" + "".join(lines[2:]), "utf-8")
        requests = _count_gen_requests(monkeypatch)
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path), "--sft", str(bad)]) == 1
        assert "meta.doc_id 'nosuchdoc' is not in the corpus in bad_sft.jsonl (line 3)" in capsys.readouterr().err
        assert requests == [] and batches == []
        assert not (out / "triplets.jsonl").exists()

    def test_unknown_doc_id_in_the_third_chunk_exits_before_any_request(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data"
        docs, _, _ = make_dataset(dataset)
        out = tmp_path / "run"
        settings = {"candidates_per_query": 2, "negatives": 3, "reuse_pseudo": False}
        config_path = make_config(tmp_path, dataset, out, selflearn=settings)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        # 150 examples: chunks of 64, 64 and 22; record 141 names no corpus document
        examples = [
            selflearn.SftExample(f"query {i}", f"response {i}", docs[i % len(docs)].id, 1, 2) for i in range(150)
        ]
        examples[140] = dataclasses.replace(examples[140], doc_id="nosuchdoc")
        sft = tmp_path / "sft.jsonl"
        selflearn.emit_sft_jsonl(examples, sft)
        requests = _count_gen_requests(monkeypatch)
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path), "--sft", str(sft)]) == 1
        assert "meta.doc_id 'nosuchdoc' is not in the corpus in sft.jsonl (line 141)" in capsys.readouterr().err
        assert requests == [] and batches == []
        assert not (out / "triplets.jsonl").exists()

    def test_a_run_failed_by_max_skip_fraction_promotes_nothing(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=140)
        out = tmp_path / "run"
        selflearn = {"candidates_per_query": 2, "negatives": 3, "sample_docs": 130}
        config_path = make_config(tmp_path, dataset, out, selflearn=selflearn)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        staged = []

        def refuse_most(prompt, cfg):
            # each request's seed decides: about one document in nine gets both its requests answered
            staged.extend(tmp_path.glob("run.staging-*/sft.jsonl.*.part"))
            if cfg.seed % 3:
                raise SlhydeError("refused")
            return None

        monkeypatch.setattr(cli, "build_generator_client", lambda config: MockGeneratorClient(responder=refuse_most))
        assert main(["build-sft-data", "--config", str(config_path)]) == 2
        assert "documents failed; exceeds allowed fraction 0.5" in capsys.readouterr().err
        assert staged  # the first chunks' lines were written into staging before the check
        for name in ("sft.jsonl", "sft.jsonl.rows", "sft_stats.json"):
            assert not (out / name).exists()
        TestEvaluateCommand._assert_no_outputs(tmp_path)

    def test_corpus_too_small_to_mine_exits_before_any_request(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=6)
        out = tmp_path / "run"
        selflearn = {"candidates_per_query": 2, "negatives": 7, "reuse_pseudo": False}
        config_path = make_config(tmp_path, dataset, out, selflearn=selflearn)
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        requests = _count_gen_requests(monkeypatch)
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path)]) == 1
        assert "corpus of 6 is too small to mine 7 negatives" in capsys.readouterr().err
        assert requests == [] and batches == []
        assert not (out / "triplets.jsonl").exists()

    def test_deterministic_rerun(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        main(["build-sft-data", "--config", str(config_path)])
        first = (out / "sft.jsonl").read_bytes()
        main(["build-sft-data", "--config", str(config_path)])
        assert (out / "sft.jsonl").read_bytes() == first

    def test_memory_grows_with_the_sample_by_its_documents_only(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=600)
        dim = 64
        # one embedder, warmed by untraced runs of the larger sample (whose
        # draw starts with the smaller one), so that its memo no longer grows
        emb = MockEmbedderClient(dim=dim)
        monkeypatch.setattr(cli, "build_embedder_client", lambda config: emb)
        commands = ("build-sft-data", "build-retriever-data")
        configs = {}
        for count in (576, 192):  # 9 and 3 chunks of 64
            (tmp_path / str(count)).mkdir()
            selflearn = {"candidates_per_query": 2, "negatives": 3, "sample_docs": count}
            configs[count] = make_config(
                tmp_path / str(count), dataset, tmp_path / f"run{count}", embedder={"dim": dim}, selflearn=selflearn
            )
        for command in commands:
            assert main([command, "--config", str(configs[576])]) == 0
        peaks = {}
        for count, command in itertools.product((192, 576), commands):
            tracemalloc.start()
            try:
                assert main([command, "--config", str(configs[count])]) == 0
                _, peaks[command, count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert json.loads((tmp_path / "run576" / "triplets_stats.json").read_text())["count"] > 128
        # A sampled document's floor: build-sft-data keeps its Document (a
        # 215-character text here) and the two ids of its rows until the end,
        # and build-retriever-data nothing. Holding every example with its
        # rows, and every triplet, grew them by 1.5 and 2.1 KB a document.
        floor = 512
        for command in commands:
            assert peaks[command, 576] - peaks[command, 192] < (576 - 192) * floor

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_multi_chunk_sft_outputs_are_pinned(self, tmp_path, monkeypatch, parallelism):
        # 130 of 160 documents sampled: SFT chunks of 64, 64 and 2, and more
        # than 64 triplets. About one document in two gets candidates made of
        # the shared filler and 0 to 2 of its own extra tokens, so their ranks
        # spread and tie, and some best ranks pass the cutoff.
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=160, seed=11)

        def responder(prompt, cfg):
            if "Document: " not in prompt or cfg.seed % 2:
                return None
            tokens = prompt.split("Document: ")[1].split("\n")[0].split()
            if cfg.num_samples == 1:
                return " ".join(tokens[6:10])
            return [" ".join(tokens[6:18] + tokens[18 : 18 + (cfg.seed >> i) % 3]) for i in range(cfg.num_samples)]

        monkeypatch.setattr(
            cli,
            "build_generator_client",
            lambda config: MockGeneratorClient(seed=derive_seed(config.seed, "generator"), responder=responder),
        )
        digests, stats = {}, {}
        for rank_scoring, reuse_pseudo in (("candidate", True), ("fused", False)):
            out = tmp_path / rank_scoring
            selflearn = {
                "candidates_per_query": 3, "negatives": 5, "rank_cutoff": 3, "rank_scoring": rank_scoring,
                "reuse_pseudo": reuse_pseudo, "sample_docs": 130,
            }
            config_path = make_config(tmp_path, dataset, out, selflearn=selflearn)
            for command in ("build-sft-data", "build-retriever-data"):
                assert main([command, "--config", str(config_path), "--parallelism", str(parallelism)]) == 0
            stats[rank_scoring] = json.loads((out / "sft_stats.json").read_text())
            for name in ("sft.jsonl", "sft.jsonl.rows", "sft_stats.json", "triplets.jsonl", "triplets_stats.json"):
                digests[f"{rank_scoring}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        for s in stats.values():
            assert s["total_documents"] == 130 and s["skipped_errors"] == 0
            assert s["dropped_by_cutoff"] > 0 and s["emitted"] > 64
        assert digests == SFT_MULTI_CHUNK_DIGESTS


class TestSftRowsReuse:
    """build-retriever-data reuses build-sft-data's rows only when they are
    current, and its triplets never depend on whether it did."""

    def _sft(self, tmp_path, **extra):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=30, seed=5)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out, **extra)
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        return config_path, out

    def _triplets(self, config_path, out, *flags) -> bytes:
        assert main(["build-retriever-data", "--config", str(config_path), *flags]) == 0
        return (out / "triplets.jsonl").read_bytes()

    def _without_rows(self, config_path, out, sft) -> bytes:
        """triplets.jsonl from a run whose SFT file has no rows file."""
        _remove_sft_rows(sft)
        return self._triplets(config_path, out, "--sft", str(sft))

    def _all_texts(self, out) -> list[list[str]]:
        """Each triplet chunk's query and pseudo-document texts, as the embedder sees them."""
        texts = [text for t in load_triplets_jsonl(out / "triplets.jsonl") for text in (t.query, t.pseudo)]
        return [texts[start : start + 128] for start in range(0, len(texts), 128)]

    def test_fresh_rows_make_no_triplet_request(self, tmp_path, monkeypatch, caplog):
        config_path, out = self._sft(tmp_path)
        assert (out / "sft.jsonl.rows").exists()
        batches = _record_embed_batches(monkeypatch)
        with caplog.at_level(logging.INFO, logger="slhyde.selflearn"):
            with_rows = self._triplets(config_path, out)
        assert batches == []
        assert "reusing SFT rows" in caplog.text
        assert self._without_rows(config_path, out, out / "sft.jsonl") == with_rows
        assert batches == self._all_texts(out)

    @pytest.mark.parametrize("stale", ["edited_sft", "truncate_chars"])
    def test_stale_rows_are_not_used(self, tmp_path, monkeypatch, caplog, stale):
        config_path, out = self._sft(tmp_path)
        if stale == "edited_sft":
            lines = (out / "sft.jsonl").read_text().splitlines(keepends=True)
            (out / "sft.jsonl").write_text("".join(lines[:-1]))
        else:
            config = yaml.safe_load(config_path.read_text())
            config["embedder"]["truncate_chars"] = 60
            config_path.write_text(yaml.safe_dump(config))
            assert main(["embed-corpus", "--config", str(config_path)]) == 0
        batches = _record_embed_batches(monkeypatch)
        with caplog.at_level(logging.INFO, logger="slhyde.selflearn"):
            stale_rows = self._triplets(config_path, out)
        assert "embedding the SFT texts again" in caplog.text
        assert "fingerprint mismatch" in caplog.text
        cut = 60 if stale == "truncate_chars" else 1024
        assert batches == [[text[:cut] for text in chunk] for chunk in self._all_texts(out)]
        assert self._without_rows(config_path, out, out / "sft.jsonl") == stale_rows

    def test_rows_listing_other_examples_are_not_used(self, tmp_path, monkeypatch, caplog):
        config_path, out = self._sft(tmp_path)
        with_rows = self._triplets(config_path, out)
        rows_file = out / "sft.jsonl.rows"
        rows = load_cache(rows_file)
        # the same count and fingerprint, but the examples' ids in reverse order
        doc_ids = [row_id.split(":", 1)[1] for row_id in rows.ids[::2]]
        ids = [f"{key}:{doc_id}" for doc_id in reversed(doc_ids) for key in ("input", "output")]
        fingerprint = embed.cache_fingerprint(
            build_embedder_client(load_config(config_path)), corpus_file_digest(out / "sft.jsonl")
        )
        embed.save_cache(embed.EmbeddingCache(ids, rows.matrix), rows_file, fingerprint)
        batches = _record_embed_batches(monkeypatch)
        with caplog.at_level(logging.INFO, logger="slhyde.selflearn"):
            assert self._triplets(config_path, out) == with_rows
        assert "embedding the SFT texts again" in caplog.text and "does not list the examples" in caplog.text
        assert batches == self._all_texts(out)

    @pytest.mark.parametrize("where", ["deleted", "copy"])
    def test_missing_rows_embed_as_before(self, tmp_path, monkeypatch, caplog, where):
        config_path, out = self._sft(tmp_path)
        with_rows = self._triplets(config_path, out)
        sft = out / "sft.jsonl"
        if where == "copy":
            sft = tmp_path / "elsewhere" / "sft.jsonl"
            sft.parent.mkdir()
            shutil.copyfile(out / "sft.jsonl", sft)
        else:
            _remove_sft_rows(sft)
        batches = _record_embed_batches(monkeypatch)
        with caplog.at_level(logging.INFO, logger="slhyde.selflearn"):
            assert self._triplets(config_path, out, "--sft", str(sft)) == with_rows
        assert "cache file not found" in caplog.text
        assert batches == self._all_texts(out)

    def test_fresh_pseudo_documents_alone_are_embedded(self, tmp_path, monkeypatch):
        config_path, out = self._sft(tmp_path, selflearn={"candidates_per_query": 2, "negatives": 3, "reuse_pseudo": False})
        batches = _record_embed_batches(monkeypatch)
        with_rows = self._triplets(config_path, out)
        triplets = load_triplets_jsonl(out / "triplets.jsonl")
        responses = {example.response for example in load_sft_jsonl(out / "sft.jsonl")}
        # the queries' rows come from the SFT stage; a pseudo-document equal to a response is reused too
        assert batches == [list(dict.fromkeys(t.pseudo for t in triplets if t.pseudo not in responses))]
        assert self._without_rows(config_path, out, out / "sft.jsonl") == with_rows

    def test_dataset_named_sft_keeps_its_corpus_cache(self, tmp_path, monkeypatch, caplog):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=30, seed=5)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            dataset,
            out,
            dataset={
                "name": "sft",
                "corpus": str(dataset / "corpus.jsonl"),
                "queries": str(dataset / "queries.jsonl"),
            },
        )
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        corpus_cache = (out / "sft.emb").read_bytes()
        batches = _record_embed_batches(monkeypatch)
        with caplog.at_level(logging.INFO):
            assert main(["build-retriever-data", "--config", str(config_path)]) == 0
        assert "reusing embedding cache" in caplog.text and "rebuilding" not in caplog.text
        assert batches == []
        assert (out / "sft.emb").read_bytes() == corpus_cache


class TestConstructBenchmarkCommand:
    def _raw_inputs(self, root):
        root.mkdir(parents=True, exist_ok=True)
        texts = [{"_id": f"t{i}", "text": f"condition {i} symptoms and treatment details"} for i in range(6)]
        queries = [{"_id": f"q{i}", "text": f"how to treat condition {i}"} for i in range(3)]
        (root / "texts.jsonl").write_text("".join(json.dumps(t) + "\n" for t in texts))
        (root / "queries.jsonl").write_text("".join(json.dumps(q) + "\n" for q in queries))
        return root / "texts.jsonl", root / "queries.jsonl"

    def test_mock_run_emits_dataset_and_report(self, tmp_path):
        texts_path, queries_path = self._raw_inputs(tmp_path / "raw")
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, tmp_path / "raw", out)
        code = main(
            [
                "construct-benchmark",
                "--config", str(config_path),
                "--texts", str(texts_path),
                "--queries", str(queries_path),
            ]
        )
        assert code == 0
        qrels = load_qrels(out / "qrels.tsv")
        assert len(qrels.entries) == 3  # every query got validated pairs via autopilot judge
        report = json.loads((out / "qc_report.json").read_text())
        assert report["flagged"] is False
        assert (out / "resolved_config.yaml").exists()

    def test_rerun_byte_identical(self, tmp_path):
        texts_path, queries_path = self._raw_inputs(tmp_path / "raw")
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, tmp_path / "raw", out)
        argv = [
            "construct-benchmark",
            "--config", str(config_path),
            "--texts", str(texts_path),
            "--queries", str(queries_path),
        ]
        assert main(argv) == 0
        first = _out_bytes(out)
        assert main(argv) == 0
        assert _out_bytes(out) == first

    def test_missing_inputs_validation_exit(self, tmp_path):
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, tmp_path / "raw", out)
        assert main(["construct-benchmark", "--config", str(config_path)]) == 1

    def test_empty_input_gives_valid_empty_dataset(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "texts.jsonl").write_text("")
        (raw / "queries.jsonl").write_text("")
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, raw, out)
        code = main(
            [
                "construct-benchmark",
                "--config", str(config_path),
                "--texts", str(raw / "texts.jsonl"),
                "--queries", str(raw / "queries.jsonl"),
            ]
        )
        assert code == 0
        assert load_qrels(out / "qrels.tsv").entries == {}
        assert (out / "corpus.jsonl").read_text() == ""
        report = json.loads((out / "qc_report.json").read_text())
        assert any("ZERO" in w for w in report["warnings"])

    def test_flagged_run_exits_degraded(self, tmp_path, monkeypatch):
        texts_path, queries_path = self._raw_inputs(tmp_path / "raw")
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, tmp_path / "raw", out)

        from slhyde.textgen import MockGeneratorClient
        import slhyde.cli as cli_module

        # a judge that never produces JSON floods the review bucket
        monkeypatch.setattr(
            cli_module,
            "build_generator_client",
            lambda config: MockGeneratorClient(responder=lambda p, c: "never json"),
        )
        code = main(
            [
                "construct-benchmark",
                "--config", str(config_path),
                "--texts", str(texts_path),
                "--queries", str(queries_path),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "name, record, line",
        [
            ("texts.jsonl", {"_id": "t0", "text": "a second t0"}, 7),
            ("queries.jsonl", {"_id": "q0", "text": "a second q0"}, 4),
            ("texts.jsonl", {"_id": "t6", "text": "   "}, 7),
        ],
        ids=["duplicate_text_id", "duplicate_query_id", "blank_text"],
    )
    def test_bad_raw_input_exits_before_any_judge_request(self, tmp_path, monkeypatch, capsys, name, record, line):
        texts_path, queries_path = self._raw_inputs(tmp_path / "raw")
        with (tmp_path / "raw" / name).open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, tmp_path / "raw", out)
        requests = _count_gen_requests(monkeypatch)
        argv = ["construct-benchmark", "--config", str(config_path)]
        argv += ["--texts", str(texts_path), "--queries", str(queries_path)]
        assert main(argv) == 1
        assert f"in {name} (line {line})" in capsys.readouterr().err
        assert requests == []
        assert not out.exists()
        assert not list(tmp_path.glob("bench.staging*"))

    def test_remote_requires_thresholds(self, tmp_path):
        texts_path, queries_path = self._raw_inputs(tmp_path / "raw")
        config = {
            "clients": "remote",
            "out_dir": str(tmp_path / "bench"),
            "generator": {"endpoint": "http://g", "model": "m"},
            "embedder": {"endpoint": "http://e", "model": "m", "dim": 8},
        }
        path = tmp_path / "remote.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(
            [
                "construct-benchmark",
                "--config", str(path),
                "--texts", str(texts_path),
                "--queries", str(queries_path),
            ]
        )
        assert code == 1  # thresholds are mandatory for production runs

    # sha256 (first 16 hex digits) of each file construct-benchmark writes for
    # the titled raw texts below: the bytes it wrote when it judged (id, text)
    # pairs, before it judged the loaded Documents
    TITLED_DIGESTS = {
        "corpus.jsonl": "b448dde7b0132799",
        "qc_report.json": "c098e4e156d32139",
        "qc_report.txt": "e1e23c7cd4f5542a",
        "qrels.tsv": "2b61354332b58a79",
        "queries.jsonl": "675680b75f6bfd0d",
    }

    def test_a_titled_raw_text_is_judged_indexed_and_written_without_its_title(self, tmp_path):
        root = tmp_path / "raw"
        root.mkdir()
        # titles that would move the BM25 ranking and the judge prompts if they were kept
        texts = [
            {"_id": f"t{i}", "title": f"how to treat condition {5 - i}", "text": f"condition {i} symptoms and treatment"}
            for i in range(6)
        ]
        queries = [{"_id": f"q{i}", "text": f"how to treat condition {i}"} for i in range(3)]
        (root / "titled.jsonl").write_text("".join(json.dumps(t) + "\n" for t in texts))
        (root / "untitled.jsonl").write_text(
            "".join(json.dumps({key: t[key] for key in ("_id", "text")}) + "\n" for t in texts)
        )
        (root / "queries.jsonl").write_text("".join(json.dumps(q) + "\n" for q in queries))
        outputs = {}
        for name in ("titled", "untitled"):
            out = tmp_path / name
            config_path = make_config(tmp_path, root, out)
            argv = ["construct-benchmark", "--config", str(config_path)]
            assert main(argv + ["--texts", str(root / f"{name}.jsonl"), "--queries", str(root / "queries.jsonl")]) == 0
            outputs[name] = {key: (out / key).read_bytes() for key in self.TITLED_DIGESTS}
        assert outputs["titled"] == outputs["untitled"]
        corpus = [json.loads(line) for line in outputs["titled"]["corpus.jsonl"].splitlines()]
        assert corpus and all(set(record) == {"_id", "text"} for record in corpus)
        assert outputs["titled"]["qrels.tsv"].count(b"\n") > 1  # pairs were matched, not just a header
        digests = {key: hashlib.sha256(data).hexdigest()[:16] for key, data in outputs["titled"].items()}
        assert digests == self.TITLED_DIGESTS

    def test_memory_grows_with_the_raw_inputs_by_their_records_only(self, tmp_path, capsys):
        peaks = {}
        for n in (500, 2000):  # n texts and n queries
            dataset = tmp_path / f"data{n}"
            make_dataset(dataset, n_docs=n)
            config_path = make_config(tmp_path, dataset, tmp_path / f"bench{n}")
            argv = ["construct-benchmark", "--config", str(config_path)]
            argv += ["--texts", str(dataset / "corpus.jsonl"), "--queries", str(dataset / "queries.jsonl")]
            assert main(argv) == 0  # untraced, so that what a first run caches is not counted
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # The loaded text and query (their Documents, strings and ids), their
        # stage-1 verdicts and BM25 postings make up most of the growth
        # (measured 1,277 bytes a pair). The same texts also held as (id, text)
        # tuples, in an id -> text dict and as a second Document a kept text
        # took it to 1,344.
        assert (peaks[2000] - peaks[500]) / 1500 < 1320


class TestCorpusOnlyDataset:
    """The label-free commands run from a corpus alone; each command that
    reads queries or qrels exits 1 naming the key the dataset lacks."""

    def _config(self, tmp_path, **paths):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        config = yaml.safe_load(config_path.read_text())
        config["dataset"] = {"name": "syn", "corpus": str(dataset / "corpus.jsonl"), **paths}
        config_path.write_text(yaml.safe_dump(config))
        return config_path

    def test_label_free_commands_exit_0(self, tmp_path):
        config_path = self._config(tmp_path)
        for command in ("embed-corpus", "build-sft-data", "build-retriever-data"):
            assert main([command, "--config", str(config_path)]) == 0, command
        assert load_triplets_jsonl(tmp_path / "run" / "triplets.jsonl")

    @pytest.mark.parametrize("command", ["search", "hyde-search", "evaluate"])
    def test_commands_that_read_queries_name_the_key(self, tmp_path, capsys, command):
        assert main([command, "--config", str(self._config(tmp_path))]) == 1
        assert "dataset 'syn' has no queries path" in capsys.readouterr().err

    def test_evaluate_names_qrels(self, tmp_path, capsys):
        config_path = self._config(tmp_path, queries=str(tmp_path / "data" / "queries.jsonl"))
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert "dataset 'syn' has no qrels path" in capsys.readouterr().err


class TestMultiDatasetAndTemplates:
    def test_per_dataset_template_override(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            dataset,
            out,
            dataset={
                "name": "synthetic",
                "corpus": str(dataset / "corpus.jsonl"),
                "queries": str(dataset / "queries.jsonl"),
                "qrels": str(dataset / "qrels.tsv"),
                "template": "T2P",
            },
        )
        config = load_config(config_path)
        assert config.dataset.template == "T2P"
        assert main(["hyde-search", "--config", str(config_path), "--k", "3"]) == 0

    def test_retriever_data_uses_the_dataset_template(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            dataset,
            out,
            dataset={
                "name": "synthetic",
                "corpus": str(dataset / "corpus.jsonl"),
                "queries": str(dataset / "queries.jsonl"),
                "template": "T2P",
            },
            selflearn={"candidates_per_query": 2, "negatives": 3, "reuse_pseudo": False},
        )
        assert main(["build-sft-data", "--config", str(config_path)]) == 0
        requests = _count_gen_requests(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path)]) == 0
        t2p = load_template("T2P")
        expected = [render_prompt(t2p, {"TITLE": e.query}) for e in load_sft_jsonl(out / "sft.jsonl")]
        assert expected and [prompt for prompt, _ in requests] == expected

    def test_unknown_template_override_rejected(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        # MED_RELEVANCE is a shipped prompt, but not a hypothetical-document one
        for template in ("NOT_A_TEMPLATE", "MED_RELEVANCE"):
            out = tmp_path / template
            config_path = make_config(
                tmp_path,
                dataset,
                out,
                dataset={
                    "name": "synthetic",
                    "corpus": str(dataset / "corpus.jsonl"),
                    "queries": str(dataset / "queries.jsonl"),
                    "qrels": str(dataset / "qrels.tsv"),
                    "template": template,
                },
            )
            with pytest.raises(ValidationError):
                load_config(config_path)
            assert main(["hyde-search", "--config", str(config_path)]) == 1
            assert not list(out.glob("*.emb"))

    def test_non_hyde_fusion_template_rejected(self, tmp_path, capsys):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out, fusion={"template": "MED_RELEVANCE"})
        with pytest.raises(ValidationError, match="MED_RELEVANCE"):
            load_config(config_path)
        assert main(["hyde-search", "--config", str(config_path)]) == 1
        assert "MED_RELEVANCE" in capsys.readouterr().err
        assert not list(out.glob("*.emb"))

    @pytest.mark.parametrize("command", ["build-sft-data", "build-retriever-data"])
    def test_single_dataset_commands_reject_several(self, tmp_path, capsys, command):
        roots = [tmp_path / "a", tmp_path / "b"]
        for seed, root in enumerate(roots):
            make_dataset(root, n_docs=10, seed=seed)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            roots[0],
            out,
            datasets=[
                {
                    "name": root.name,
                    "corpus": str(root / "corpus.jsonl"),
                    "queries": str(root / "queries.jsonl"),
                    "qrels": str(root / "qrels.tsv"),
                }
                for root in roots
            ],
        )
        assert main([command, "--config", str(config_path)]) == 1
        assert f"{command} takes one dataset, but the config lists 2" in capsys.readouterr().err
        assert not list(out.glob("*.emb"))

    def test_repeated_dataset_name_is_refused_at_load(self, tmp_path, capsys):
        ds_a, ds_b = tmp_path / "a", tmp_path / "b"
        make_dataset(ds_a, n_docs=10, seed=1)
        make_dataset(ds_b, n_docs=8, seed=2)
        out = tmp_path / "run"
        entries = [
            {"name": "syn", "corpus": str(root / "corpus.jsonl"), "queries": str(root / "queries.jsonl"),
             "qrels": str(root / "qrels.tsv")}
            for root in (ds_a, ds_b)
        ]
        config_path = make_config(tmp_path, ds_a, out, datasets=entries)
        with pytest.raises(ValidationError, match="datasets lists the name 'syn' more than once"):
            load_config(config_path)
        for command in ("embed-corpus", "evaluate"):
            assert main([command, "--config", str(config_path)]) == 1
            assert "'syn'" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_beside_datasets_is_refused_at_load(self, tmp_path, capsys):
        root = tmp_path / "a"
        make_dataset(root, n_docs=10, seed=1)
        entry = {"name": "a", "corpus": str(root / "corpus.jsonl"), "queries": str(root / "queries.jsonl"),
                 "qrels": str(root / "qrels.tsv")}
        out = tmp_path / "run"
        config_path = make_config(tmp_path, root, out, datasets=[entry])
        config = yaml.safe_load(config_path.read_text())
        both = tmp_path / "both.yaml"
        both.write_text(yaml.safe_dump({**config, "dataset": {**entry, "name": "b"}}))
        with pytest.raises(ValidationError, match="both.yaml sets both dataset and datasets"):
            load_config(both)
        assert main(["evaluate", "--config", str(both)]) == 1
        assert "both.yaml sets both dataset and datasets" in capsys.readouterr().err
        assert not out.exists()
        # an empty datasets list drops nothing, so it may stand beside dataset
        both.write_text(yaml.safe_dump({**config, "dataset": entry, "datasets": []}))
        assert load_config(both).all_datasets()[0].name == "a"
        # the snapshot of a several-dataset run leaves dataset out, so it loads again
        write_resolved_config(load_config(config_path), out)
        snapshot = out / "resolved_config.yaml"
        assert "dataset" not in yaml.safe_load(snapshot.read_text())
        assert [dataset.name for dataset in load_config(snapshot).all_datasets()] == ["a"]

    def test_multi_dataset_evaluate_averages(self, tmp_path):
        ds_a = tmp_path / "a"
        ds_b = tmp_path / "b"
        make_dataset(ds_a, n_docs=10, seed=1)
        make_dataset(ds_b, n_docs=10, seed=2)
        out = tmp_path / "run"
        config_path = make_config(
            tmp_path,
            ds_a,
            out,
            datasets=[
                {
                    "name": name,
                    "corpus": str(root / "corpus.jsonl"),
                    "queries": str(root / "queries.jsonl"),
                    "qrels": str(root / "qrels.tsv"),
                }
                for name, root in (("alpha", ds_a), ("beta", ds_b))
            ],
        )
        assert main(["evaluate", "--config", str(config_path), "--mode", "retriever"]) == 0
        payload = json.loads((out / "report.json").read_text())
        report = payload["reports"]["ndcg@10"]
        assert set(report["datasets"]) == {"alpha", "beta"}
        means = [report["datasets"][n]["mean"] for n in ("alpha", "beta")]
        assert report["average"] == pytest.approx(sum(means) / 2)
        assert _report_digests(out) == {
            "report.json": "9d1d8deb50063865",
            "report.txt": "67c7ee22f0cb7291",
        }


def test_requests_is_imported_only_by_a_remote_client_without_a_session():
    # mock runs, and remote clients given a session, never load the HTTP stack
    script = "\n".join(
        [
            "import sys, slhyde.cli",
            "from slhyde.embed import RemoteEmbedderClient",
            "from slhyde.textgen import RemoteGeneratorClient",
            "print('requests' in sys.modules)",
            "RemoteEmbedderClient('http://localhost:9', 'm', 8, session=object())",
            "RemoteGeneratorClient('http://localhost:9', 'm', session=object())",
            "print('requests' in sys.modules)",
            "RemoteGeneratorClient('http://localhost:9', 'm')",
            "print('requests' in sys.modules)",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False", "True"]


def test_importing_the_cli_loads_only_numpy_yaml_and_the_standard_library():
    # Compared with what the bare interpreter loaded at start-up (site .pth
    # files may load packages such as certifi there). A module without a
    # __spec__ was made by an extension (Cython's runtime modules), not imported.
    script = "\n".join(
        [
            "import sys",
            "before = set(sys.modules)",
            "import slhyde.cli",
            "added = {name.split('.')[0] for name, module in sys.modules.items()",
            "         if name not in before and getattr(module, '__spec__', None) is not None}",
            "print(' '.join(sorted(added - set(sys.stdlib_module_names))))",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert "scipy" not in added and "requests" not in added
    assert added <= {"numpy", "yaml", "slhyde"}


def test_no_loader_imports_jsonschema(tmp_path):
    # jsonschema is a test-only dependency: with it unimportable, the CLI and
    # every record reader still work on real files
    dataset = tmp_path / "data"
    make_dataset(dataset)
    sft, triplets = tmp_path / "sft.jsonl", tmp_path / "triplets.jsonl"
    selflearn.emit_sft_jsonl([selflearn.SftExample("q", "p", "d0", 1, 5), selflearn.SftExample("q", "p", "d1", 2, 5)], sft)
    selflearn.emit_triplets_jsonl([selflearn.RetrieverTriplet("q", "p", "d0", ("d1", "d2"), {"d1": 0.5})], triplets)
    script = "\n".join(
        [
            "import sys",
            "sys.modules['jsonschema'] = None",
            "import slhyde.cli",
            "from slhyde.corpus import load_corpus",
            "from slhyde.selflearn import load_triplets_jsonl, validate_sft_file",
            f"print(validate_sft_file({str(sft)!r}), len(load_triplets_jsonl({str(triplets)!r})),"
            f" len(load_corpus({str(dataset / 'corpus.jsonl')!r})))",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["2", "1", "20"]


class TestExitCodes:
    def test_missing_config_file(self):
        assert main(["search", "--config", "/does/not/exist.yaml"]) == 1

    def test_a_config_path_that_is_a_directory_exits_1_naming_it(self, tmp_path, capsys, caplog):
        (tmp_path / "out").mkdir()
        assert main(["embed-corpus", "--config", str(tmp_path / "out")]) == 1
        assert f"config file not found: {tmp_path / 'out'}" in capsys.readouterr().err
        assert "unexpected failure" not in caplog.text

    def test_an_sft_path_that_is_a_directory_exits_1_naming_it(self, tmp_path, monkeypatch, capsys, caplog):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        (tmp_path / "out").mkdir()
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        batches = _record_embed_batches(monkeypatch)
        assert main(["build-retriever-data", "--config", str(config_path), "--sft", str(tmp_path / "out")]) == 1
        assert f"SFT dataset not found: {tmp_path / 'out'}" in capsys.readouterr().err
        assert "unexpected failure" not in caplog.text and batches == []

    @pytest.mark.parametrize("command", ["embed-corpus", "evaluate"])
    def test_a_cache_path_that_is_a_directory_exits_1_before_any_request(
        self, tmp_path, monkeypatch, capsys, caplog, command
    ):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        cache_path = tmp_path / "run" / "synthetic.emb"
        cache_path.mkdir(parents=True)
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        batches, requests = _record_embed_batches(monkeypatch), _count_gen_requests(monkeypatch)
        assert main([command, "--config", str(config_path)]) == 1
        assert f"embedding cache path {cache_path} is not a regular file" in capsys.readouterr().err
        assert "unexpected failure" not in caplog.text and "rebuilding" not in caplog.text
        assert batches == [] and requests == []
        assert cache_path.is_dir() and not list(cache_path.iterdir())

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    @pytest.mark.parametrize("command", ["construct-benchmark", "evaluate"])
    def test_out_naming_a_file_exits_before_any_request(self, tmp_path, monkeypatch, capsys, command, below):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        config_path = make_config(tmp_path, dataset, tmp_path / "run")
        argv = [command, "--config", str(config_path), "--out", str(taken / "run" if below else taken)]
        if command == "construct-benchmark":
            argv += ["--texts", str(dataset / "corpus.jsonl"), "--queries", str(dataset / "queries.jsonl")]
        batches, requests = _record_embed_batches(monkeypatch), _count_gen_requests(monkeypatch)
        assert main(argv) == 1
        assert f"{taken} is a file" in capsys.readouterr().err
        assert batches == [] and requests == []
        assert taken.read_text() == "a file\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.yaml", "data", "taken"]

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "..", ".", "", "nul\0"])
    def test_a_dataset_name_that_is_not_a_file_name_writes_nothing(self, tmp_path, capsys, name):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        files = {"corpus": "corpus.jsonl", "queries": "queries.jsonl", "qrels": "qrels.tsv"}
        entry = {"name": name, **{key: str(dataset / file) for key, file in files.items()}}
        config_path = make_config(tmp_path, dataset, tmp_path / "out", dataset=entry)
        for command in ("embed-corpus", "evaluate"):
            assert main([command, "--config", str(config_path)]) == 1
            assert f"dataset.name {name!r} is not a file name" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.yaml", "data"]
        assert sorted(path.name for path in dataset.iterdir()) == sorted(files.values())

    def test_failed_promotion_removes_the_staging_dir(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(FileExistsError):
            with cli.staged_outputs(load_config(None, out_dir=str(out))) as staging:
                (staging / "report.txt").write_text("done\n")
                out.write_text("a file made while the run was staged\n")
        assert [path.name for path in tmp_path.iterdir()] == ["run"]

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("parallelism: 0\n")
        assert main(["embed-corpus", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "text, problem, line",
        [
            ("seed: [1\n", "expected ',' or ']'", 2),
            ("seed: 1\nout_dir: runs\n  clients: mock\n", "mapping values are not allowed here", 3),
        ],
    )
    def test_yaml_syntax_error_names_the_file_and_line(self, tmp_path, capsys, text, problem, line):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert main(["embed-corpus", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert problem in err and f" in c.yaml (line {line})" in err
        assert "unicode string" not in err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("build-sft-data", "selflearn", "rank_scoring", "fussed"),
            ("evaluate", "eval", "pairing", "runs"),
            ("build-sft-data", "selflearn", "sample_docs", 0),
            ("embed-corpus", "embedder", "truncate_chars", 0),
            ("embed-corpus", "embedder", "batch_size", -1),
            ("construct-benchmark", "bm25", "tokenizer", "whitespace"),
            ("build-sft-data", "selflearn", "candidates_per_query", 0),
            ("build-sft-data", "selflearn", "rank_cutoff", 0),
            ("build-retriever-data", "selflearn", "negatives", 0),
            ("build-sft-data", "selflearn", "max_skip_fraction", 2),
            ("build-sft-data", "selflearn", "max_skip_fraction", -0.1),
            ("build-sft-data", "sampling", "temperature", -1),
            ("build-sft-data", "sampling", "temperature", float("nan")),
            ("build-sft-data", "sampling", "temperature", float("inf")),
            ("build-sft-data", "selflearn", "tau", float("nan")),
            ("build-retriever-data", "selflearn", "tau", float("inf")),
            ("evaluate", "sampling", "max_output_tokens", 0),
            ("embed-corpus", "bm25", "k1", -1),
            ("construct-benchmark", "bm25", "k1", float("inf")),
            ("embed-corpus", "bm25", "b", 7),
            ("embed-corpus", "bm25", "tokenizer", "bogus"),
            ("embed-corpus", "benchmark", "max_review_fraction", 5),
            ("embed-corpus", "benchmark", "med_threshold", 2),
            ("build-sft-data", "generator", "max_retries", -1),
            ("evaluate", "generator", "timeout", 0),
            ("hyde-search", "generator", "backoff", -1),
            ("hyde-search", "generator", "backoff", float("inf")),
            ("construct-benchmark", "generator", "backoff", float("nan")),
            ("evaluate", "generator", "timeout", float("inf")),
            ("embed-corpus", "embedder", "max_retries", -1),
            ("embed-corpus", "embedder", "timeout", -5),
            ("search", "embedder", "backoff", -0.5),
            ("embed-corpus", "embedder", "backoff", float("inf")),
            ("search", "embedder", "backoff", float("nan")),
            ("embed-corpus", "embedder", "dim", 1),
        ],
    )
    def test_bad_setting_exits_before_any_request(self, tmp_path, monkeypatch, capsys, command, section, key, value):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        raw = {"raw_texts": str(dataset / "corpus.jsonl"), "raw_queries": str(dataset / "queries.jsonl")}
        config_path = make_config(tmp_path, dataset, tmp_path / "run", benchmark=raw)
        config = yaml.safe_load(config_path.read_text())
        config.setdefault(section, {})[key] = value
        config_path.write_text(yaml.safe_dump(config))
        requests = _count_gen_requests(monkeypatch)
        assert main([command, "--config", str(config_path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert requests == []
        assert not list(tmp_path.rglob("*.emb"))

    @pytest.mark.parametrize(
        "record",
        [
            {"_id": "d-null", "text": None},
            {"_id": None, "text": "body"},
            {"_id": "d\nx", "text": "body"},
            b'{"_id": "d-ff", "text": "caf\xff"}',  # a byte that is not UTF-8
            b'{"_id": "d-sur", "text": "bad \\ud800 text"}',  # an ASCII line escaping a lone surrogate
        ],
    )
    def test_bad_corpus_record_exits_before_any_embedding(self, tmp_path, monkeypatch, capsys, record):
        dataset = tmp_path / "data"
        make_dataset(dataset)  # 20 documents
        with (dataset / "corpus.jsonl").open("ab") as fh:
            fh.write((record if isinstance(record, bytes) else json.dumps(record).encode()) + b"\n")
        batches = _record_embed_batches(monkeypatch)
        assert main(["embed-corpus", "--config", str(make_config(tmp_path, dataset, tmp_path / "run"))]) == 1
        assert "corpus.jsonl (line 21)" in capsys.readouterr().err
        assert batches == []

    @staticmethod
    def _remote_config(tmp_path, monkeypatch, content, embedding=None):
        """A remote-client config whose endpoints are served in process: every
        completion has `content`, and every embedding is `embedding`, or the
        mock embedder's row when that is None."""
        mock = MockEmbedderClient(dim=16)

        def answer(body):
            if "input" not in body:
                return {"choices": [{"message": {"content": content}}]}
            rows = mock.embed_batch(body["input"]).tolist()
            return {"data": [{"embedding": row if embedding is None else embedding} for row in rows]}

        monkeypatch.setattr("requests.Session", lambda: StubEndpoint(answer))
        dataset = tmp_path / "data"
        make_dataset(dataset)
        endpoint = {"max_retries": 1, "backoff": 0.0}
        return make_config(
            tmp_path,
            dataset,
            tmp_path / "run",
            clients="remote",
            generator={"endpoint": "http://gen.invalid/v1", **endpoint},
            embedder={"endpoint": "http://emb.invalid/v1", "dim": 16, **endpoint},
        )

    def test_null_completions_degrade_hyde_to_query_only(self, tmp_path, monkeypatch):
        config_path = self._remote_config(tmp_path, monkeypatch, content=None)
        assert main(["hyde-search", "--config", str(config_path)]) == 3
        assert (tmp_path / "run" / "run_synthetic.trec").exists()

    def test_unreadable_embedding_is_a_protocol_error(self, tmp_path, monkeypatch, capsys):
        config_path = self._remote_config(tmp_path, monkeypatch, content="ok", embedding=[1.0, "x"])
        assert main(["embed-corpus", "--config", str(config_path)]) == 2
        assert "malformed embedding response" in capsys.readouterr().err

    def test_client_error_status_exits_without_a_retry(self, tmp_path, monkeypatch, capsys):
        config_path = self._remote_config(tmp_path, monkeypatch, content="ok")  # max_retries 1
        session = StubEndpoint(None, status_code=400)
        monkeypatch.setattr("requests.Session", lambda: session)
        assert main(["embed-corpus", "--config", str(config_path)]) == 2
        assert "HTTP 400" in capsys.readouterr().err
        assert len(session.headers) == 1

    def test_judge_client_error_ends_construct_benchmark(self, tmp_path, monkeypatch, capsys):
        # a bad key would fail every item alike, so it is not sent to review
        raw = tmp_path / "raw"
        texts, queries = TestConstructBenchmarkCommand()._raw_inputs(raw)
        session = StubEndpoint(None, status_code=401)
        monkeypatch.setattr("requests.Session", lambda: session)
        config_path = make_config(
            tmp_path,
            raw,
            tmp_path / "bench",
            clients="remote",
            generator={"endpoint": "http://gen.invalid/v1", "max_retries": 1, "backoff": 0.0},
            embedder={"endpoint": "http://emb.invalid/v1"},
            benchmark={"med_threshold": 0.5, "rel_threshold": 0.6},
        )
        argv = ["construct-benchmark", "--config", str(config_path)]
        assert main(argv + ["--texts", str(texts), "--queries", str(queries)]) == 2
        assert "HTTP 401" in capsys.readouterr().err
        assert len(session.headers) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "raw"]  # nothing staged or promoted

    @pytest.mark.parametrize("section, key, value", [("bm25", "k1", "high"), ("benchmark", "max_review_fraction", None)])
    def test_wrong_type_in_section_is_validation_exit(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({section: {key: value}}))
        assert main(["embed-corpus", "--config", str(path)]) == 1
        assert f"config section {section!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"eval": {"primary_k": "x"}}, "eval.primary_k"),
            ({"parallelism": "2"}, "parallelism"),
            ({"fusion": {"n": "3"}}, "fusion.n"),
            ({"sampling": {"temperature": "hot"}}, "sampling.temperature"),
            ({"embedder": {"dim": "x"}}, "embedder.dim"),
            ({"eval": {"compare_to_dense": "no"}}, "eval.compare_to_dense"),
            ({"selflearn": {"reuse_pseudo": "no"}}, "selflearn.reuse_pseudo"),
            ({"selflearn": {"negatives": 2.5}}, "selflearn.negatives"),
            ({"selflearn": {"tau": True}}, "selflearn.tau"),
            ({"generator": {"max_retries": "2"}}, "generator.max_retries"),
            ({"benchmark": {"bm25_top_k": 2.5}}, "benchmark.bm25_top_k"),
            ({"dataset": {"name": 7}}, "dataset.name"),
        ],
    )
    def test_wrong_type_checked_at_load_is_validation_exit(self, tmp_path, capsys, config, key):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["embed-corpus", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_embedder_failure_in_hyde_search_is_runtime_exit(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)  # 20 queries: one chunk
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0

        def refuse(client, texts):
            raise TransportError("embedder down")

        generators = []
        monkeypatch.setattr(MockEmbedderClient, "embed_batch", refuse)
        monkeypatch.setattr(
            cli, "build_generator_client", lambda config: generators.append(build_generator_client(config)) or generators[-1]
        )
        assert main(["hyde-search", "--config", str(config_path)]) == 2
        assert generators[0].calls == 20  # the whole chunk was generated before the embedder failed
        assert not list(out.glob("run_*.trec"))

    def test_staging_never_leaves_partial_outputs(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        (dataset / "qrels.tsv").unlink()  # evaluate will fail validation
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert not (out / "report.json").exists()
        assert not list(tmp_path.glob("run.staging*"))

    def test_other_runs_staging_dir_survives(self, tmp_path):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        other = tmp_path / "run.staging"
        other.mkdir()
        (other / "sentinel").write_text("in use")
        assert main(["search", "--config", str(config_path)]) == 0
        assert (other / "sentinel").read_text() == "in use"
        assert (out / "run_synthetic.trec").exists()
        assert [p.name for p in tmp_path.glob("run.staging*")] == ["run.staging"]

    def test_malformed_input_line_is_validation_exit(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "texts.jsonl").write_text(json.dumps({"_id": "t0", "text": "body"}) + "\n{broken\n")
        (raw / "queries.jsonl").write_text(json.dumps({"_id": "q0", "text": "question"}) + "\n")
        config_path = make_config(tmp_path, raw, tmp_path / "bench")
        argv = ["construct-benchmark", "--config", str(config_path)]
        argv += ["--texts", str(raw / "texts.jsonl"), "--queries", str(raw / "queries.jsonl")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "texts.jsonl" in err and "(line 2)" in err

    @pytest.mark.parametrize("command", ["search", "hyde-search"])
    def test_nonpositive_k_flag_is_validation_exit(self, tmp_path, command, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        requests = _count_gen_requests(monkeypatch)
        assert main([command, "--config", str(config_path), "--k", "0"]) == 1
        assert not (out / "run_synthetic.trec").exists()
        # k is checked before the corpus is embedded and before any generation
        assert not list(tmp_path.rglob("*.emb"))
        assert requests == []

    def test_empty_query_file_gives_empty_run(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        (dataset / "queries.jsonl").write_text("")
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out)
        assert main(["embed-corpus", "--config", str(config_path)]) == 0
        batches = []
        original = MockEmbedderClient.embed_batch
        monkeypatch.setattr(
            MockEmbedderClient, "embed_batch", lambda client, texts: batches.append(texts) or original(client, texts)
        )
        assert main(["search", "--config", str(config_path)]) == 0
        assert (out / "run_synthetic.trec").read_text() == ""
        assert batches == []

    @pytest.mark.parametrize("k_values", [[], [0, 10]])
    def test_bad_k_values_is_validation_exit(self, tmp_path, k_values):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        eval_section = {"k_values": k_values, "primary_k": 10, "repeats": 2}
        config_path = make_config(tmp_path, dataset, tmp_path / "run", eval=eval_section)
        assert main(["search", "--config", str(config_path)]) == 1


def _tree_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestParallelismDeterminism:
    def test_outputs_identical_at_parallelism_1_and_2(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset)
        out = tmp_path / "run"
        config_path = make_config(tmp_path, dataset, out, fusion={"strategy": "mean_pool_k", "n": 3})
        trees = []
        threads = {}

        def recording(stage, original):
            def record_thread(*args, **kwargs):
                threads.setdefault((stage, parallelism), set()).add(threading.get_ident())
                time.sleep(0.002)  # long enough for a second worker to pick up an item
                return original(*args, **kwargs)

            return record_thread

        clients = []

        def recording_client(build):
            def build_and_record(config):
                clients.append(build(config))
                return clients[-1]

            return build_and_record

        monkeypatch.setattr(cli, "hypothesize", recording("hyde", cli.hypothesize))
        monkeypatch.setattr(selflearn, "generate_query_for_doc", recording("sft", selflearn.generate_query_for_doc))
        monkeypatch.setattr(cli, "build_embedder_client", recording_client(cli.build_embedder_client))
        monkeypatch.setattr(cli, "build_generator_client", recording_client(cli.build_generator_client))
        requests = []
        for parallelism in ("1", "2"):
            flags = ["--config", str(config_path), "--parallelism", parallelism]
            assert main(["hyde-search", "--trace", *flags]) == 0
            # hyde-search is one run, so only a pool over queries uses a second thread
            assert len(threads.pop(("hyde", parallelism))) == int(parallelism)
            assert main(["evaluate", "--mode", "hyde", *flags]) == 0
            assert main(["build-sft-data", *flags]) == 0
            assert len(threads.pop(("sft", parallelism))) == int(parallelism)
            assert main(["build-retriever-data", *flags]) == 0
            tree = _tree_bytes(out)
            resolved = yaml.safe_load(tree.pop("resolved_config.yaml"))
            assert resolved.pop("parallelism") == int(parallelism)
            trees.append((tree, resolved))
            requests.append([(type(client).__name__, client.calls) for client in clients])
            clients.clear()
            shutil.rmtree(out)
        assert trees[0] == trees[1]
        assert {
            "trace_synthetic.jsonl", "run_synthetic_r1.trec", "sft.jsonl", "sft.jsonl.rows", "triplets.jsonl",
        } <= set(trees[0][0])
        # every command's embedder and generator make as many requests at either parallelism
        assert len(requests[0]) == 8 and requests[0] == requests[1]

    def test_construct_benchmark_identical_at_parallelism_1_and_4(self, tmp_path, monkeypatch):
        dataset = tmp_path / "data"
        make_dataset(dataset, n_docs=40)
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, dataset, out)
        prefixes = textgen._judge_prefixes()
        requests = []  # (judge template, parallelism, thread) per request
        original = MockGeneratorClient.request_completions

        def recording(client, prompt, cfg):
            template = next(name for prefix, name in prefixes.items() if prompt.startswith(prefix))
            requests.append((template, parallelism, threading.get_ident()))
            time.sleep(0.002)  # long enough for a second worker to pick up an item
            return original(client, prompt, cfg)

        monkeypatch.setattr(MockGeneratorClient, "request_completions", recording)
        trees = []
        for parallelism in ("1", "4"):
            argv = ["construct-benchmark", "--config", str(config_path), "--parallelism", parallelism]
            argv += ["--texts", str(dataset / "corpus.jsonl"), "--queries", str(dataset / "queries.jsonl")]
            assert main(argv) == 0
            tree = _tree_bytes(out)
            resolved = yaml.safe_load(tree.pop("resolved_config.yaml"))
            assert resolved.pop("parallelism") == int(parallelism)
            trees.append((tree, resolved))
            shutil.rmtree(out)
        assert trees[0] == trees[1]
        assert {"corpus.jsonl", "queries.jsonl", "qrels.tsv", "qc_report.json", "qc_report.txt"} <= set(trees[0][0])
        assert trees[0][0]["qrels.tsv"]  # the mock judge keeps pairs, so the stages had work to overlap

        def per_template(p):
            counts, threads = {}, {}
            for template, at, thread in requests:
                if at == p:
                    counts[template] = counts.get(template, 0) + 1
                    threads.setdefault(template, set()).add(thread)
            return counts, threads

        (counts_1, threads_1), (counts_4, threads_4) = per_template("1"), per_template("4")
        # the same judge requests at either parallelism: one per item and step, no repairs
        assert counts_1 == counts_4
        assert counts_1["MED_RELEVANCE"] == 80 and counts_1["RERANK"] == 40
        assert all(len(threads) == 1 for threads in threads_1.values())
        # every stage (medical filter, pair matching, relevance filter) runs on more than one thread at 4
        for template in ("MED_RELEVANCE", "RERANK", "EVIDENCE", "QD_RELEVANCE"):
            assert len(threads_4[template]) > 1, template

    def test_construct_benchmark_on_cjk_text_identical_at_parallelism_1_and_4(self, tmp_path):
        # CJK words with Zipf frequencies: the generated queries' terms have
        # long postings, and a query of one common word alone has short ones
        docs, queries = cjk_dataset(60)
        queries += [Query(id=f"{query.id}w", text=query.text.split()[-1]) for query in queries[:20]]
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_corpus(docs, dataset / "corpus.jsonl")
        write_queries(queries, dataset / "queries.jsonl")
        # the mock judge keeps every text and query, so this is the run's index
        index = Bm25Index.build(CorpusStore(docs), Bm25Settings(), [query.text for query in queries])
        postings = [
            sum(int(index.offsets[slot + 1] - index.offsets[slot]) for slot in index.query_slots[query.text])
            for query in queries
        ]
        assert min(postings) <= DENSE_POSTINGS < max(postings)
        out = tmp_path / "bench"
        config_path = make_config(tmp_path, dataset, out)
        trees = []
        for parallelism in ("1", "4"):
            argv = ["construct-benchmark", "--config", str(config_path), "--parallelism", parallelism]
            argv += ["--texts", str(dataset / "corpus.jsonl"), "--queries", str(dataset / "queries.jsonl")]
            assert main(argv) == 0
            tree = _tree_bytes(out)
            del tree["resolved_config.yaml"]  # it records the parallelism
            trees.append(tree)
            shutil.rmtree(out)
        assert trees[0] == trees[1]
        assert trees[0]["qrels.tsv"].count(b"\n") > len(queries)  # pairs matched for the queries
