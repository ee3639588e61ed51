"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""
import json
import math
import time

import numpy as np
import pytest
import yaml

from slhyde.ann import AnnIndex, ann_search
from slhyde.benchkit import BenchmarkSettings, run_pipeline
from slhyde.bm25 import Bm25Settings
from slhyde.cli import main
from slhyde.corpus import (
    CorpusStore,
    Document,
    Query,
    RelevanceJudgments,
    load_qrels,
    load_queries,
    write_corpus,
    write_qrels,
    write_queries,
)
from slhyde.embed import EmbeddingCache, MockEmbedderClient, embed_text, embed_texts
from slhyde.hyde import FusionConfig, hyde_search
from slhyde.metrics import build_report, ndcg_at_k, recall_at_k
from slhyde.retrieval import DenseIndex, RankedHits, dense_search, ranks_of
from slhyde.selflearn import (
    SelfLearnSettings,
    build_generator_dataset,
    infonce_from_scores,
    load_sft_jsonl,
    mine_hard_negatives,
)
from slhyde.textgen import (
    MockGeneratorClient,
    SamplingConfig,
    generate_pseudo_docs,
    generate_query_for_doc,
    hash_paraphrase,
    load_template,
    render_prompt,
)
from slhyde.util import derive_seed

from conftest import cache_docs, queries_for_docs, synthetic_docs


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


# --- 1. metric oracle equivalence ------------------------------------------

def _oracle_ndcg(ranking, judged, k):
    dcg = 0.0
    for position, doc in enumerate(ranking[:k]):
        grade = judged.get(doc, 0)
        dcg += (2 ** grade - 1) / math.log2(position + 2)
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)[:k]
    idcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return None if idcg == 0 else dcg / idcg


def _oracle_recall(ranking, judged, k):
    relevant = {d for d, g in judged.items() if g > 0}
    if not relevant:
        return None
    return len(relevant & set(ranking[:k])) / len(relevant)


def test_c1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    checked = 0
    for _ in range(200):
        n_docs = int(rng.integers(1, 51))
        ranking = [f"d{i}" for i in rng.permutation(n_docs)]
        n_rel = int(rng.integers(0, min(5, n_docs) + 1))
        judged = {
            f"d{i}": int(rng.integers(0, 4))
            for i in rng.choice(n_docs, size=n_rel, replace=False)
        }
        hits = RankedHits(ids=ranking, scores=[float(n_docs - i) for i in range(n_docs)])
        for metric, oracle, k in (
            (ndcg_at_k, _oracle_ndcg, 10),
            (recall_at_k, _oracle_recall, 100),
        ):
            expected = oracle(ranking, judged, k)
            got = metric(hits, judged, k)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) <= 1e-9
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"metric oracle run took {elapsed:.2f}s"
    _report("1 metric-oracle-equivalence", f"{checked} comparisons in {elapsed:.2f}s")


# --- 2. published report arithmetic ----------------------------------------

PUBLISHED = {
    "base": [58.61, 44.26, 71.71, 59.60, 42.57, 47.73, 73.33, 67.13, 43.27, 45.79],
    "hyde": [64.39, 52.73, 73.98, 57.27, 38.52, 47.11, 74.32, 73.07, 46.16, 38.68],
    "self_learned": [71.49, 60.96, 75.34, 58.58, 39.07, 50.13, 76.95, 73.81, 46.78, 40.71],
    "improvement": [11.03, 15.61, 1.84, 2.29, 1.43, 6.41, 3.54, 1.01, 1.34, 5.25],
}
DATASET_KEYS = [f"d{i:02d}" for i in range(1, 11)]


def test_c2_published_report_arithmetic():
    # one run per dataset: its published mean
    system = {key: [mean] for key, mean in zip(DATASET_KEYS, PUBLISHED["self_learned"])}
    baseline = {key: [mean] for key, mean in zip(DATASET_KEYS, PUBLISHED["hyde"])}
    report = build_report(system, baseline=baseline)
    for key, expected in zip(DATASET_KEYS, PUBLISHED["improvement"]):
        assert report.comparison.improvement_pct[key] == pytest.approx(expected, abs=0.01)
    assert report.comparison.average_improvement_pct == pytest.approx(4.87, abs=0.01)
    assert report.average == pytest.approx(59.38, abs=0.005)
    assert report.comparison.baseline_average == pytest.approx(56.62, abs=0.005)
    # same arithmetic must also hold for the base-retriever column
    base_report = build_report(system, baseline={key: [mean] for key, mean in zip(DATASET_KEYS, PUBLISHED["base"])})
    assert base_report.comparison.baseline_average == pytest.approx(55.40, abs=0.005)
    _report("2 published-report-arithmetic", "10 improvements + average within 0.01")


# --- 3. fusion reduction and invariance -------------------------------------

def test_c3_fusion_reduction_and_invariance(tmp_path):
    emb = MockEmbedderClient(dim=64)
    docs = synthetic_docs(50, seed=31)
    store = CorpusStore(docs)
    cache = cache_docs(emb, store, tmp_path / "c3.emb")
    index = DenseIndex(cache)

    # reduction: n=0 is bit-identical to plain dense retrieval
    query = Query(id="q0", text="reduction probe text")
    gen = MockGeneratorClient()
    hyde_hits = hyde_search(query, gen, emb, index, FusionConfig(n=0), k=50)
    dense_hits = dense_search(index, embed_text(emb, query.text), k=50)
    assert list(hyde_hits) == list(dense_hits)

    # invariance: permutation of hypothetical vectors and positive rescaling
    rng = np.random.default_rng(32)
    violations = 0
    for _ in range(1000):
        q_vec = rng.normal(size=64)
        vectors = {"query": (q_vec / np.linalg.norm(q_vec)).astype(np.float32)}
        n_pseudo = int(rng.integers(1, 5))
        pseudo = [f"pseudo {i}" for i in range(n_pseudo)]
        for text in pseudo:
            vec = rng.normal(size=64)
            vectors[text] = (vec / np.linalg.norm(vec)).astype(np.float32)
        pinned = MockEmbedderClient(dim=64, overrides=vectors)
        fused = embed_texts(pinned, ["query", *pseudo]).mean(axis=0)
        base = dense_search(index, fused, k=50).ids
        order = rng.permutation(n_pseudo)
        permuted = embed_texts(pinned, ["query", *(pseudo[i] for i in order)]).mean(axis=0)
        if dense_search(index, permuted, k=50).ids != base:
            violations += 1
        scale = float(rng.uniform(1e-3, 1e3))
        if dense_search(index, fused * scale, k=50).ids != base:
            violations += 1
    assert violations == 0
    _report("3 fusion-reduction-and-invariance", "1000 trials, zero violations")


# --- 4. selection optimality -------------------------------------------------

def test_c4_selection_optimality(tmp_path):
    emb = MockEmbedderClient(dim=256)
    docs = synthetic_docs(500, seed=41)
    store = CorpusStore(docs)
    cache = cache_docs(emb, store, tmp_path / "c4.emb")
    index = DenseIndex(cache)
    gen = MockGeneratorClient(seed=7)
    seed = 43
    settings = SelfLearnSettings(candidates_per_query=5, rank_cutoff=500)
    build_generator_dataset(docs, gen, emb, index, settings, tmp_path / "sft.jsonl", seed=seed)
    examples = load_sft_jsonl(tmp_path / "sft.jsonl")
    assert examples, "expected examples from the paraphraser corpus"

    violations = 0
    for example in examples:
        doc = store.get(example.doc_id)
        q_cfg = SamplingConfig(seed=derive_seed(seed, "query", doc.id))
        c_cfg = SamplingConfig(seed=derive_seed(seed, "candidates", doc.id))
        query = generate_query_for_doc(gen, doc, q_cfg)
        candidates = generate_pseudo_docs(gen, query, doc, 5, c_cfg)
        recomputed = min(ranks_of(index, [embed_text(emb, c)], [doc.id])[0] for c in candidates)
        if example.rank != recomputed:
            violations += 1
    assert violations == 0
    _report("4 selection-optimality", f"{len(examples)} examples, zero violations")


# --- 5. mining consistency ----------------------------------------------------

def test_c5_mining_consistency(tmp_path):
    # part A: mining m=7 equals exact top-7 minus positive
    emb = MockEmbedderClient(dim=128)
    docs = synthetic_docs(200, seed=51)
    store = CorpusStore(docs)
    cache = cache_docs(emb, store, tmp_path / "c5.emb")
    dense = DenseIndex(cache)
    rng = np.random.default_rng(52)
    for _ in range(100):
        target = docs[int(rng.integers(0, len(docs)))]
        query_text = " ".join(target.text.split()[:3])
        fused = embed_texts(emb, [query_text, target.text]).mean(axis=0, keepdims=True)
        [mined] = mine_hard_negatives(dense, fused, [target.id], 7)
        fused = (embed_text(emb, query_text) + embed_text(emb, target.text)) / 2.0
        exact = [d for d, _ in dense_search(dense, fused, k=8) if d != target.id][:7]
        assert [doc_id for doc_id, _ in mined] == exact

    # part B: default-breadth recall@10 >= 0.95 on 1000 random vectors, dim 256
    vec_rng = np.random.default_rng(53)
    matrix = vec_rng.normal(size=(1000, 256)).astype(np.float32)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    vec_cache = EmbeddingCache(ids=[f"v{i:04d}" for i in range(1000)], matrix=matrix)
    vec_ann = AnnIndex(vec_cache, seed=0)  # degree 16, build 200, search 64
    vec_dense = DenseIndex(vec_cache)
    total, found = 0, 0
    for _ in range(100):
        query = vec_rng.normal(size=256)
        exact_ids = set(dense_search(vec_dense, query, k=10).ids)
        approx_ids = set(ann_search(vec_ann, query, k=10).ids)
        total += 10
        found += len(exact_ids & approx_ids)
    recall = found / total
    assert recall >= 0.95, f"ANN recall@10 {recall:.4f} below 0.95"
    _report("5 mining-consistency", f"exact match on 100 queries; recall@10={recall:.3f}")


# --- 6. loss checks -----------------------------------------------------------

def test_c6_loss_checks():
    # symmetric single-negative case
    ln2 = infonce_from_scores(0.7, [0.7], tau=1.0)
    assert abs(ln2 - math.log(2.0)) <= 1e-9

    # temperature 0.02 worked example against direct formula evaluation
    worked = infonce_from_scores(0.9, [0.8], tau=0.02)
    assert abs(worked - math.log1p(math.exp(-5.0))) <= 1e-9

    # monotonicity under +-1e-3 perturbations, 1000 random trials
    # (tau drawn in [0.2, 1.0] so every perturbation is float64-resolvable;
    # scores are inner products of unit vectors, hence [-1, 1])
    rng = np.random.default_rng(61)
    eps = 1e-3
    for _ in range(1000):
        pos = float(rng.uniform(-1, 1))
        negs = list(rng.uniform(-1, 1, size=int(rng.integers(1, 8))))
        tau = float(rng.uniform(0.2, 1.0))
        base = infonce_from_scores(pos, negs, tau)
        assert base >= 0.0
        assert infonce_from_scores(pos + eps, negs, tau) < base
        assert infonce_from_scores(pos - eps, negs, tau) > base
        bump_index = int(rng.integers(0, len(negs)))
        bumped = list(negs)
        bumped[bump_index] += eps
        assert infonce_from_scores(pos, bumped, tau) > base
        dipped = list(negs)
        dipped[bump_index] -= eps
        assert infonce_from_scores(pos, dipped, tau) < base
    _report("6 loss-checks", "ln2 and tau=0.02 to 1e-9; 1000 monotonicity trials")


# --- 7. end-to-end determinism -------------------------------------------------

def _pipeline_dataset(root):
    docs = synthetic_docs(100, seed=71)
    queries = queries_for_docs(docs[:20], seed=72)
    qrels = RelevanceJudgments(entries={q.id: {d.id: 1} for q, d in zip(queries, docs[:20])})
    root.mkdir(parents=True, exist_ok=True)
    write_corpus(docs, root / "corpus.jsonl")
    write_queries(queries, root / "queries.jsonl")
    write_qrels(qrels, root / "qrels.tsv")


def test_c7_end_to_end_determinism(tmp_path):
    dataset = tmp_path / "data"
    _pipeline_dataset(dataset)
    out = tmp_path / "run"
    config = {
        "seed": 73,
        "out_dir": str(out),
        "clients": "mock",
        "dataset": {
            "name": "e2e",
            "corpus": str(dataset / "corpus.jsonl"),
            "queries": str(dataset / "queries.jsonl"),
            "qrels": str(dataset / "qrels.tsv"),
        },
        "embedder": {"dim": 256},
        "eval": {"k_values": [10, 100], "primary_k": 10, "repeats": 5},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))

    def run_all():
        for argv in (
            ["embed-corpus", "--config", str(config_path)],
            ["build-sft-data", "--config", str(config_path)],
            ["build-retriever-data", "--config", str(config_path)],
            ["evaluate", "--config", str(config_path), "--mode", "hyde"],
        ):
            code = main(argv)
            assert code == 0, f"{argv[0]} exited {code}"
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    started = time.monotonic()
    first = run_all()
    second = run_all()
    elapsed = time.monotonic() - started
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"outputs differ between runs: {diffs}"
    assert elapsed < 60.0, f"two full pipeline runs took {elapsed:.1f}s"
    assert "sft.jsonl" in first and "triplets.jsonl" in first and "report.json" in first
    _report("7 end-to-end-determinism", f"{len(first)} files byte-identical, {elapsed:.1f}s total")


# --- 8. directional sanity ------------------------------------------------------

def test_c8_directional_sanity(tmp_path):
    emb = MockEmbedderClient(dim=256)
    docs = synthetic_docs(120, seed=81, anchors_per_doc=2, extra_tokens=8)
    store = CorpusStore(docs)
    cache = cache_docs(emb, store, tmp_path / "c8.emb")
    index = DenseIndex(cache)

    rng = np.random.default_rng(82)
    queries = queries_for_docs(docs[:50], seed=83, anchor_tokens=1, noise_tokens=4)
    qrels = {q.id: {d.id: 1} for q, d in zip(queries, docs[:50])}

    # generator scripted to answer each query with a noisy paraphrase of its target
    template = load_template("Q2P")
    responses = {}
    for query, doc in zip(queries, docs[:50]):
        prompt = render_prompt(template, {"QUESTION": query.text})
        responses[prompt] = hash_paraphrase(doc.text, seed=84, drop_rate=0.3)
    gen = MockGeneratorClient(responses=responses)

    query_only, hyde_mode = [], []
    for query in queries:
        judged = qrels[query.id]
        dense_hits = dense_search(index, embed_text(emb, query.text), 10)
        query_only.append(ndcg_at_k(dense_hits, judged, 10))
        fused_hits = hyde_search(query, gen, emb, index, FusionConfig(n=1), k=10)
        hyde_mode.append(ndcg_at_k(fused_hits, judged, 10))

    mean_query = sum(query_only) / len(query_only)
    mean_hyde = sum(hyde_mode) / len(hyde_mode)
    # trend check, not a numeric reproduction: fused retrieval must not lose
    # to query-only in aggregate when hypotheses paraphrase the targets
    assert mean_hyde >= mean_query
    _report(
        "8 directional-sanity",
        f"hyde ndcg@10 {mean_hyde:.4f} >= query-only {mean_query:.4f} over 50 queries",
    )


# --- 9. benchkit trace fidelity ---------------------------------------------------

MED_PREFIX = "You will receive a question-answer pair."
RERANK_PREFIX = "You will be given a medical question and a numbered list"
EVIDENCE_PREFIX = "You will be given a medical question, its answer and a related document."
ANSWER_PREFIX = "You will be given a medical question and one or more evidence spans"
VALIDATE_PREFIX = "You will be given a medical question, a reference (standard) answer"
QD_PREFIX = "You will be given a medical search query and its associated passage."


def _trace_fixture():
    """Hand-traced construction-pipeline fixture.

    20 texts: t17, t18 medically irrelevant (removed); t19 judge garbage (review).
    5 queries: qe removed; qd rerank garbage (review).
    Evidence: qa->t01 only; qb->t02 and t03; qc none.
    Validation: (qb, t03) similarity 0.3 fails; others 0.9 pass.
    Quality: (qa, t01)=5 kept; (qb, t02)=2 removed at threshold 0.6.
    Expected outcome: qrels == {qa: {t01: 1}}.
    """
    texts = [Document(f"t{i:02d}", f"[t{i:02d}] shared medical filler body {i}") for i in range(1, 21)]
    queries = [
        Query(id="qa", text="[qa] shared question alpha"),
        Query(id="qb", text="[qb] shared question beta"),
        Query(id="qc", text="[qc] shared question gamma"),
        Query(id="qd", text="[qd] shared question delta"),
        Query(id="qe", text="[qe] shared question epsilon"),
    ]
    evidence_pairs = {("qa", "t01"), ("qb", "t02"), ("qb", "t03")}
    rerank_targets = {"qa": ["t01"], "qb": ["t02", "t03"], "qc": [], "qd": []}

    def med(prompt):
        for removed_id in ("t17", "t18", "qe"):
            if f"[{removed_id}]" in prompt:
                return json.dumps({"label": 0, "reason": f"{removed_id} not medical"})
        if "[t19]" in prompt:
            return "** not json **"
        return json.dumps({"label": 1, "reason": "medical"})

    def rerank(prompt):
        if "[qd]" in prompt:
            return "<<rerank garbage>>"
        qid = next(q.id for q in queries if f"[{q.id}]" in prompt)
        positions = []
        for line in prompt.splitlines():
            if line.startswith("[") and "] [t" in line:
                number = int(line[1 : line.index("]")])
                doc_id = line.split("[t", 1)[1][:2]
                if f"t{doc_id}" in rerank_targets.get(qid, []):
                    positions.append(number)
        # fill up to three with untargeted positions so top-m has material
        extra = [n for n in range(1, 4) if n not in positions]
        return json.dumps({"ranking": positions + extra})

    def evidence(prompt):
        for qid, doc_id in evidence_pairs:
            if f"[{qid}]" in prompt and f"[{doc_id}]" in prompt:
                return json.dumps({"evidence_spans": [f"span from {doc_id}"]})
        return json.dumps({"evidence_spans": []})

    def answer(prompt):
        return json.dumps({"answer": "generated answer", "reason": "scripted"})

    def validate(prompt):
        if "span from t03" in prompt or "[qb] shared question beta" in prompt and "[t03]" in prompt:
            return json.dumps({"similarity_score": 0.3, "explanation": "weak"})
        return json.dumps({"similarity_score": 0.9, "explanation": "strong"})

    def qd_quality(prompt):
        if "[t01]" in prompt:
            return json.dumps({"quality_score": 5, "explanation": "good"})
        return json.dumps({"quality_score": 2, "explanation": "weak"})

    def responder(prompt, cfg):
        for prefix, handler in (
            (MED_PREFIX, med),
            (RERANK_PREFIX, rerank),
            (EVIDENCE_PREFIX, evidence),
            (ANSWER_PREFIX, answer),
            (VALIDATE_PREFIX, validate),
            (QD_PREFIX, qd_quality),
        ):
            if prompt.startswith(prefix):
                return handler(prompt)
        raise AssertionError(f"unscripted prompt: {prompt.splitlines()[0]!r}")

    return texts, queries, MockGeneratorClient(responder=responder)


def test_c9_benchkit_trace_fidelity(tmp_path):
    texts, queries, judge = _trace_fixture()
    settings = BenchmarkSettings(med_threshold=0.5, rel_threshold=0.6)
    out = tmp_path / "bench"
    report = run_pipeline(texts, queries, judge, settings, Bm25Settings(), out)

    stage_texts = report.stages["1_medical_filter_texts"]
    assert (stage_texts["input"], stage_texts["kept"], stage_texts["removed"], stage_texts["review"]) == (20, 17, 2, 1)
    assert sorted(item["id"] for item in stage_texts["removed_items"]) == ["t17", "t18"]

    stage_queries = report.stages["1_medical_filter_queries"]
    assert (stage_queries["input"], stage_queries["kept"], stage_queries["removed"], stage_queries["review"]) == (5, 4, 1, 0)
    assert [item["id"] for item in stage_queries["removed_items"]] == ["qe"]

    stage_match = report.stages["2_pair_matching"]
    assert stage_match["input_queries"] == 4
    assert stage_match["pairs_validated"] == 2  # (qa,t01) and (qb,t02); (qb,t03) failed validation
    assert stage_match["queries_without_pairs"] == 2  # qc (no evidence), qd (rerank review)
    assert stage_match["review"] == 1

    stage_filter = report.stages["3_relevance_filter"]
    assert (stage_filter["input"], stage_filter["kept"], stage_filter["removed"], stage_filter["review"]) == (2, 1, 1, 0)

    review_stages = sorted(r.stage for r in report.review_bucket)
    assert review_stages == ["medical_filter_texts", "rerank"]
    assert not report.flagged

    qrels = load_qrels(out / "qrels.tsv")
    assert qrels.entries == {"qa": {"t01": 1}}
    emitted_queries = load_queries(out / "queries.jsonl")
    assert [q.id for q in emitted_queries] == ["qa"]
    _report("9 benchkit-trace-fidelity", "all stage partitions match the hand trace")
