"""LLM-judged benchmark construction.

Raw texts are `corpus.Document`s and raw queries are `corpus.Query`s, whose
optional `answer` is a reference answer. construct-benchmark reads them from a
corpus file (its titles dropped as it is read, so a title is neither judged
nor written) and a queries file with `load_corpus` and `load_queries`, so a
repeated _id or a blank text is exit 1 with the file and line before any
judge request. Each record is held once: the stages judge the loaded records
themselves, and the kept texts' store holds the loaded Documents.

Three stages over raw texts and raw queries:
  1. medical-relevance filtering of both sides,
  2. positive-pair matching per query: BM25 top-k (from an index built for
     the kept queries' texts, `bm25.Bm25Index.build`), judge rerank to top-m,
     evidence extraction, answer generation from evidence only, and answer
     validation (against the reference answer when the query carries one,
     against the document otherwise),
  3. query-document relevance filtering of the surviving pairs.

Judges must answer in JSON. The rerank, evidence, answer, validation and
quality calls are one step function driven by `_STEPS`, a table keyed by
review stage: each entry names the template, the key the verdict must carry,
how its value is read, and the two review reasons. A response that is not
JSON or lacks the key gets exactly one repair retry (the prompt re-asked with
a format reminder); a present value that does not read, or lies outside its
template's contract, goes to review with no retry. The contracts: a `label`
is 0 or 1, a `score` or `similarity_score` is in [0, 1], a `quality_score` is
an integer from 1 to 5. The medical filter retries whenever neither `label`
nor `score` reads within its contract. An item that fails goes to the review
bucket instead of being dropped silently; so does one whose judge call fails
after its retries. A ProtocolError (a client status such as a bad key's 401)
would fail every item alike, so it ends the command (exit 2). Every kept or
removed decision carries the judge rationale, and each stage's counts satisfy
kept + removed + review = input.

Each stage is a per-item function that returns its result and its own
review items, mapped over the stage's items by `_each` on the stage runner
(`util.run_chunked`), `parallelism` items at a time. Both are gathered in
input order and the review items concatenated in stage order, so every
output is the same bytes at any parallelism.

Outputs use the standard dataset layout (corpus.jsonl / queries.jsonl /
qrels.tsv) plus a QC report in JSON and text form.

`BenchmarkSettings` is the `benchmark` config section. `run_pipeline` takes it
and the `bm25` section (`bm25.Bm25Settings`). A threshold left unset takes its
offline default: 0.5 medical, 0.6 relevance. Every judge call samples at
temperature 0.
"""
from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .bm25 import Bm25Index, Bm25Settings, bm25_search
from .corpus import CorpusStore, Document, Query, write_corpus, write_qrel_rows, write_queries
from .errors import DegenerateOutputError, TransportError, ValidationError
from .textgen import SamplingConfig, generate, load_template, render_prompt
from .util import atomic_write_text, dump_json, run_chunked

logger = logging.getLogger(__name__)

_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)
_REPAIR_SUFFIX = "\n\nYour previous output was not valid JSON. Return ONLY a valid JSON object with the required keys."
_JUDGE_SAMPLING = SamplingConfig(temperature=0.0, num_samples=1)


@dataclass
class JudgedText:
    text_id: str
    med_score: float
    rationale: str


@dataclass
class CandidatePair:
    query_id: str
    doc_id: str
    query_text: str
    doc_text: str
    rel_score: float | None = None


@dataclass
class ReviewItem:
    stage: str
    item_id: str
    reason: str
    raw_response: str = ""


@dataclass(frozen=True)
class BenchmarkSettings:
    raw_texts: str = ""
    raw_queries: str = ""
    med_threshold: float | None = None
    rel_threshold: float | None = None
    bm25_top_k: int = 20
    rerank_top_m: int = 3
    max_review_fraction: float = 0.25

    def __post_init__(self):
        for name in ("med_threshold", "rel_threshold", "max_review_fraction"):
            value = getattr(self, name)
            if name.endswith("_threshold") and value is None:
                continue  # unset: the offline default applies
            if not 0 <= value <= 1:
                raise ValidationError(f"benchmark.{name} must be in [0, 1], got {value}")
        for name in ("bm25_top_k", "rerank_top_m"):
            if getattr(self, name) < 1:
                raise ValidationError(f"benchmark.{name} must be >= 1")

    def thresholds(self) -> tuple[float, float]:
        """(medical, relevance) thresholds, each its offline default when unset."""
        med = 0.5 if self.med_threshold is None else self.med_threshold
        rel = 0.6 if self.rel_threshold is None else self.rel_threshold
        return med, rel


def _parse_json_response(text: str) -> dict | None:
    """Extract the first JSON object from a judge response, tolerating code fences."""
    cleaned = text.strip()
    if cleaned.startswith("```"):
        cleaned = re.sub(r"^```[a-zA-Z]*\s*", "", cleaned)
        cleaned = re.sub(r"\s*```$", "", cleaned)
    match = _JSON_BLOCK_RE.search(cleaned)
    if not match:
        return None
    try:
        parsed = json.loads(match.group(0))
    except json.JSONDecodeError:
        return None
    return parsed if isinstance(parsed, dict) else None


def _ask_judge(judge, prompt: str, accept):
    """One judge call with a single repair retry.

    `accept` is a predicate over the parsed dict. Returns (dict, raw) on
    success, (None, raw) when the response stays unusable after the repair
    attempt or a call fails after its retries or gives no usable completion.
    A ProtocolError (a client status such as a bad key's 401, or a body of
    the wrong shape) would fail for every item, so it propagates.
    """
    try:
        raw = generate(judge, prompt, _JUDGE_SAMPLING)[0]
    except (TransportError, DegenerateOutputError) as exc:
        return None, f"<judge call failed: {exc}>"
    parsed = _parse_json_response(raw)
    if parsed is not None and accept(parsed):
        return parsed, raw
    try:
        raw_retry = generate(judge, prompt + _REPAIR_SUFFIX, _JUDGE_SAMPLING)[0]
    except (TransportError, DegenerateOutputError) as exc:
        return None, f"{raw!r}; repair failed: {exc}"
    parsed = _parse_json_response(raw_retry)
    if parsed is not None and accept(parsed):
        return parsed, raw_retry
    return None, raw_retry


def _as_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _finite_float(value, low: float = -math.inf, high: float = math.inf) -> float:
    """float(value); ValueError when it is a bool, NaN or infinite (json.loads
    reads `NaN` and `Infinity`), or outside [low, high]."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not (math.isfinite(number) and low <= number <= high):
        raise ValueError(f"{value!r} is not a finite number in [{low}, {high}]")
    return number


def _finite_int(value, low: float = -math.inf, high: float = math.inf) -> int:
    """int(value); ValueError when it is a bool, a number with a fraction, NaN
    or infinity (4.0 reads, 4.7 does not), or outside [low, high]."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    number = int(value)
    if not low <= number <= high:
        raise ValueError(f"{number} is outside [{low}, {high}]")
    return number


class _Step(NamedTuple):
    template: str
    key: str  # the verdict must carry it, or the judge is asked once more
    read: Callable  # raises TypeError or ValueError on a wrong-typed or out-of-range value
    unparseable: str  # review reason: no JSON or no key, after the repair retry
    wrong_type: str  # review reason: the key's value does not read or is out of range (no retry)


# Every judge step of pair matching and relevance filtering, keyed by review stage.
_STEPS = {
    "rerank": _Step("RERANK", "ranking", _as_list, "unparseable rerank verdict", "unparseable rerank verdict"),
    "evidence": _Step(
        "EVIDENCE", "evidence_spans", _as_list, "unparseable evidence verdict", "unparseable evidence verdict"
    ),
    "answer": _Step("ANSWER_BY_EVIDENCE", "answer", str, "unparseable answer", "unparseable answer"),
    "validate": _Step(
        "VALIDATE_ANSWER",
        "similarity_score",
        lambda value: _finite_float(value, 0.0, 1.0),
        "unparseable validation verdict",
        "similarity score is not a number in [0, 1]",
    ),
    "relevance_filter": _Step(
        "QD_RELEVANCE",
        "quality_score",
        lambda value: _finite_int(value, 1, 5),
        "unparseable quality verdict",
        "quality score is not an integer from 1 to 5",
    ),
}


def _judge_step(judge, stage: str, item_id: str, slots: dict, review: list[ReviewItem]):
    """Ask the judge one step of `_STEPS` and return the value it reads, or
    None after adding the item to `review`."""
    step = _STEPS[stage]
    prompt = render_prompt(load_template(step.template), slots)
    parsed, raw = _ask_judge(judge, prompt, lambda p: step.key in p)
    if parsed is None:
        review.append(ReviewItem(stage, item_id, step.unparseable, raw))
        return None
    try:
        return step.read(parsed[step.key])
    except (TypeError, ValueError):
        review.append(ReviewItem(stage, item_id, step.wrong_type, raw))
        return None


def _med_score(parsed: dict) -> float | None:
    """The verdict's `label` (0 or 1) as a float when it has one, else its
    `score` (in [0, 1]); None when that does not read or is out of range."""
    try:
        return float(_finite_int(parsed["label"], 0, 1)) if "label" in parsed else _finite_float(parsed["score"], 0, 1)
    except (KeyError, TypeError, ValueError):
        return None


def _each(items: list, judge_one, parallelism: int) -> tuple[list, list[ReviewItem]]:
    """(results, review) of `judge_one` mapped over `items` by the stage
    runner, `util.run_chunked`. Each call returns (result or None, its own
    review items); results holds the results that are not None and review
    every call's items, both in input order at any parallelism."""
    results: list = []
    review: list[ReviewItem] = []
    for result, item_review in run_chunked(items, judge_one, list, parallelism):
        if result is not None:
            results.append(result)
        review.extend(item_review)
    return results, review


def medical_relevance_filter(
    items: list, judge, threshold: float, stage: str = "medical_filter", parallelism: int = 1
) -> tuple[list[JudgedText], list[JudgedText], list[ReviewItem]]:
    """Split items (Documents or Queries) into (kept, removed, review), each
    judged by its `.text` and, when it has one, its `.answer`.

    Keeps items whose judged score is >= threshold (boundary keeps). Items
    whose judge output stays unparseable after one repair retry land in the
    review bucket rather than being dropped.
    """
    template = load_template("MED_RELEVANCE")

    def judge_one(item):
        answer = getattr(item, "answer", None) or ""
        prompt = render_prompt(template, {"QUESTION": item.text, "ANSWER": answer})
        parsed, raw = _ask_judge(judge, prompt, lambda p: _med_score(p) is not None)
        score = _med_score(parsed) if parsed is not None else None
        if score is None:
            return None, [ReviewItem(stage, item.id, "unparseable judge verdict", raw)]
        return JudgedText(item.id, score, str(parsed.get("reason", ""))), []

    judged, review = _each(items, judge_one, parallelism)
    kept = [j for j in judged if j.med_score >= threshold]
    return kept, [j for j in judged if j.med_score < threshold], review


def match_positive_pairs(
    query: Query,
    bm25: Bm25Index,
    judge,
    settings: BenchmarkSettings,
    store: CorpusStore,
) -> tuple[list[CandidatePair], list[ReviewItem]]:
    """Run the retrieve / rerank / evidence / answer / validate chain for one query.

    Returns (validated pairs, review items). Pairs with empty evidence are
    rejected outright, and judge failures route the query or pair to review.
    """
    review: list[ReviewItem] = []
    hits = bm25_search(bm25, query.text, settings.bm25_top_k)
    if not hits.ids:
        return [], review
    passages = "\n".join(f"[{n}] {store.get(doc_id).indexed_text}" for n, (doc_id, _) in enumerate(hits, start=1))
    slots = {"QUESTION": query.text, "PASSAGES": passages}
    ranking = _judge_step(judge, "rerank", query.id, slots, review)
    if ranking is None:
        return [], review
    candidates: list[str] = []
    for number in ranking:
        try:
            index = _finite_int(number) - 1
        except (TypeError, ValueError):
            continue
        if 0 <= index < len(hits.ids):
            doc_id = hits.ids[index]
            if doc_id not in candidates:
                candidates.append(doc_id)
        if len(candidates) == settings.rerank_top_m:
            break

    _, rel_threshold = settings.thresholds()
    pairs: list[CandidatePair] = []
    for doc_id in candidates:
        doc = store.get(doc_id)
        pair_id = f"{query.id}:{doc_id}"
        slots = {"QUESTION": query.text, "ANSWER": query.answer or "", "DOCUMENT": doc.indexed_text}
        spans = _judge_step(judge, "evidence", pair_id, slots, review) or []
        spans = [str(s) for s in spans if str(s).strip()]
        if not spans:
            continue  # a failed step or empty evidence rejects the pair
        slots = {"QUESTION": query.text, "EVIDENCE": json.dumps(spans, ensure_ascii=False)}
        generated = _judge_step(judge, "answer", pair_id, slots, review)
        if generated is None:
            continue
        reference = query.answer if query.answer else doc.indexed_text
        slots = {"QUESTION": query.text, "REFERENCE_ANSWER": reference, "MODEL_ANSWER": generated}
        similarity = _judge_step(judge, "validate", pair_id, slots, review)
        if similarity is not None and similarity >= rel_threshold:
            pairs.append(CandidatePair(query.id, doc_id, query.text, doc.indexed_text))
    return pairs, review


def filter_pseudo_relevant(
    pairs: list[CandidatePair], judge, threshold: float, parallelism: int = 1
) -> tuple[list[CandidatePair], list[ReviewItem]]:
    """Keep pairs whose judged 1-5 quality score, normalized to [0,1], is >=
    threshold. Returns (kept pairs, review items)."""

    def judge_one(pair):
        review: list[ReviewItem] = []
        slots = {"QUERY": pair.query_text, "PASSAGE": pair.doc_text}
        quality = _judge_step(judge, "relevance_filter", f"{pair.query_id}:{pair.doc_id}", slots, review)
        if quality is None:
            return None, review
        pair.rel_score = quality / 5.0
        return (pair if pair.rel_score >= threshold else None), review

    return _each(pairs, judge_one, parallelism)


@dataclass
class QcReport:
    """The QC report; `asdict` of it is qc_report.json."""

    stages: dict[str, dict] = field(default_factory=dict)
    review_bucket: list[ReviewItem] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    flagged: bool = False

    def render_text(self) -> str:
        lines = ["benchmark construction QC report", ""]
        for stage, counts in self.stages.items():
            parts = ", ".join(f"{key}={value}" for key, value in counts.items() if not isinstance(value, list))
            lines.append(f"{stage}: {parts}")
        lines.append(f"review bucket: {len(self.review_bucket)} item(s)")
        for warning in self.warnings:
            lines.append(f"WARNING: {warning}")
        lines.append(f"flagged: {self.flagged}")
        return "\n".join(lines) + "\n"


def _medical_stage(report: QcReport, stage: str, items: list, judge, threshold: float, parallelism: int):
    """Stage 1 on one side: the kept JudgedTexts of `items`, with the stage's
    review items added to `report` and its counts recorded as `1_<stage>`."""
    kept, removed, review = medical_relevance_filter(items, judge, threshold, stage, parallelism)
    report.review_bucket.extend(review)
    report.stages[f"1_{stage}"] = {
        "input": len(items),
        "kept": len(kept),
        "removed": len(removed),
        "review": len(review),
        "removed_items": [{"id": j.text_id, "med_score": j.med_score, "reason": j.rationale} for j in removed],
    }
    return kept


def run_pipeline(
    texts: Sequence[Document],
    queries: list[Query],
    judge,
    settings: BenchmarkSettings,
    bm25: Bm25Settings,
    out_dir: str | Path,
    parallelism: int = 1,
) -> QcReport:
    """Full construction pipeline; emits the dataset files plus the QC report.
    Each stage maps its items through `_each`, `parallelism` at a time.
    `texts` (a list or a `CorpusStore`) are judged by their text; the store
    of kept texts holds those same Documents, so a title a text carries is
    indexed, shown to the judge and written (construct-benchmark loads its
    raw texts without titles)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = QcReport()
    med_threshold, rel_threshold = settings.thresholds()

    kept_texts = _medical_stage(report, "medical_filter_texts", texts, judge, med_threshold, parallelism)
    kept_query_judged = _medical_stage(report, "medical_filter_queries", queries, judge, med_threshold, parallelism)

    kept_text_ids = {j.text_id for j in kept_texts}
    store = CorpusStore(doc for doc in texts if doc.id in kept_text_ids)
    kept_query_ids = {j.text_id for j in kept_query_judged}
    kept_queries = [q for q in queries if q.id in kept_query_ids]
    # the report holds what stage 1 removed; the rest of it is in store and kept_queries
    del kept_texts, kept_query_judged, kept_text_ids, kept_query_ids

    # with no text kept there is nothing to match, and no query counts as unmatched
    pairs_per_query: list[list[CandidatePair]] = []
    match_review: list[ReviewItem] = []
    if len(store):
        # built for the kept queries' texts: the only texts pair matching searches
        index = Bm25Index.build(store, bm25, [q.text for q in kept_queries])
        pairs_per_query, match_review = _each(
            kept_queries, lambda query: match_positive_pairs(query, index, judge, settings, store), parallelism
        )
        del index  # stage 3 and the writes need only the store
    matched = [pair for pairs in pairs_per_query for pair in pairs]
    report.review_bucket.extend(match_review)
    report.stages["2_pair_matching"] = {
        "input_queries": len(kept_queries),
        "pairs_validated": len(matched),
        "queries_without_pairs": pairs_per_query.count([]),
        "review": len(match_review),
    }

    final_pairs, filter_review = filter_pseudo_relevant(matched, judge, rel_threshold, parallelism)
    report.review_bucket.extend(filter_review)
    report.stages["3_relevance_filter"] = {
        "input": len(matched),
        "kept": len(final_pairs),
        "removed": len(matched) - len(final_pairs) - len(filter_review),
        "review": len(filter_review),
    }

    final_query_ids = {pair.query_id for pair in final_pairs}
    final_queries = [q for q in kept_queries if q.id in final_query_ids]

    write_corpus(list(store), out_dir / "corpus.jsonl")
    write_queries(final_queries, out_dir / "queries.jsonl")
    # a query's pairs are neighbours in final_pairs and name distinct documents
    write_qrel_rows(((pair.query_id, pair.doc_id, 1) for pair in final_pairs), out_dir / "qrels.tsv")

    if not final_pairs:
        message = "pipeline produced ZERO validated query-document pairs; dataset is empty"
        logger.warning(message)
        report.warnings.append(message)

    total_inputs = len(texts) + len(queries)
    if total_inputs and len(report.review_bucket) / total_inputs > settings.max_review_fraction:
        report.flagged = True
        report.warnings.append(
            f"review bucket holds {len(report.review_bucket)}/{total_inputs} items; run flagged"
        )
    for stage, counts in report.stages.items():
        stage_input = counts.get("input", counts.get("input_queries", 0))
        if stage_input and counts.get("review", 0) / stage_input > settings.max_review_fraction:
            report.flagged = True

    atomic_write_text(out_dir / "qc_report.json", dump_json(asdict(report)))
    atomic_write_text(out_dir / "qc_report.txt", report.render_text())
    return report
