import json
import logging
import re
import threading
import time

import pytest

from slhyde.benchkit import (
    BenchmarkSettings,
    CandidatePair,
    filter_pseudo_relevant,
    match_positive_pairs,
    medical_relevance_filter,
    run_pipeline,
)
from slhyde.bm25 import Bm25Index, Bm25Settings, bm25_search
from slhyde.corpus import CorpusStore, Document, Query, load_corpus, load_qrels, load_queries
from slhyde.errors import ParseError, ValidationError
from slhyde.textgen import MockGeneratorClient
from slhyde.util import dump_json


def _json(obj):
    return json.dumps(obj, ensure_ascii=False)


def judge_with(rules):
    """Scripted judge: dispatches on the prompt's instruction line, then applies
    per-item rules keyed by markers embedded in the prompt."""

    def responder(prompt, cfg):
        for handler_prefix, handler in rules:
            if prompt.startswith(handler_prefix):
                return handler(prompt)
        raise AssertionError(f"no scripted rule for prompt: {prompt.splitlines()[0]!r}")

    return MockGeneratorClient(responder=responder)


MED_PREFIX = "You will receive a question-answer pair."
RERANK_PREFIX = "You will be given a medical question and a numbered list"
EVIDENCE_PREFIX = "You will be given a medical question, its answer and a related document."
ANSWER_PREFIX = "You will be given a medical question and one or more evidence spans"
VALIDATE_PREFIX = "You will be given a medical question, a reference (standard) answer"
QD_PREFIX = "You will be given a medical search query and its associated passage."


class TestMedicalRelevanceFilter:
    def test_below_threshold_removed(self):
        judge = judge_with([(MED_PREFIX, lambda p: _json({"score": 0.4, "reason": "weak"}))])
        kept, removed, review = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert not kept and not review
        assert removed[0].text_id == "t1"
        assert removed[0].med_score == pytest.approx(0.4)
        assert removed[0].rationale == "weak"

    def test_exactly_at_threshold_kept(self):
        judge = judge_with([(MED_PREFIX, lambda p: _json({"score": 0.5, "reason": "edge"}))])
        kept, removed, review = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert kept and not removed and not review

    def test_label_field_maps_to_binary_score(self):
        judge = judge_with([(MED_PREFIX, lambda p: _json({"label": 1, "reason": "medical"}))])
        kept, _, _ = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert kept[0].med_score == 1.0

    def test_malformed_json_goes_to_review_and_continues(self):
        calls = {"n": 0}

        def broken(prompt):
            calls["n"] += 1
            return "not json at all"

        judge = judge_with([(MED_PREFIX, broken)])
        kept, removed, review = medical_relevance_filter(
            [Document("bad", "text"), Document("bad2", "text2")], judge, threshold=0.5
        )
        assert not kept and not removed
        assert [r.item_id for r in review] == ["bad", "bad2"]
        assert calls["n"] == 4  # one repair retry per item

    def test_repair_retry_can_succeed(self):
        def flaky(prompt):
            if prompt.endswith("keys."):  # the repair suffix
                return _json({"label": 1, "reason": "fixed"})
            return "<<garbage>>"

        judge = judge_with([(MED_PREFIX, flaky)])
        kept, removed, review = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert kept and not review


def _matching_fixture():
    """Three docs; the judge validates only doc d2 of the reranked top 3."""
    docs = [
        Document(id="d1", text="alpha condition overview shared terms"),
        Document(id="d2", text="alpha condition treatment details shared terms"),
        Document(id="d3", text="alpha condition prevention notes shared terms"),
    ]
    store = CorpusStore(docs)
    query = Query(id="q1", text="alpha condition treatment", answer="use the alpha protocol")
    bm25 = Bm25Index.build(store, Bm25Settings(tokenizer="simple"), [query.text])

    def rerank(prompt):
        return _json({"ranking": [2, 1, 3]})

    def evidence(prompt):
        if "treatment details" in prompt:
            return _json({"evidence_spans": ["alpha condition treatment details"]})
        return _json({"evidence_spans": []})

    def answer(prompt):
        return _json({"answer": "alpha protocol treats it", "reason": "from evidence"})

    def validate(prompt):
        return _json({"similarity_score": 0.9, "explanation": "matches"})

    judge = judge_with(
        [
            (RERANK_PREFIX, rerank),
            (EVIDENCE_PREFIX, evidence),
            (ANSWER_PREFIX, answer),
            (VALIDATE_PREFIX, validate),
        ]
    )
    return store, bm25, query, judge


class TestMatchPositivePairs:
    def test_only_validated_doc_returned(self):
        store, bm25, query, judge = _matching_fixture()
        cfg = BenchmarkSettings()
        pairs, review = match_positive_pairs(query, bm25, judge, cfg, store)
        assert [p.doc_id for p in pairs] == ["d2"]
        assert not review

    def test_empty_evidence_rejects_pair(self):
        store, bm25, query, judge = _matching_fixture()
        cfg = BenchmarkSettings()
        pairs, _ = match_positive_pairs(query, bm25, judge, cfg, store)
        assert all(p.doc_id != "d1" for p in pairs)
        assert all(p.doc_id != "d3" for p in pairs)

    def test_low_similarity_fails_validation(self):
        store, bm25, query, _ = _matching_fixture()

        judge = judge_with(
            [
                (RERANK_PREFIX, lambda p: _json({"ranking": [1, 2, 3]})),
                (EVIDENCE_PREFIX, lambda p: _json({"evidence_spans": ["some span"]})),
                (ANSWER_PREFIX, lambda p: _json({"answer": "unrelated", "reason": "r"})),
                (VALIDATE_PREFIX, lambda p: _json({"similarity_score": 0.1, "explanation": "no"})),
            ]
        )
        cfg = BenchmarkSettings()
        assert match_positive_pairs(query, bm25, judge, cfg, store)[0] == []

    def test_unparseable_rerank_routes_query_to_review(self):
        store, bm25, query, _ = _matching_fixture()
        judge = judge_with([(RERANK_PREFIX, lambda p: "garbage")])
        cfg = BenchmarkSettings()
        pairs, review = match_positive_pairs(query, bm25, judge, cfg, store)
        assert pairs == []
        assert review and review[0].stage == "rerank"

    def test_rerank_cap_respected(self):
        store, bm25, query, _ = _matching_fixture()
        judge = judge_with(
            [
                (RERANK_PREFIX, lambda p: _json({"ranking": [1, 2, 3]})),
                (EVIDENCE_PREFIX, lambda p: _json({"evidence_spans": ["span"]})),
                (ANSWER_PREFIX, lambda p: _json({"answer": "a", "reason": "r"})),
                (VALIDATE_PREFIX, lambda p: _json({"similarity_score": 1.0, "explanation": "e"})),
            ]
        )
        cfg = BenchmarkSettings(rerank_top_m=2)
        pairs, _ = match_positive_pairs(query, bm25, judge, cfg, store)
        assert len(pairs) == 2  # top-m cap, not all 3


class TestFilterPseudoRelevant:
    def _pair(self, qid="q1", doc="d1"):
        return CandidatePair(
            query_id=qid,
            doc_id=doc,
            query_text="query text",
            doc_text="doc text",
        )

    def test_quality_two_of_five_removed_at_point_six(self):
        judge = judge_with([(QD_PREFIX, lambda p: _json({"quality_score": 2, "explanation": "weak"}))])
        kept, _ = filter_pseudo_relevant([self._pair()], judge, threshold=0.6)
        assert kept == []

    def test_quality_five_kept(self):
        judge = judge_with([(QD_PREFIX, lambda p: _json({"quality_score": 5, "explanation": "great"}))])
        kept, _ = filter_pseudo_relevant([self._pair()], judge, threshold=0.6)
        assert len(kept) == 1
        assert kept[0].rel_score == pytest.approx(1.0)

    def test_threshold_boundary_keeps(self):
        judge = judge_with([(QD_PREFIX, lambda p: _json({"quality_score": 3, "explanation": "ok"}))])
        kept, _ = filter_pseudo_relevant([self._pair()], judge, threshold=0.6)
        assert len(kept) == 1  # 3/5 = 0.6 >= 0.6

    def test_mixed_scores_match_pointwise_predicate(self):
        scores = {"d1": 1, "d2": 2, "d3": 3, "d4": 4, "d5": 5}

        def qd(prompt):
            for doc, score in scores.items():
                if f"text for {doc}" in prompt:
                    return _json({"quality_score": score, "explanation": "scripted"})
            raise AssertionError("unknown doc")

        judge = judge_with([(QD_PREFIX, qd)])
        pairs = [
            CandidatePair(
                query_id="q",
                doc_id=doc,
                query_text="q text",
                doc_text=f"text for {doc}",
            )
            for doc in scores
        ]
        kept, _ = filter_pseudo_relevant(pairs, judge, threshold=0.6)
        expected = [doc for doc, score in scores.items() if score / 5.0 >= 0.6]
        assert [p.doc_id for p in kept] == expected

    def test_unparseable_goes_to_review(self):
        judge = judge_with([(QD_PREFIX, lambda p: "???")])
        kept, review = filter_pseudo_relevant([self._pair()], judge, threshold=0.6)
        assert kept == [] and review


def _pipeline_judge(med_labels, validated_docs, quality_scores):
    """Scripted judge for full pipeline runs; ids are embedded in item texts."""

    def med(prompt):
        for item_id, label in med_labels.items():
            if f"[{item_id}]" in prompt:
                return _json({"label": label, "reason": f"scripted for {item_id}"})
        return _json({"label": 1, "reason": "default keep"})

    def rerank(prompt):
        return _json({"ranking": [1, 2, 3]})

    def evidence(prompt):
        for doc_id in validated_docs:
            if f"[{doc_id}]" in prompt:
                return _json({"evidence_spans": [f"evidence from {doc_id}"]})
        return _json({"evidence_spans": []})

    def answer(prompt):
        return _json({"answer": "generated answer", "reason": "r"})

    def validate(prompt):
        return _json({"similarity_score": 0.95, "explanation": "consistent"})

    def qd(prompt):
        for doc_id, score in quality_scores.items():
            if f"[{doc_id}]" in prompt:
                return _json({"quality_score": score, "explanation": "scripted"})
        return _json({"quality_score": 5, "explanation": "default"})

    return judge_with(
        [
            (MED_PREFIX, med),
            (RERANK_PREFIX, rerank),
            (EVIDENCE_PREFIX, evidence),
            (ANSWER_PREFIX, answer),
            (VALIDATE_PREFIX, validate),
            (QD_PREFIX, qd),
        ]
    )


def _pipeline_inputs():
    texts = [
        Document("t1", "[t1] alpha treatment basics shared"),
        Document("t2", "[t2] alpha treatment advanced shared"),
        Document("t3", "[t3] cooking recipes nothing medical"),
    ]
    queries = [
        Query(id="qa", text="[qa] alpha treatment question"),
        Query(id="qb", text="[qb] stock market question"),
    ]
    return texts, queries


class TestRunPipeline:
    def test_end_to_end_emits_exactly_surviving_pairs(self, tmp_path):
        texts, queries = _pipeline_inputs()
        judge = _pipeline_judge(
            med_labels={"t3": 0, "qb": 0},  # cooking text and stock query removed
            validated_docs={"t1", "t2"},
            quality_scores={"t1": 5, "t2": 2},  # t2 pair fails the 0.6 threshold
        )
        cfg = BenchmarkSettings()
        report = run_pipeline(texts, queries, judge, cfg, Bm25Settings(), tmp_path / "out")
        qrels = load_qrels(tmp_path / "out" / "qrels.tsv")
        assert qrels.entries == {"qa": {"t1": 1}}
        emitted_queries = load_queries(tmp_path / "out" / "queries.jsonl")
        assert [q.id for q in emitted_queries] == ["qa"]
        store = load_corpus(tmp_path / "out" / "corpus.jsonl")
        assert store.ids == ["t1", "t2"]  # medically kept texts
        assert report.stages["1_medical_filter_texts"]["kept"] == 2
        assert report.stages["1_medical_filter_texts"]["removed"] == 1
        assert not report.flagged

    def test_stage_counts_conserve(self, tmp_path):
        texts, queries = _pipeline_inputs()
        judge = _pipeline_judge(med_labels={}, validated_docs={"t1"}, quality_scores={})
        report = run_pipeline(texts, queries, judge, BenchmarkSettings(), Bm25Settings(), tmp_path / "out")
        for stage in ("1_medical_filter_texts", "1_medical_filter_queries"):
            counts = report.stages[stage]
            assert counts["kept"] + counts["removed"] + counts["review"] == counts["input"]
        stage3 = report.stages["3_relevance_filter"]
        assert stage3["kept"] + stage3["removed"] + stage3["review"] == stage3["input"]

    def test_zero_survivors_is_valid_empty_dataset_with_warning(self, tmp_path, caplog):
        texts, queries = _pipeline_inputs()
        judge = _pipeline_judge(med_labels={}, validated_docs=set(), quality_scores={})
        with caplog.at_level(logging.WARNING):
            report = run_pipeline(texts, queries, judge, BenchmarkSettings(), Bm25Settings(), tmp_path / "out")
        assert (tmp_path / "out" / "qrels.tsv").exists()
        assert load_qrels(tmp_path / "out" / "qrels.tsv").entries == {}
        assert any("ZERO" in w for w in report.warnings)

    def test_no_text_kept_leaves_no_query_unmatched(self, tmp_path):
        # with an empty store no query is matched, so none counts as without pairs
        texts, queries = _pipeline_inputs()
        judge = _pipeline_judge(med_labels={"t1": 0, "t2": 0, "t3": 0}, validated_docs=set(), quality_scores={})
        report = run_pipeline(texts, queries, judge, BenchmarkSettings(), Bm25Settings(), tmp_path / "out")
        assert report.stages["2_pair_matching"] == {
            "input_queries": 2, "pairs_validated": 0, "queries_without_pairs": 0, "review": 0
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        texts, queries = _pipeline_inputs()

        def run(out):
            judge = _pipeline_judge(
                med_labels={"t3": 0}, validated_docs={"t1", "t2"}, quality_scores={"t2": 1}
            )
            run_pipeline(texts, queries, judge, BenchmarkSettings(), Bm25Settings(), out)
            return {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.is_file()
            }

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_review_flood_flags_run(self, tmp_path):
        texts, queries = _pipeline_inputs()
        judge = judge_with([(MED_PREFIX, lambda p: "garbage")])  # nothing else reached
        cfg = BenchmarkSettings(max_review_fraction=0.2)
        report = run_pipeline(texts, queries, judge, cfg, Bm25Settings(), tmp_path / "out")
        assert report.flagged

    def test_qc_report_files_written(self, tmp_path):
        texts, queries = _pipeline_inputs()
        judge = _pipeline_judge(med_labels={}, validated_docs={"t1"}, quality_scores={})
        run_pipeline(texts, queries, judge, BenchmarkSettings(), Bm25Settings(), tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "qc_report.json").read_text())
        assert "stages" in payload and "review_bucket" in payload
        assert (tmp_path / "out" / "qc_report.txt").read_text().startswith("benchmark construction")


class TestJudgeFailures:
    """Every judge step meets both failure kinds in one run_pipeline call.

    A garbled verdict (no JSON, then JSON without the key on the repair
    request) gets exactly one repair request before it goes to review. A
    present but wrong-typed value goes to review without a repair request,
    except MED_RELEVANCE, which repairs whenever neither label nor score reads.
    """

    DOCS = ["dE1", "dE2", "dA", "dV1", "dV2", "dQ1", "dQ2", "dK"]  # qp's rerank order
    GARBLED = {
        ("med", "tm1"), ("med", "qm1"), ("rerank", "qr1"), ("evidence", "dE1"),
        ("answer", "dA"), ("validate", "dV1"), ("quality", "dQ1"),
    }
    WRONG_TYPED = {
        ("med", "tm2"): {"label": "x"},
        ("med", "qm2"): {"label": "x"},
        ("rerank", "qr2"): {"ranking": "1,2"},
        ("evidence", "dE2"): {"evidence_spans": "x"},
        ("validate", "dV2"): {"similarity_score": "high"},
        ("quality", "dQ2"): {"quality_score": "x"},
    }
    GARBAGE = "<<not json>>"
    LACKS_KEY = _json({"unrelated": True})
    STEPS = [
        ("med", MED_PREFIX), ("rerank", RERANK_PREFIX), ("evidence", EVIDENCE_PREFIX),
        ("answer", ANSWER_PREFIX), ("validate", VALIDATE_PREFIX), ("quality", QD_PREFIX),
    ]

    def _judge(self, calls):
        def respond(prompt, cfg):
            step = next(name for name, prefix in self.STEPS if prompt.startswith(prefix))
            markers = re.findall(r"\[([a-z]\w*)\]", prompt)
            item = markers[0] if step in ("med", "rerank") else next(m for m in markers if m.startswith("d"))
            repair = prompt.endswith("keys.")
            calls.append((step, item, repair))
            time.sleep(0.001 * (sum(map(ord, item)) % 5))  # items answer out of input order
            if (step, item) in self.GARBLED:
                return self.LACKS_KEY if repair else self.GARBAGE
            if (step, item) in self.WRONG_TYPED:
                return _json(self.WRONG_TYPED[step, item])
            if step == "rerank":
                numbers = {doc: int(n) for n, doc in re.findall(r"^\[(\d+)\] \[(\w+)\]", prompt, re.MULTILINE)}
                return _json({"ranking": [numbers[doc] for doc in self.DOCS]})
            verdicts = {
                "med": {"label": 1, "reason": "medical"},
                "evidence": {"evidence_spans": [f"span of [{item}]"]},
                "answer": {"answer": f"answer from [{item}]"},
                "validate": {"similarity_score": 0.9},
                "quality": {"quality_score": 5},
            }
            return _json(verdicts[step])

        return MockGeneratorClient(responder=respond)

    def test_each_step_garbled_and_wrong_typed(self, tmp_path):
        self._check(tmp_path, parallelism=1)

    def test_each_step_garbled_and_wrong_typed_at_parallelism_4(self, tmp_path):
        # items answer out of input order (see _judge); every output keeps it
        self._check(tmp_path, parallelism=4)

    def _check(self, tmp_path, parallelism):
        texts = [Document("tm1", "[tm1] garbled text"), Document("tm2", "[tm2] wrong-typed text")]
        texts += [Document(doc, f"[{doc}] alpha shared") for doc in self.DOCS]
        queries = [Query(id=qid, text=f"[{qid}] alpha shared") for qid in ("qm1", "qm2", "qr1", "qr2", "qp")]
        calls = []
        report = run_pipeline(
            texts,
            queries,
            self._judge(calls),
            BenchmarkSettings(rerank_top_m=8),
            Bm25Settings(),
            tmp_path / "out",
            parallelism,
        )

        repairs = [(step, item) for step, item, repair in calls if repair]
        expected_repairs = [
            ("med", "tm1"), ("med", "tm2"), ("med", "qm1"), ("med", "qm2"), ("rerank", "qr1"),
            ("evidence", "dE1"), ("answer", "dA"), ("validate", "dV1"), ("quality", "dQ1"),
        ]
        # items judged at once may send their requests in any order; review keeps input order
        assert sorted(repairs) == sorted(expected_repairs)
        if parallelism == 1:
            assert repairs == expected_repairs
        assert len(calls) == 49  # 40 first requests and 9 repairs
        review = [
            ("medical_filter_texts", "tm1", "unparseable judge verdict", self.LACKS_KEY),
            ("medical_filter_texts", "tm2", "unparseable judge verdict", _json({"label": "x"})),
            ("medical_filter_queries", "qm1", "unparseable judge verdict", self.LACKS_KEY),
            ("medical_filter_queries", "qm2", "unparseable judge verdict", _json({"label": "x"})),
            ("rerank", "qr1", "unparseable rerank verdict", self.LACKS_KEY),
            ("rerank", "qr2", "unparseable rerank verdict", _json({"ranking": "1,2"})),
            ("evidence", "qp:dE1", "unparseable evidence verdict", self.LACKS_KEY),
            ("evidence", "qp:dE2", "unparseable evidence verdict", _json({"evidence_spans": "x"})),
            ("answer", "qp:dA", "unparseable answer", self.LACKS_KEY),
            ("validate", "qp:dV1", "unparseable validation verdict", self.LACKS_KEY),
            ("validate", "qp:dV2", "similarity score is not a number in [0, 1]", _json({"similarity_score": "high"})),
            ("relevance_filter", "qp:dQ1", "unparseable quality verdict", self.LACKS_KEY),
            ("relevance_filter", "qp:dQ2", "quality score is not an integer from 1 to 5", _json({"quality_score": "x"})),
        ]
        assert [(r.stage, r.item_id, r.reason, r.raw_response) for r in report.review_bucket] == review
        expected = {
            "stages": {
                "1_medical_filter_texts": {"input": 10, "kept": 8, "removed": 0, "review": 2, "removed_items": []},
                "1_medical_filter_queries": {"input": 5, "kept": 3, "removed": 0, "review": 2, "removed_items": []},
                "2_pair_matching": {"input_queries": 3, "pairs_validated": 3, "queries_without_pairs": 2, "review": 7},
                "3_relevance_filter": {"input": 3, "kept": 1, "removed": 0, "review": 2},
            },
            "review_bucket": [
                {"stage": stage, "item_id": item, "reason": reason, "raw_response": raw}
                for stage, item, reason, raw in review
            ],
            "warnings": ["review bucket holds 13/15 items; run flagged"],
            "flagged": True,
        }
        assert (tmp_path / "out" / "qc_report.json").read_bytes() == dump_json(expected).encode("utf-8")
        assert load_qrels(tmp_path / "out" / "qrels.tsv").entries == {"qp": {"dK": 1}}


class TestStageOrderAtParallelism:
    """A list-level stage at parallelism 4 runs on several threads and returns
    kept, removed and review in input order, though later items answer
    first: the same lists as at parallelism 1. (Pair matching is covered
    through run_pipeline by TestJudgeFailures.)"""

    N = 24

    def _judge(self, prefix, verdicts, threads):
        """Item i's verdict is verdicts[i % 4] (kept, removed, garbled,
        wrong-typed), given after a sleep that shrinks with i."""

        def respond(prompt):
            threads.add(threading.get_ident())
            index = int(re.search(r"\[i(\d+)\]", prompt).group(1))
            time.sleep(0.00025 * (self.N - index))
            return verdicts[index % 4]

        return judge_with([(prefix, respond)])

    def _runs(self, stage, prefix, verdicts):
        results, threads = [], []
        for parallelism in (1, 4):
            threads.append(set())
            results.append(stage(self._judge(prefix, verdicts, threads[-1]), parallelism))
        assert len(threads[0]) == 1 and len(threads[1]) > 1
        assert results[0] == results[1]
        return results[1]

    def _ids(self, *remainders):
        return [f"i{i}" for i in range(self.N) if i % 4 in remainders]

    def test_medical_filter(self):
        items = [Document(f"i{i}", f"[i{i}] text") for i in range(self.N)]
        verdicts = [_json({"label": 1}), _json({"label": 0}), "garbage", _json({"label": "x"})]
        kept, removed, review = self._runs(
            lambda judge, parallelism: medical_relevance_filter(items, judge, 0.5, parallelism=parallelism),
            MED_PREFIX,
            verdicts,
        )
        assert [j.text_id for j in kept] == self._ids(0)
        assert [j.text_id for j in removed] == self._ids(1)
        assert [r.item_id for r in review] == self._ids(2, 3)

    def test_relevance_filter(self):
        verdicts = [_json({"quality_score": 5}), _json({"quality_score": 1}), "garbage", _json({"quality_score": "x"})]
        kept, review = self._runs(
            lambda judge, parallelism: filter_pseudo_relevant(
                [CandidatePair("q", f"i{i}", "query", f"[i{i}] passage") for i in range(self.N)],
                judge,
                0.6,
                parallelism,
            ),
            QD_PREFIX,
            verdicts,
        )
        assert [p.doc_id for p in kept] == self._ids(0)
        assert [(r.item_id, r.reason) for r in review] == [
            (f"q:i{i}", "unparseable quality verdict" if i % 4 == 2 else "quality score is not an integer from 1 to 5")
            for i in range(self.N)
            if i % 4 >= 2
        ]


class TestNonFiniteVerdicts:
    """json.loads reads NaN and Infinity; a non-finite number does not read as
    a verdict value, and neither does a bool or a value outside its template's
    contract (a label other than 0 or 1, a score or similarity score outside
    [0, 1], a quality score that is not an integer from 1 to 5). A judge step
    sends the item to review with its wrong-type reason and no repair request;
    MED_RELEVANCE repairs once, then reviews; a ranking skips the entry."""

    @staticmethod
    def _answers(verdict, calls):
        """A rule that returns `verdict` and records whether each request was a repair."""

        def respond(prompt):
            calls.append(prompt.endswith("keys."))
            return _json(verdict)

        return respond

    @pytest.mark.parametrize(
        "verdict",
        [{"score": float("nan")}, {"score": float("inf")}, {"label": float("inf")}, {"label": float("-inf")}]
        + [{"label": 0.9}, {"label": 5}, {"label": -1}, {"label": True}, {"score": 7.0}, {"score": -0.1}],
    )
    def test_medical_filter_repairs_then_reviews(self, verdict):
        calls = []
        judge = judge_with([(MED_PREFIX, self._answers(verdict, calls))])
        kept, removed, review = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert not kept and not removed
        assert [(r.item_id, r.reason, r.raw_response) for r in review] == [
            ("t1", "unparseable judge verdict", _json(verdict))
        ]
        assert calls == [False, True]

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf"), 7.0, 1.5, -0.5, True])
    def test_similarity_score_goes_to_review(self, score):
        store, bm25, query, _ = _matching_fixture()
        calls = []
        judge = judge_with(
            [
                (RERANK_PREFIX, lambda p: _json({"ranking": [1]})),
                (EVIDENCE_PREFIX, lambda p: _json({"evidence_spans": ["span"]})),
                (ANSWER_PREFIX, lambda p: _json({"answer": "a"})),
                (VALIDATE_PREFIX, self._answers({"similarity_score": score}, calls)),
            ]
        )
        pairs, review = match_positive_pairs(query, bm25, judge, BenchmarkSettings(rerank_top_m=1), store)
        assert pairs == []
        assert [(r.stage, r.reason) for r in review] == [("validate", "similarity score is not a number in [0, 1]")]
        assert review[0].item_id.startswith("q1:")
        assert calls == [False]

    @pytest.mark.parametrize("score", [float("inf"), float("-inf"), float("nan"), 4.7, 9, 0, 6, True, False])
    def test_quality_score_goes_to_review(self, score):
        calls = []
        judge = judge_with([(QD_PREFIX, self._answers({"quality_score": score}, calls))])
        pair = TestFilterPseudoRelevant()._pair()
        kept, review = filter_pseudo_relevant([pair], judge, threshold=0.6)
        assert kept == []
        assert [(r.stage, r.item_id, r.reason) for r in review] == [
            ("relevance_filter", "q1:d1", "quality score is not an integer from 1 to 5")
        ]
        assert calls == [False]

    def test_ranking_skips_non_finite_entries(self):
        store, bm25, query, _ = _matching_fixture()
        judge = judge_with(
            [
                (RERANK_PREFIX, lambda p: _json({"ranking": [float("inf"), 1.5, True, 2, float("nan"), 0.5, 1, 3]})),
                (EVIDENCE_PREFIX, lambda p: _json({"evidence_spans": ["alpha condition"]})),
                (ANSWER_PREFIX, lambda p: _json({"answer": "a"})),
                (VALIDATE_PREFIX, lambda p: _json({"similarity_score": 0.9})),
            ]
        )
        pairs, review = match_positive_pairs(query, bm25, judge, BenchmarkSettings(rerank_top_m=2), store)
        assert not review
        ranked = bm25_search(bm25, query.text, 3).ids
        assert [pair.doc_id for pair in pairs] == [ranked[1], ranked[0]]


class TestVerdictBounds:
    """The ends of each template's contract read: a 0/1 label, a score in
    [0, 1], an integer quality score from 1 to 5 (an integral float too)."""

    @pytest.mark.parametrize(
        "verdict, med_score", [({"label": 0}, 0.0), ({"label": 1.0}, 1.0), ({"score": 0.0}, 0.0), ({"score": 1}, 1.0)]
    )
    def test_medical_filter(self, verdict, med_score):
        judge = judge_with([(MED_PREFIX, lambda p: _json(verdict))])
        kept, removed, review = medical_relevance_filter([Document("t1", "text")], judge, threshold=0.5)
        assert not review
        assert [j.med_score for j in kept + removed] == [med_score]

    @pytest.mark.parametrize("score, rel_score", [(1, 0.2), (4.0, 0.8), (5, 1.0)])
    def test_quality_score(self, score, rel_score):
        judge = judge_with([(QD_PREFIX, lambda p: _json({"quality_score": score}))])
        kept, review = filter_pseudo_relevant([TestFilterPseudoRelevant()._pair()], judge, threshold=0.0)
        assert not review
        assert [pair.rel_score for pair in kept] == [rel_score]


class TestRawLoaders:
    """construct-benchmark reads raw texts with load_corpus and raw queries
    with load_queries."""

    def test_raw_queries_with_answers(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text(
            json.dumps({"_id": "q1", "text": "question", "answer": "ref answer"}) + "\n"
            + json.dumps({"_id": "q2", "text": "another"}) + "\n"
        )
        queries = load_queries(path)
        assert queries[0].answer == "ref answer"
        assert queries[1].answer is None

    def test_raw_texts(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text(json.dumps({"_id": "t1", "text": "body", "title": "ignored"}) + "\n")
        assert [(doc.id, doc.text) for doc in load_corpus(path)] == [("t1", "body")]

    def test_malformed_raw_queries_line_is_parse_error(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text(json.dumps({"_id": "q1", "text": "question"}) + "\n[1, 2\n")
        with pytest.raises(ParseError, match="raw.jsonl.*line 2"):
            load_queries(path)

    def test_malformed_raw_texts_line_is_parse_error(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"_id": "t1", "text": }\n')
        with pytest.raises(ParseError, match="texts.jsonl.*line 1"):
            load_corpus(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(ValidationError, match="queries file not found"):
            load_queries(tmp_path / "nope.jsonl")
        with pytest.raises(ValidationError, match="corpus file not found"):
            load_corpus(tmp_path / "nope.jsonl")


def test_benchmark_settings_validation():
    with pytest.raises(ValidationError):
        BenchmarkSettings(med_threshold=1.5)
    with pytest.raises(ValidationError):
        BenchmarkSettings(rel_threshold=-0.1)
    with pytest.raises(ValidationError):
        BenchmarkSettings(bm25_top_k=0)
