import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from slhyde.errors import ValidationError
from slhyde.metrics import (
    _t_tail,
    build_report,
    ndcg_at_k,
    paired_t_test,
    recall_at_k,
    render_report_text,
    report_to_dict,
    write_trec_run,
)
from slhyde.retrieval import RankedHits

T_TAIL_TABLE = Path(__file__).resolve().parent / "golden" / "t_tail_reference.json"


def _hits(ids):
    return RankedHits(ids=list(ids), scores=[float(len(ids) - i) for i in range(len(ids))])


def _reference_ndcg(ranking, judged, k):
    """Independent brute-force reference: explicit loops, no shared helpers."""
    gains = []
    for position, doc in enumerate(ranking[:k]):
        grade = judged.get(doc, 0)
        gains.append((2 ** grade - 1) / math.log2(position + 2))
    ideal_grades = sorted((g for g in judged.values() if g > 0), reverse=True)[:k]
    ideal = [(2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal_grades)]
    if not ideal:
        return None
    return sum(gains) / sum(ideal)


def _reference_recall(ranking, judged, k):
    relevant = {d for d, g in judged.items() if g > 0}
    if not relevant:
        return None
    return len(relevant & set(ranking[:k])) / len(relevant)


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        judged = {"a": 2, "b": 1}
        assert ndcg_at_k(_hits(["a", "b", "c"]), judged, 10) == pytest.approx(1.0)

    def test_single_relevant_at_position_two(self):
        judged = {"rel": 1}
        value = ndcg_at_k(_hits(["other", "rel", "x"]), judged, 10)
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert value == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_beyond_cutoff_is_zero(self):
        judged = {"rel": 1}
        ranking = [f"d{i}" for i in range(10)] + ["rel"]
        assert ndcg_at_k(_hits(ranking), judged, 10) == 0.0

    def test_no_positive_judgments_is_skipped(self):
        assert ndcg_at_k(_hits(["a"]), {"a": 0}, 10) is None
        assert ndcg_at_k(_hits(["a"]), {}, 10) is None

    def test_graded_gains(self):
        judged = {"hi": 3, "lo": 1}
        value = ndcg_at_k(_hits(["lo", "hi"]), judged, 10)
        dcg = 1.0 / math.log2(2) + 7.0 / math.log2(3)
        idcg = 7.0 / math.log2(2) + 1.0 / math.log2(3)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)

    def test_accepts_ranked_hits_object(self):
        hits = RankedHits(ids=["a", "b"], scores=[2.0, 1.0])
        assert ndcg_at_k(hits, {"a": 1}, 10) == pytest.approx(1.0)

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            ranking = [f"d{i}" for i in rng.permutation(n)]
            judged = {
                f"d{i}": int(rng.integers(0, 3))
                for i in rng.choice(n, size=min(n, 5), replace=False)
            }
            expected = _reference_ndcg(ranking, judged, 10)
            got = ndcg_at_k(_hits(ranking), judged, 10)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_moving_relevant_earlier_never_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            ranking = [f"d{i}" for i in range(n)]
            rel_pos = int(rng.integers(1, n))
            judged = {ranking[rel_pos]: 1, ranking[0]: int(rng.integers(0, 2))}
            before = ndcg_at_k(_hits(ranking), judged, 10)
            earlier = list(ranking)
            doc = earlier.pop(rel_pos)
            earlier.insert(rel_pos - 1, doc)
            after = ndcg_at_k(_hits(earlier), judged, 10)
            assert after >= before - 1e-12


class TestRecall:
    def test_all_relevant_in_topk(self):
        judged = {"a": 1, "b": 2}
        assert recall_at_k(_hits(["a", "b", "c"]), judged, 10) == 1.0

    def test_half_of_two(self):
        judged = {"a": 1, "zz": 1}
        assert recall_at_k(_hits(["a", "b"]), judged, 2) == 0.5

    def test_random_50_doc_instance_matches_set_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ranking = [f"d{i}" for i in rng.permutation(50)]
            judged = {f"d{i}": 1 for i in rng.choice(50, size=5, replace=False)}
            assert recall_at_k(_hits(ranking), judged, 10) == pytest.approx(
                _reference_recall(ranking, judged, 10), abs=1e-15
            )

    def test_no_positives_skipped(self):
        assert recall_at_k(_hits(["a"]), {"a": 0}, 5) is None


class TestPairedTTest:
    def test_identical_samples_p_one(self):
        t, p = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert t == 0.0 and p == 1.0

    def test_constant_shift_degenerate_p_zero(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = list(rng.normal(size=10))
            b = list(rng.normal(size=10))
            t, p = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert t == pytest.approx(float(ref.statistic), abs=1e-6)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_tail_matches_the_scipy_table(self):
        # 2 * scipy.special.stdtr(k, -|t|) from scipy 1.17.1 for k up to 20,000,
        # |t| from 1e-4 to 316, tails down to 1e-300 and rows where it is 0.0
        table = json.loads(T_TAIL_TABLE.read_text())
        assert len(table["rows"]) > 1000
        for k, t, expected in table["rows"]:
            assert abs(_t_tail(k, t) - expected) <= 1e-11 * expected, (k, t)
            assert _t_tail(k, -t) == _t_tail(k, t)

    @pytest.mark.parametrize("t", [1e160, -1e160, 1e300, math.inf])
    def test_tail_past_the_square_overflow_is_zero(self, t):
        assert _t_tail(10, t) == 0.0

    def test_tail_of_zero_and_nan(self):
        assert _t_tail(3, 0.0) == 1.0 and _t_tail(3, 1e-300) == 1.0
        assert math.isnan(_t_tail(3, math.nan))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])


# Published per-dataset nDCG@10 means for the three systems being compared;
# report arithmetic must reproduce the published improvement percentages.
PUBLISHED_BASE_RETRIEVER = {
    "d01": 58.61, "d02": 44.26, "d03": 71.71, "d04": 59.60, "d05": 42.57,
    "d06": 47.73, "d07": 73.33, "d08": 67.13, "d09": 43.27, "d10": 45.79,
}
PUBLISHED_HYDE = {
    "d01": 64.39, "d02": 52.73, "d03": 73.98, "d04": 57.27, "d05": 38.52,
    "d06": 47.11, "d07": 74.32, "d08": 73.07, "d09": 46.16, "d10": 38.68,
}
PUBLISHED_SELF_LEARNED = {
    "d01": 71.49, "d02": 60.96, "d03": 75.34, "d04": 58.58, "d05": 39.07,
    "d06": 50.13, "d07": 76.95, "d08": 73.81, "d09": 46.78, "d10": 40.71,
}
PUBLISHED_IMPROVEMENT = {
    "d01": 11.03, "d02": 15.61, "d03": 1.84, "d04": 2.29, "d05": 1.43,
    "d06": 6.41, "d07": 3.54, "d08": 1.01, "d09": 1.34, "d10": 5.25,
}


def _one_run(means):
    """Each dataset's published mean as its one run mean."""
    return {name: [mean] for name, mean in means.items()}


class TestBuildReport:
    def test_published_averages(self):
        report = build_report(_one_run(PUBLISHED_SELF_LEARNED), baseline=_one_run(PUBLISHED_HYDE))
        assert report.average == pytest.approx(59.38, abs=0.005)
        assert report.comparison.baseline_average == pytest.approx(56.62, abs=0.005)
        assert report.comparison.average_improvement_pct == pytest.approx(4.87, abs=0.01)

    def test_published_per_dataset_improvements(self):
        report = build_report(_one_run(PUBLISHED_SELF_LEARNED), baseline=_one_run(PUBLISHED_HYDE))
        for name, expected in PUBLISHED_IMPROVEMENT.items():
            assert report.comparison.improvement_pct[name] == pytest.approx(expected, abs=0.01)

    def test_single_dataset_improvement(self):
        report = build_report({"knowledge": [71.49]}, baseline={"knowledge": [64.39]})
        assert report.comparison.improvement_pct["knowledge"] == pytest.approx(11.03, abs=0.01)

    def test_equal_systems_zero_improvement(self):
        values = {"a": [0.5, 0.6], "b": [0.7, 0.8]}
        report = build_report(values, baseline=values)
        assert all(v == pytest.approx(0.0) for v in report.comparison.improvement_pct.values())
        assert report.comparison.average_improvement_pct == pytest.approx(0.0)

    def test_misaligned_datasets_rejected(self):
        with pytest.raises(ValidationError, match="match"):
            build_report({"a": [1.0]}, baseline={"b": [1.0]})

    def test_per_query_lists_get_p_values(self):
        system = {"ds": [0.9, 0.8, 0.95]}
        baseline = {"ds": [0.5, 0.6, 0.55]}
        report = build_report(system, baseline=baseline)
        assert report.comparison.p_values["ds"] is not None
        assert 0.0 <= report.comparison.p_values["ds"] <= 1.0
        _, expected = paired_t_test(system["ds"], baseline["ds"])
        assert report.comparison.p_values["ds"] == expected

    def test_a_baseline_of_another_length_is_rejected(self):
        with pytest.raises(ValidationError, match="differ in length: 4 vs 3"):
            build_report({"ds": [0.9, 0.8, 0.95, 0.1]}, baseline={"ds": [0.5, 0.6, 0.7]})
        with pytest.raises(ValidationError, match="differ in length: 2 vs 3"):
            build_report({"ds": [0.9, 0.8]}, baseline={"ds": [0.5, 0.6, 0.7]})

    def test_one_value_entries_have_no_p_value(self):
        report = build_report({"ds": [1.0]}, baseline={"ds": [0.9]})
        assert report.comparison.p_values["ds"] is None

    def test_dataset_mean_is_arithmetic_mean(self):
        report = build_report({"ds": [0.2, 0.4, 0.9]})
        assert report.datasets["ds"].mean == pytest.approx((0.2 + 0.4 + 0.9) / 3)

    def test_cross_dataset_average_unweighted(self):
        report = build_report({"small": [1.0], "big": [0.0, 0.0, 0.0, 0.0]})
        assert report.average == pytest.approx(0.5)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValidationError):
            build_report({})

    def test_render_rounds_to_two_decimals(self):
        report = build_report(_one_run(PUBLISHED_SELF_LEARNED), baseline=_one_run(PUBLISHED_HYDE))
        text = render_report_text(report)
        assert "+4.87" in text
        assert "59.38" in text
        payload = report_to_dict(report)
        assert payload["comparison"]["pairing"] == "query"

    def test_zero_baseline_improvement_is_none(self):
        report = build_report({"a": [0.0, 0.0], "b": [0.5, 0.7]}, baseline={"a": [0.0, 0.0], "b": [0.5, 0.5]})
        assert report.comparison.improvement_pct == {"a": None, "b": pytest.approx(20.0)}
        assert report.comparison.average_improvement_pct == pytest.approx(20.0)  # 0.3 against 0.25
        zero = build_report({"a": [0.0, 0.0]}, baseline={"a": [0.0, 0.0]})
        payload = json.loads(json.dumps(report_to_dict(zero)))
        assert payload["comparison"]["improvement_pct"] == {"a": None}
        assert payload["comparison"]["average_improvement_pct"] is None
        assert render_report_text(zero).splitlines()[2:4] == [
            "a             0.00         2         0       0.00          -    1.0000",
            "Average       0.00                           0.00          -",
        ]


class TestTrecRunIO:
    def test_round_trip(self, tmp_path):
        runs = {
            "q1": RankedHits(ids=["d1", "d2"], scores=[0.9, 0.5]),
            "q2": RankedHits(ids=["d3"], scores=[1.5]),
        }
        path = tmp_path / "run.trec"
        write_trec_run(runs.items(), path, tag="test")
        assert path.read_text() == (
            "q1 Q0 d1 1 0.900000 test\n"
            "q1 Q0 d2 2 0.500000 test\n"
            "q2 Q0 d3 1 1.500000 test\n"
        )

    def test_query_without_hits_writes_no_line(self, tmp_path):
        empty = RankedHits(ids=[], scores=[])
        runs = {"q0": empty, "q1": RankedHits(ids=["d1", "d2"], scores=[0.5, 0.25]), "q2": empty}
        path = tmp_path / "run.trec"
        write_trec_run(runs.items(), path, tag="t")
        assert path.read_text() == "q1 Q0 d1 1 0.500000 t\nq1 Q0 d2 2 0.250000 t\n"
        write_trec_run({"q0": empty, "%s": empty}.items(), path, tag="t")
        assert path.read_text() == ""

    def test_percent_signs_are_written_as_they_are(self, tmp_path):
        runs = {
            "q%1": RankedHits(ids=["d%s"], scores=[0.25]),
            "%%d": RankedHits(ids=["d1", "%"], scores=[1.0, -0.5]),
            "%s": RankedHits(ids=[], scores=[]),
        }
        path = tmp_path / "run.trec"
        write_trec_run(runs.items(), path, tag="t%(x)s")
        assert path.read_text() == (
            "q%1 Q0 d%s 1 0.250000 t%(x)s\n"
            "%%d Q0 d1 1 1.000000 t%(x)s\n"
            "%%d Q0 % 2 -0.500000 t%(x)s\n"
        )
