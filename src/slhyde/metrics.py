"""Retrieval metrics, paired significance, and report aggregation.

nDCG uses the trec gain convention (2^grade - 1) with a 1/log2(pos+1)
discount, normalized by the ideal DCG over the judged set; for binary qrels
the gain reduces to 0/1. Queries without a positive judgment are undefined
for both metrics and are reported as skipped, excluded from dataset means.
A report is built from aligned lists: a dataset's per-query values in
query-id order (or its run means) and a baseline's values, entry for entry.

All internal math is float64; rounding happens only when rendering. The
paired t-test's two-sided tail is computed here (`_t_tail`, a continued
fraction of the incomplete beta function), so the package needs no scipy.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .retrieval import RankedHits
from .util import atomic_write_text


def ndcg_at_k(hits: RankedHits, judged: Mapping[str, int], k: int) -> float | None:
    """nDCG@k, or None when the query has no positive judgment (skipped)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    positive = {doc: grade for doc, grade in judged.items() if grade > 0}
    if not positive:
        return None
    dcg = 0.0
    for pos, doc_id in enumerate(hits.ids[:k], start=1):
        grade = judged.get(doc_id, 0)
        if grade > 0:
            dcg += (2.0**grade - 1.0) / math.log2(pos + 1)
    ideal = sorted(positive.values(), reverse=True)[:k]
    idcg = sum((2.0**grade - 1.0) / math.log2(pos + 1) for pos, grade in enumerate(ideal, start=1))
    return dcg / idcg


def recall_at_k(hits: RankedHits, judged: Mapping[str, int], k: int) -> float | None:
    """|relevant in top-k| / |relevant|, or None when nothing is relevant."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    relevant = {doc for doc, grade in judged.items() if grade > 0}
    if not relevant:
        return None
    retrieved = set(hits.ids[:k])
    return len(relevant & retrieved) / len(relevant)


def _ln_beta_half(a: float) -> float:
    """ln B(a, 1/2) for a >= 1/2, within 1e-14.

    From a = 12 on it is the difference of two Stirling series, not
    lgamma(a) - lgamma(a + 1/2): that difference of two large numbers keeps
    their rounding error (1.5e-11 at a = 10,000), which the tail would take
    as a relative error.
    """
    if a < 12.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    def series(z: float) -> float:
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    return 0.5 * math.log(math.pi / a) + 0.5 - a * math.log1p(0.5 / a) + series(a) - series(a + 0.5)


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by modified Lentz; it converges
    fast for x < (a + 1) / (a + b + 2): under 70 terms for b = 1/2 and any
    a up to 5e11."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge: a={a} b={b} x={x}")


def _t_tail(k: float, t: float) -> float:
    """P(|T_k| > |t|) for Student's t with k degrees of freedom.

    That is I_x(k/2, 1/2) with x = k / (k + t^2), or 1 - I_y(1/2, k/2) with
    y = 1 - x where the fraction in x would converge slowly. x, y and their
    logarithms come from r = t^2/k without forming t^2, so a |t| past 1e154
    gives 0.0 and not nan.
    """
    if math.isnan(t):
        return math.nan
    r = abs(t) / k * abs(t)
    if r == 0.0:
        return 1.0
    x, y = 1.0 / (1.0 + r), 1.0 / (1.0 + 1.0 / r)
    a = 0.5 * k
    front = math.exp(-a * math.log1p(r) - 0.5 * math.log1p(1.0 / r) - _ln_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test: (t, p) with n - 1 degrees of freedom.

    p is `_t_tail(n - 1, t)`, within 1e-11 relative of scipy 1.17's
    2 * stdtr(n - 1, -|t|) for n - 1 up to 20,000 and p down to 1e-300
    (tests/golden/t_tail_reference.json). Past that its relative error grows
    about as n, where the continued fraction's terms cancel: 4e-11 at
    n = 1e6 and 3e-10 at n = 1e7, against a 40-digit reference.
    Conventions for degenerate inputs, where t is undefined: all differences
    zero -> (0.0, 1.0); zero-variance nonzero shift -> (signed inf, 0.0).
    """
    if len(a) != len(b):
        raise ValidationError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("paired t-test needs at least 2 samples")
    diffs = [x - y for x, y in zip(a, b)]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t_stat = mean / math.sqrt(var / n)
    return t_stat, _t_tail(n - 1, t_stat)


@dataclass
class DatasetResult:
    values: list[float]  # per-query values in query-id order, or run means; skips excluded
    skipped: int = 0

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValidationError("dataset has no scored queries")
        return sum(self.values) / len(self.values)


# t-test granularity of a comparison: per-query values, or one mean per run.
PAIRINGS = ("query", "run")


@dataclass
class Comparison:
    baseline_means: dict[str, float]
    improvement_pct: dict[str, float | None]
    baseline_average: float
    average_improvement_pct: float | None
    p_values: dict[str, float | None]
    pairing: str = "query"


@dataclass
class EvalReport:
    metric: str
    datasets: dict[str, DatasetResult]
    average: float
    comparison: Comparison | None = None


def build_report(
    runs: Mapping[str, Sequence[float]],
    baseline: Mapping[str, Sequence[float]] | None = None,
    metric: str = "ndcg@10",
    pairing: str = "query",
    skipped: Mapping[str, int] | None = None,
) -> EvalReport:
    """Aggregate per-dataset metric values, optionally against a baseline.

    Each dataset's values are its per-query values in query-id order, or its
    run means; its baseline values are paired with them entry for entry, and
    `skipped` counts its queries without a value.

    The cross-dataset average is the unweighted mean of dataset means; the
    average improvement is computed on the two averages, and per-dataset
    improvement is (system - baseline) / baseline * 100 (unrounded here), or
    None where the baseline is 0 and it is undefined.
    Significance is the paired t-test of a dataset's values against its
    baseline's where it has >= 2 values (a baseline of another length is a
    ValidationError); a dataset with one value gets no p-value.
    """
    if not runs:
        raise ValidationError("no datasets to report")
    skipped = skipped or {}
    results = {name: DatasetResult([float(v) for v in values], skipped.get(name, 0)) for name, values in runs.items()}
    average = sum(r.mean for r in results.values()) / len(results)
    comparison = None
    if baseline is not None:
        if set(baseline) != set(results):
            raise ValidationError(
                f"baseline datasets {sorted(baseline)} do not match system datasets {sorted(results)}"
            )
        base_values = {name: [float(v) for v in baseline[name]] for name in results}
        baseline_means = {name: DatasetResult(values).mean for name, values in base_values.items()}
        baseline_average = sum(baseline_means.values()) / len(baseline_means)
        comparison = Comparison(
            baseline_means=baseline_means,
            improvement_pct={name: _improvement_pct(results[name].mean, base) for name, base in baseline_means.items()},
            baseline_average=baseline_average,
            average_improvement_pct=_improvement_pct(average, baseline_average),
            p_values={name: paired_t_test(r.values, base_values[name])[1] if len(r.values) >= 2 else None
                      for name, r in results.items()},
            pairing=pairing,
        )
    return EvalReport(metric=metric, datasets=results, average=average, comparison=comparison)


def _improvement_pct(system: float, base: float) -> float | None:
    return (system - base) / base * 100.0 if base != 0 else None


def report_to_dict(report: EvalReport) -> dict:
    out: dict = {
        "metric": report.metric,
        "average": report.average,
        "datasets": {
            name: {"mean": r.mean, "values": r.values, "skipped": r.skipped}
            for name, r in report.datasets.items()
        },
    }
    if report.comparison:
        out["comparison"] = asdict(report.comparison)
    return out


def _pct_text(value: float | None) -> str:
    return f"{value:+9.2f}" if value is not None else f"{'-':>9}"


def render_report_text(report: EvalReport) -> str:
    """Human-readable table; values rounded to 2 decimals only here."""
    names = list(report.datasets)
    width = max([len(n) for n in names] + [8])
    lines = [f"metric: {report.metric}"]
    header = f"{'dataset':<{width}}  {'mean':>8}  {'queries':>8}  {'skipped':>8}"
    if report.comparison:
        header += f"  {'baseline':>9}  {'improve%':>9}  {'p':>8}"
    lines.append(header)
    for name in names:
        result = report.datasets[name]
        row = f"{name:<{width}}  {result.mean:8.2f}  {len(result.values):8d}  {result.skipped:8d}"
        if report.comparison:
            c = report.comparison
            p = c.p_values.get(name)
            p_text = f"{p:8.4f}" if p is not None else "       -"
            row += f"  {c.baseline_means[name]:9.2f}  {_pct_text(c.improvement_pct[name])}  {p_text}"
        lines.append(row)
    summary = f"{'Average':<{width}}  {report.average:8.2f}"
    if report.comparison:
        summary += (
            f"  {'':8}  {'':8}  {report.comparison.baseline_average:9.2f}"
            f"  {_pct_text(report.comparison.average_improvement_pct)}"
        )
        lines.append(summary)
        lines.append(f"pairing: {report.comparison.pairing}")
    else:
        lines.append(summary)
    return "\n".join(lines) + "\n"


# --- trec run files --------------------------------------------------------

def write_trec_run(pairs: Iterable[tuple[str, RankedHits]], path: str | Path, tag: str = "slhyde") -> None:
    """Write the (qid, hits) pairs of the iterable `pairs` as trec lines: qid
    Q0 docid rank score tag. The file is written as the pairs arrive, one
    query's lines at a time, so a stream of pairs is never held whole; each
    query's lines are one `%` format of its (doc id, score) values over a
    template with the qid, ranks and tag baked in."""
    tag = tag.replace("%", "%%")
    pieces: list[str] = []  # pieces[r]: rank r + 1's line after its qid

    def lines(qid: str, hits: RankedHits) -> str:
        n = len(hits)
        if not n:
            return ""  # the template would be the bare qid
        pieces.extend(f" Q0 %s {rank} %.6f {tag}\n" for rank in range(len(pieces) + 1, n + 1))
        flat: list = [None] * (2 * n)
        flat[0::2] = hits.ids
        flat[1::2] = hits.scores.tolist()
        qid = qid.replace("%", "%%")
        return (qid + qid.join(pieces[:n])) % tuple(flat)

    atomic_write_text(path, (lines(qid, hits) for qid, hits in pairs))
