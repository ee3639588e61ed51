"""One repetition of a workload, in a fresh Python process.

    python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the CLI argument lists to run as set-up and
as the timed region, the output checks to make, and where to write the result.
The process times `import slhyde.cli`, installs the request counters (and, when
the plan asks for it, the span tracer), runs the set-up commands and then the
timed commands through `slhyde.cli.main`, reads its peak RSS, and only then
checks the outputs. The result is one JSON file.
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import slhyde.cli  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - t0

import hashlib  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Counters, Tracer  # noqa: E402


def run_commands(argvs: list[list[str]]) -> tuple[float, list[dict]]:
    records = []
    start = time.perf_counter()
    for argv in argvs:
        t = time.perf_counter()
        try:
            code = slhyde.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a bad argument list this way
            code = exc.code if isinstance(exc.code, int) else 2
        records.append({"argv": argv, "code": code, "wall_s": time.perf_counter() - t})
    return time.perf_counter() - start, records


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_selflearn(plan: dict, checks: dict, out: dict) -> None:
    from slhyde.config import build_embedder_client, load_config
    from slhyde.embed import embed_text, load_cache
    from slhyde.retrieval import DenseIndex, dense_search
    from slhyde.selflearn import load_triplets_jsonl, validate_sft_file

    out_dir = Path(plan["out_dir"])
    stats = json.loads((out_dir / "sft_stats.json").read_text())
    checks["sft_schema"] = validate_sft_file(out_dir / "sft.jsonl") == stats["emitted"]
    # validate_triplets_file is len(load_triplets_jsonl(path)); the triplets are
    # needed below, so they are loaded (and schema-checked) once.
    triplets = load_triplets_jsonl(out_dir / "triplets.jsonl")
    checks["triplets_schema"] = len(triplets) == stats["emitted"]
    out["failed_items"] += stats["skipped_errors"]
    out["sft_emitted_ratio"] = stats["emitted"] / stats["total_documents"]

    # hardneg_recall: mined negatives against the exact top-m of the same fused
    # vector, rebuilt with a fresh mock embedder and searched exactly.
    config = load_config(plan["config"])
    emb = build_embedder_client(config)
    index = DenseIndex(load_cache(out_dir / f"{config.dataset.name}.emb"))
    hit = mined = 0
    for triplet in triplets:
        fused = (embed_text(emb, triplet.query) + embed_text(emb, triplet.pseudo)) / 2.0
        m = len(triplet.negatives)
        exact = [d for d, _ in dense_search(index, fused, m + 1) if d != triplet.positive][:m]
        hit += len(set(exact) & set(triplet.negatives))
        mined += m
    checks["triplets_mined"] = mined > 0
    out["hardneg_recall"] = hit / mined if mined else 0.0


def check_eval(plan: dict, checks: dict, out: dict) -> None:
    out_dir = Path(plan["out_dir"])
    judged = set()
    with open(plan["qrels"], encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if line.strip():
                judged.add(line.split()[0])
    runs = sorted(out_dir.glob("run_*_r*.trec"))
    checks["trec_runs"] = len(runs) == plan["repeats"]
    for path in runs:
        with path.open(encoding="utf-8") as fh:
            seen = {line.split(" ", 1)[0] for line in fh}
        checks[f"trec_covers_judged:{path.name}"] = judged <= seen
    report = json.loads((out_dir / "report.json").read_text())
    ndcg = report.get("reports", {}).get("ndcg@10", {}).get("average")
    checks["report_ndcg10"] = isinstance(ndcg, float)
    out["ndcg10"] = ndcg if isinstance(ndcg, float) else 0.0
    out["failed_items"] += out["counters"]["degraded"]


def check_construct(plan: dict, checks: dict, out: dict) -> None:
    out_dir = Path(plan["out_dir"]) / "bench"
    qc = json.loads((out_dir / "qc_report.json").read_text())
    stages = qc["stages"]
    for name in ("1_medical_filter_texts", "1_medical_filter_queries", "3_relevance_filter"):
        s = stages[name]
        checks[f"qc_counts:{name}"] = s["input"] == s["kept"] + s["removed"] + s["review"]
    checks["qc_counts:2_pair_matching"] = (
        stages["2_pair_matching"]["input_queries"] == stages["1_medical_filter_queries"]["kept"]
        and stages["3_relevance_filter"]["input"] == stages["2_pair_matching"]["pairs_validated"]
    )
    with (out_dir / "corpus.jsonl").open(encoding="utf-8") as fh:
        checks["qc_counts:corpus"] = sum(1 for _ in fh) == stages["1_medical_filter_texts"]["kept"]
    out["failed_items"] += len(qc["review_bucket"])


CHECKS = {"selflearn": check_selflearn, "eval": check_eval, "construct": check_construct}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    counters = Counters()
    counters.install()
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()

    setup_cmd_s, setup_records = run_commands(plan["setup"])
    timed_s, timed_records = run_commands(plan["timed"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    out = {
        "import_s": IMPORT_S,
        "setup_s": IMPORT_S + setup_cmd_s,
        "after_import_s": setup_cmd_s + timed_s,
        "timed_s": timed_s,
        "peak_rss_mb": peak_rss_mb,
        "commands": setup_records + timed_records,
        "counters": counters.snapshot(),
        "failed_items": 0,
        "checks": {},
        "env": environment(),
    }
    checks = out["checks"]
    for record in out["commands"]:
        checks[f"exit_code:{record['argv'][0]}"] = record["code"] == 0
    if plan["timed"] and all(checks.values()):
        try:
            CHECKS[plan["kind"]](plan, checks, out)
        except Exception as exc:  # noqa: BLE001 - any broken artifact is a failed check
            checks["artifacts_readable"] = False
            out["check_error"] = f"{type(exc).__name__}: {exc}"
        out["digest"] = tree_digest(Path(plan["out_dir"]))
    if tracer is not None:
        out["spans"] = tracer.write(plan["spans_path"])
    Path(plan["result_path"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
