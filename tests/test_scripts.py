"""The runnable scripts under scripts/: each is run as a subprocess, twice, and
must give the same bytes both times."""
import json
import os
import subprocess
import sys
from pathlib import Path

from slhyde.corpus import load_corpus, load_queries
from slhyde.selflearn import load_sft_jsonl, load_triplets_jsonl

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCRIPTS.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=300
    )


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_mock_pipeline_runs_in_two_directories_are_byte_identical(tmp_path):
    trees = []
    for name in ("a", "b"):
        args = ["--out", str(tmp_path / name), "--docs", "60", "--queries", "12", "--repeats", "2"]
        result = _run("run_mock_pipeline.py", *args)
        assert result.returncode == 0, result.stderr
        trees.append(_tree(tmp_path / name))
    assert "run/bench/qc_report.json" in trees[0]
    assert "run/search/run_demo.trec" in trees[0]
    assert "run/hyde/trace_demo.jsonl" in trees[0]
    assert trees[0] == trees[1]
    # every JSONL artifact reads back through its loader
    run = tmp_path / "a" / "run"
    assert load_sft_jsonl(run / "sft.jsonl")
    assert load_triplets_jsonl(run / "triplets.jsonl")
    assert len(load_corpus(run / "bench" / "corpus.jsonl")) and load_queries(run / "bench" / "queries.jsonl")
    trace = (run / "hyde" / "trace_demo.jsonl").read_text("utf-8").splitlines()
    assert trace and all(set(json.loads(line)) == {"query_id", "hypothetical_texts", "hits"} for line in trace)


def test_compare_fusion_strategies_is_deterministic():
    first, second = (_run("compare_fusion_strategies.py", "--docs", "60", "--queries", "20") for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout and first.stdout == second.stdout
