"""The runnable scripts under scripts/: each is run as a subprocess, twice, and
must give the same bytes both times. The mock pipeline's bytes are also pinned
by tests/golden/mock_pipeline.sha256; a change that alters them on purpose
rewrites that manifest with

    PYTHONPATH=src python tests/test_scripts.py

and says why."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from slhyde.corpus import load_corpus, load_queries
from slhyde.selflearn import load_sft_jsonl, load_triplets_jsonl

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden" / "mock_pipeline.sha256"
PIPELINE_ARGS = ["--docs", "60", "--queries", "12", "--repeats", "2"]


def _run(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCRIPTS.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=300
    )


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _pipeline(out: Path, blas_threads: str, *flags: str) -> tuple[dict[str, bytes], list[str]]:
    """Every file the mock pipeline writes under `out`, run with PIPELINE_ARGS
    and `flags`, and its stdout lines with `out` written as <out>."""
    result = _run(
        "run_mock_pipeline.py", "--out", str(out), *PIPELINE_ARGS, *flags, OPENBLAS_NUM_THREADS=blas_threads
    )
    assert result.returncode == 0, result.stderr
    return _tree(out), result.stdout.replace(str(out), "<out>").splitlines()


def _made_with() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def _digests(tree: dict[str, bytes]) -> dict[str, str]:
    return {path: hashlib.sha256(data).hexdigest() for path, data in tree.items()}


def _format_manifest(tree: dict[str, bytes], stdout: list[str]) -> str:
    """sha256sum lines for every file of a pipeline run, then its stdout, each
    line quoted with "> "."""
    header = [
        f"# scripts/run_mock_pipeline.py {' '.join(PIPELINE_ARGS)}: the sha256 of every file it writes,",
        "# then its stdout with the --out directory written as <out>.",
        f"# Made with {_made_with()}. Regenerate: PYTHONPATH=src python tests/test_scripts.py",
    ]
    files = [f"{digest}  {path}" for path, digest in _digests(tree).items()]
    return "\n".join(header + files + [f"> {line}".rstrip() for line in stdout]) + "\n"


def _read_manifest(text: str) -> tuple[dict[str, str], list[str], list[str]]:
    """(path -> sha256, stdout lines, comment lines) of a manifest."""
    digests, stdout, comments = {}, [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line.startswith(">"):
            stdout.append(line[2:])
        else:
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return digests, stdout, comments


def test_mock_pipeline_runs_in_two_directories_are_byte_identical(tmp_path):
    # one BLAS thread, then two: no score may depend on how the BLAS splits its work
    runs = [_pipeline(tmp_path / name, threads) for name, threads in (("a", "1"), ("b", "2"))]
    trees = [tree for tree, _ in runs]
    assert "run/bench/qc_report.json" in trees[0]
    assert "run/search/run_demo.trec" in trees[0]
    assert "run/hyde/trace_demo.jsonl" in trees[0]
    assert trees[0] == trees[1]
    assert runs[0][1] == runs[1][1]
    # and they match the bytes the manifest pins
    digests, stdout, comments = _read_manifest(GOLDEN.read_text("utf-8"))
    actual = _digests(trees[0])
    differ = sorted(path for path in digests.keys() | actual.keys() if digests.get(path) != actual.get(path))
    assert not differ, f"{differ} differ from {GOLDEN.name} ({comments[-1][2:]}; this run: {_made_with()})"
    assert [line.rstrip() for line in runs[0][1]] == stdout
    # every JSONL artifact reads back through its loader
    run = tmp_path / "a" / "run"
    assert load_sft_jsonl(run / "sft.jsonl")
    assert load_triplets_jsonl(run / "triplets.jsonl")
    assert len(load_corpus(run / "bench" / "corpus.jsonl")) and load_queries(run / "bench" / "queries.jsonl")
    trace = (run / "hyde" / "trace_demo.jsonl").read_text("utf-8").splitlines()
    assert trace and all(set(json.loads(line)) == {"query_id", "hypothetical_texts", "hits"} for line in trace)


def test_mock_pipeline_at_parallelism_4_matches_the_manifest(tmp_path):
    # every file but resolved_config.yaml, and the stdout, are the pinned bytes;
    # each resolved_config.yaml is too once its parallelism key reads 1 again
    tree, stdout = _pipeline(tmp_path / "p4", "1", "--parallelism", "4")
    digests, golden_stdout, _ = _read_manifest(GOLDEN.read_text("utf-8"))
    configs = [path for path in tree if Path(path).name == "resolved_config.yaml"]
    assert len(configs) == 4
    for path in configs:
        assert tree[path].count(b"\nparallelism: 4\n") == 1
        tree[path] = tree[path].replace(b"\nparallelism: 4\n", b"\nparallelism: 1\n")
    assert _digests(tree) == digests
    assert [line.rstrip() for line in stdout] == golden_stdout


def test_compare_fusion_strategies_is_deterministic():
    first, second = (_run("compare_fusion_strategies.py", "--docs", "60", "--queries", "20") for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout and first.stdout == second.stdout
    assert hashlib.sha256(first.stdout.encode()).hexdigest()[:16] == "0a1377bd7c812cd0"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(_format_manifest(*_pipeline(Path(tmp) / "run", "1")), "utf-8")
