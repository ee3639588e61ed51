#!/usr/bin/env python3
"""slhyde benchmark: fixed-seed synthetic workloads run through the real CLI in mock mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/ and scripts/ must be there). The
inputs are made by scripts/make_synthetic_dataset.py from --seed. Each
repetition runs in a fresh Python process (perfbench/worker.py) at
parallelism 1 with one BLAS thread; repetitions go on until their timed
commands have taken --seconds in all. Outputs are checked after each timed region. The last stdout line is
one JSON object: with --trace 0 it holds the end-to-end metrics (medians over
the repetitions), with --trace 1 the per-layer metrics of one traced
repetition, which runs after an untraced one so that the tracing overhead can
be reported. perfbench/README.md says why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0       # every invocation must end within 180 s
MAX_REPS = 4
SETUP_SAMPLES = 3        # setup_s is the median of at least this many fresh-process set-ups
NOT_EXERCISED = 1.0      # value of a quality metric on a workload that does not report it

DATASET = {"name": "syn", "corpus": "data/corpus.jsonl", "queries": "data/queries.jsonl", "qrels": "data/qrels.tsv"}

# kind: which output checks apply. docs/queries: synthetic input size.
# quality: the quality metric the workload reports.
# prepare: commands run once, untimed, before the repetitions (the cold cache
# the eval workloads then read). setup/timed: commands of each repetition.
# cold: the output directory is emptied before each repetition.
WORKLOADS = {
    "selflearn-2k": {
        "kind": "selflearn", "docs": 2000, "queries": 500, "quality": "hardneg_recall",
        "config": {"selflearn": {"sample_docs": 500}},
        "prepare": [], "setup": [],
        "timed": [["embed-corpus"], ["build-sft-data"], ["build-retriever-data"]],
        "cold": True,
    },
    # nDCG@10 over a few hundred queries of a 50k corpus moves by about 20%
    # from seed to seed, more than any bound can allow, so this workload
    # reports no quality metric; hyde-eval-1k-k5 runs the same code and does.
    "hyde-eval-50k": {
        "kind": "eval", "docs": 50000, "queries": 300, "quality": None,
        "config": {"eval": {"repeats": 1}, "fusion": {"strategy": "mean_pool"}},
        "prepare": [["embed-corpus"]], "setup": [["embed-corpus"]],
        "timed": [["evaluate", "--mode", "hyde"]],
        "cold": False,
    },
    "hyde-eval-1k-k5": {
        "kind": "eval", "docs": 1000, "queries": 1000, "quality": "ndcg10",
        "config": {"eval": {"repeats": 5}, "fusion": {"strategy": "mean_pool_k", "n": 5}},
        "prepare": [["embed-corpus"]], "setup": [["embed-corpus"]],
        "timed": [["evaluate", "--mode", "hyde"]],
        "cold": False,
    },
    # The constructed benchmark is then indexed (embed-corpus on its corpus),
    # the step that makes it searchable.
    "construct-10k": {
        "kind": "construct", "docs": 10000, "queries": 10000, "quality": None,
        "config": {
            "out_dir": "out/bench",
            "benchmark": {"raw_texts": "data/corpus.jsonl", "raw_queries": "data/queries.jsonl"},
        },
        "prepare": [], "setup": [],
        "timed": [["construct-benchmark"], ["embed-corpus", "--config", "index.yaml"]],
        "cold": True,
    },
}


def items_of(spec: dict) -> int:
    if spec["kind"] == "selflearn":
        return spec["config"]["selflearn"]["sample_docs"]
    if spec["kind"] == "eval":
        return spec["queries"] * spec["config"]["eval"]["repeats"]
    return spec["docs"] + spec["queries"]


def write_configs(spec: dict, seed: int, workdir: Path) -> None:
    config = {"seed": seed, "out_dir": "out", "clients": "mock", "parallelism": 1, "dataset": DATASET}
    config.update(spec["config"])
    # JSON is valid YAML, so no YAML writer is needed here.
    (workdir / "config.yaml").write_text(json.dumps(config))
    if spec["kind"] == "construct":
        index = {
            "seed": seed, "out_dir": "out/index", "clients": "mock", "parallelism": 1,
            "dataset": {"name": "bench", "corpus": "out/bench/corpus.jsonl", "queries": "out/bench/queries.jsonl"},
        }
        (workdir / "index.yaml").write_text(json.dumps(index))


def with_config(argv: list[str]) -> list[str]:
    return argv if "--config" in argv else argv + ["--config", "config.yaml"]


class Runner:
    def __init__(self, spec: dict, seed: int, workdir: Path, deadline: float):
        self.spec, self.seed = spec, seed
        self.workdir, self.deadline = workdir, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.count = 0

    def _run(self, argv: list[str], log: str) -> int:
        with open(self.workdir / log, "w") as fh:
            proc = subprocess.run(
                argv, cwd=self.workdir, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        return proc.returncode

    def prepare(self) -> None:
        code = self._run(
            [sys.executable, str(ROOT / "scripts" / "make_synthetic_dataset.py"), "data",
             "--docs", str(self.spec["docs"]), "--queries", str(self.spec["queries"]), "--seed", str(self.seed)],
            "synthesize.log",
        )
        if code != 0:
            raise RuntimeError(f"input synthesis failed (exit {code}); see {self.workdir / 'synthesize.log'}")
        write_configs(self.spec, self.seed, self.workdir)
        for argv in self.spec["prepare"]:
            code = self._run([sys.executable, "-m", "slhyde"] + with_config(argv), "prepare.log")
            if code != 0:
                raise RuntimeError(f"preparation {argv[0]} failed (exit {code})")

    def worker(self, timed: bool, trace: bool = False) -> dict | None:
        """One fresh-process repetition (timed) or set-up probe; None if it crashed."""
        self.count += 1
        name = f"rep{self.count}"
        out_dir = self.workdir / "out"
        if timed and self.spec["cold"]:
            shutil.rmtree(out_dir, ignore_errors=True)
        plan = {
            "kind": self.spec["kind"],
            "trace": trace,
            "config": "config.yaml",
            "out_dir": "out",
            "qrels": DATASET["qrels"],
            "repeats": self.spec["config"].get("eval", {}).get("repeats", 0),
            "setup": [with_config(a) for a in self.spec["setup"]],
            "timed": [with_config(a) for a in self.spec["timed"]] if timed else [],
            "result_path": f"{name}.json",
            "spans_path": f"{name}.spans.jsonl",
        }
        (self.workdir / f"{name}.plan.json").write_text(json.dumps(plan))
        code = self._run([sys.executable, str(HERE / "worker.py"), f"{name}.plan.json"], f"{name}.log")
        result_path = self.workdir / plan["result_path"]
        if code != 0 or not result_path.exists():
            tail = (self.workdir / f"{name}.log").read_text(errors="replace")[-2000:]
            print(f"worker {name} failed (exit {code}):\n{tail}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        if trace:
            result["spans_file"] = str(self.workdir / plan["spans_path"])
        return result


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ either way."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def measured(reps: list[dict | None]) -> float:
    """Seconds of timed commands the repetitions so far have measured."""
    return sum(r["timed_s"] for r in reps if r is not None)


def judge(reps: list[dict | None], items: int) -> tuple[bool, int, int, list[str]]:
    """Correctness over all repetitions: (correct, attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    for i, rep in enumerate(reps, start=1):
        attempted += items
        if rep is None:
            failed += items
            problems.append(f"rep{i}: worker crashed")
            continue
        bad = sorted(name for name, ok in rep["checks"].items() if not ok)
        if bad:
            failed += items
            problems.append(f"rep{i}: failed checks {bad} {rep.get('check_error', '')}".rstrip())
        else:
            failed += min(items, rep["failed_items"])
            if rep["failed_items"]:
                problems.append(f"rep{i}: {rep['failed_items']} failed items")
    done = [r for r in reps if r is not None]
    # Fixed seed in, identical out: artifacts, request counts and quality must
    # agree across every repetition of this invocation, traced or not.
    for key in ("digest", "counters", "ndcg10", "hardneg_recall"):
        values = {json.dumps(r.get(key), sort_keys=True) for r in done}
        if len(values) > 1:
            problems.append(f"{key} differs across repetitions: {sorted(values)}")
    correct = not problems and len(done) == len(reps)
    return correct, attempted, failed, problems


def end_to_end(spec: dict, reps: list[dict], setup_samples: list[float], attempted: int, failed: int) -> dict:
    items = items_of(spec)
    first = reps[0]
    quality = {
        name: first.get(name, 0.0) if name == spec["quality"] else NOT_EXERCISED
        for name in ("ndcg10", "hardneg_recall")
    }
    return {
        "items_per_s": (statistics.median(items / r["timed_s"] for r in reps), "items/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "embed_requests": (first["counters"]["embed_requests"], "count"),
        "gen_requests": (first["counters"]["gen_requests"], "count"),
        "ndcg10": (quality["ndcg10"], "score"),
        "hardneg_recall": (quality["hardneg_recall"], "fraction"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/slhyde/cli.py", "scripts/make_synthetic_dataset.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not an slhyde source checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    start = time.monotonic()
    spec = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(spec, args.seed, workdir, start + DEADLINE_S)
    try:
        runner.prepare()
        if args.trace:
            reps = [runner.worker(timed=True), runner.worker(timed=True, trace=True)]
        else:
            reps = []
            while not reps or (measured(reps) < args.seconds and len(reps) < MAX_REPS):
                reps.append(runner.worker(timed=True))
        correct, attempted, failed, problems = judge(reps, items_of(spec))
        done = [r for r in reps if r is not None]
        if not done:
            print("error: no repetition completed", file=sys.stderr)
            return 1

        info = {"workload": args.workload, "seed": args.seed, "reps": len(reps), "nproc": os.cpu_count()}
        info.update(source_identity())
        info.update(done[0]["env"])
        info["digest"] = done[0].get("digest")
        info["quality"] = {k: done[0][k] for k in ("ndcg10", "hardneg_recall") if k in done[0]}
        if args.trace:
            untraced, traced = reps
            if untraced is None or traced is None:
                print("error: the traced or untraced repetition crashed", file=sys.stderr)
                return 1
            values = layers.derive(layers.load_spans(traced["spans_file"]), traced, untraced)
            metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}
            if values["trace.coverage_min"] < 0.9:
                print("warning: traced layers cover less than 90% of a command's wall time", file=sys.stderr)
            # The last traced run's spans stay for inspection, one file per workload.
            kept = ROOT / ".perfbench_runs" / f"{args.workload}.spans.jsonl"
            os.replace(traced["spans_file"], kept)
            info["spans"] = str(kept.relative_to(ROOT))
        else:
            setup_samples = [r["setup_s"] for r in done]
            while len(setup_samples) < SETUP_SAMPLES:
                probe = runner.worker(timed=False)
                if probe is None or not all(probe["checks"].values()):
                    problems.append("set-up probe failed")
                    correct = False
                    break
                setup_samples.append(probe["setup_s"])
            info["setup_samples_s"] = [round(s, 4) for s in setup_samples]
            metrics = end_to_end(spec, done, setup_samples, attempted, failed)
        info["timed_s"] = [round(r["timed_s"], 4) for r in done]
        info["wall_s"] = round(time.monotonic() - start, 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
