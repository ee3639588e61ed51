#!/usr/bin/env python3
"""End-to-end mock-mode demo: synthesize a dataset, then run
embed-corpus -> build-sft-data -> build-retriever-data -> evaluate -> search
-> hyde-search --trace -> construct-benchmark, so every command runs. search
and hyde-search both write run_demo.trec, so they write into run/search and
run/hyde. construct-benchmark reads the synthetic corpus and queries as its
raw texts and raw queries and writes the constructed benchmark into run/bench.

Everything is offline and deterministic; rerunning with the same seed
reproduces every output byte-for-byte, at any --parallelism (passed to every
command) but for the `parallelism` key of each resolved_config.yaml. The
config, the data and every output path are relative to the run directory,
and each command runs from there, so two runs under different --out
directories are byte-identical (`diff -r` of the two is empty). Prints the
evaluation report and where the artifacts landed.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="run directory (default: temp dir)")
    parser.add_argument("--docs", type=int, default=100)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parallelism", type=int, default=1, help="passed to every slhyde command")
    args = parser.parse_args()

    root = args.out or Path(tempfile.mkdtemp(prefix="slhyde-demo-"))
    root.mkdir(parents=True, exist_ok=True)
    data_dir = Path("data")
    run_dir = Path("run")

    here = Path(__file__).resolve().parent
    # commands run from `root`; the slhyde package of this checkout stays importable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable,
            str(here / "make_synthetic_dataset.py"),
            str(data_dir),
            "--docs", str(args.docs),
            "--queries", str(args.queries),
            "--seed", str(args.seed),
        ],
        check=True,
        cwd=root,
        env=env,
    )

    config = {
        "seed": args.seed,
        "out_dir": str(run_dir),
        "clients": "mock",
        "dataset": {
            "name": "demo",
            "corpus": str(data_dir / "corpus.jsonl"),
            "queries": str(data_dir / "queries.jsonl"),
            "qrels": str(data_dir / "qrels.tsv"),
        },
        "eval": {"k_values": [10, 100], "primary_k": 10, "repeats": args.repeats},
    }
    config_path = Path("config.yaml")
    (root / config_path).write_text(yaml.safe_dump(config))

    bench_dir = run_dir / "bench"
    bench_flags = [
        "--texts", str(data_dir / "corpus.jsonl"),
        "--queries", str(data_dir / "queries.jsonl"),
        "--out", str(bench_dir),
    ]
    commands = [[name] for name in ("embed-corpus", "build-sft-data", "build-retriever-data", "evaluate")]
    commands.append(["search", "--out", str(run_dir / "search")])
    commands.append(["hyde-search", "--trace", "--out", str(run_dir / "hyde")])
    commands.append(["construct-benchmark", *bench_flags])
    for command, *flags in commands:
        print(f"\n== slhyde {command}", flush=True)
        result = subprocess.run(
            [sys.executable, "-m", "slhyde", command, "--config", str(config_path),
             "--parallelism", str(args.parallelism), *flags],
            cwd=root,
            env=env,
        )
        if result.returncode not in (0, 3):
            print(f"{command} failed with exit code {result.returncode}", file=sys.stderr)
            return result.returncode

    print(f"\nartifacts: {root / run_dir}")
    for name in ("sft.jsonl", "triplets.jsonl", "report.json", "report.txt"):
        print(f"  {root / run_dir / name}")
    for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv", "qc_report.txt"):
        print(f"  {root / bench_dir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
