"""Run configuration: a YAML file with ${ENV_VAR} interpolation, flag overrides,
and a resolved snapshot written next to every run's outputs.

`RunConfig` assembles one dataclass per YAML section, each defined once with
its defaults and range checks (`__post_init__`). The `fusion`, `sampling`,
`selflearn`, `benchmark` and `bm25` sections live in the modules that read
them (`hyde.FusionConfig`, `textgen.SamplingSettings`,
`selflearn.SelfLearnSettings`, `benchkit.BenchmarkSettings`,
`bm25.Bm25Settings`); the rest are defined here. `util.from_mapping` builds
them, checking every YAML value against its field's annotation (an int is
accepted where a float is expected; a bool is not a number), so an unknown key
or a bad value is a ValidationError naming `<section>.<key>` at load.
`RunConfig.validate` checks only what spans the top level: `clients`,
`parallelism`, the endpoints a remote run needs, that no two `datasets`
share a name, and that `out_dir` is neither an existing file nor under one.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .benchkit import BenchmarkSettings
from .bm25 import Bm25Settings
from .embed import MockEmbedderClient, RemoteEmbedderClient
from .errors import ParseError, ValidationError
from .hyde import FusionConfig
from .metrics import PAIRINGS
from .selflearn import SelfLearnSettings
from .textgen import (
    HYPOTHETICAL_TEMPLATES,
    TEMPLATE_NAMES,
    MockGeneratorClient,
    RemoteGeneratorClient,
    SamplingSettings,
    load_template,
)
from .util import atomic_write_text, derive_seed, dump_json, from_mapping, text_lines

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate(value):
    if isinstance(value, str):
        def _sub(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ValidationError(f"environment variable {name!r} referenced in config is not set")
            return os.environ[name]

        return _ENV_RE.sub(_sub, value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


@dataclass
class DatasetPaths:
    name: str = "dataset"
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    template: str | None = None  # per-dataset override of fusion.template

    def __post_init__(self):
        # the name is a file name in out_dir: <name>.emb, run_<name>[_r<i>].trec, trace_<name>.jsonl
        if self.name in ("", ".", "..") or any(sep and sep in self.name for sep in ("/", os.sep, os.altsep, "\0")):
            raise ValidationError(
                f"dataset.name {self.name!r} is not a file name: it is empty, '.' or '..', or holds a path"
                " separator or NUL"
            )
        if self.template is not None and self.template not in HYPOTHETICAL_TEMPLATES:
            raise ValidationError(
                f"dataset.template {self.template!r} for dataset {self.name!r} is not one of"
                f" {HYPOTHETICAL_TEMPLATES}"
            )


@dataclass
class GeneratorSettings:
    """The `generator` section: where the remote model is served and how
    requests to it wait and retry. `EmbedderSettings` adds the embedder's own
    keys to these."""

    endpoint: str = ""
    model: str = ""
    api_key: str = ""
    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 1.0

    section = "generator"  # names keys in errors; not a field

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:
            raise ValidationError(f"{self.section}.timeout must be finite and > 0, got {self.timeout}")
        for key in ("max_retries", "backoff"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValidationError(f"{self.section}.{key} must be finite and >= 0, got {getattr(self, key)}")


@dataclass
class EmbedderSettings(GeneratorSettings):
    dim: int = 256
    truncate_chars: int = 1024
    batch_size: int = 64

    section = "embedder"

    def __post_init__(self):
        super().__post_init__()
        if self.dim < 2:
            raise ValidationError(f"embedder.dim must be >= 2, got {self.dim}")
        for key in ("truncate_chars", "batch_size"):
            if getattr(self, key) < 1:
                raise ValidationError(f"embedder.{key} must be >= 1")


@dataclass
class EvalSettings:
    k_values: list[int] = field(default_factory=lambda: [10, 100])
    primary_k: int = 10
    repeats: int = 5
    pairing: str = "query"
    compare_to_dense: bool = True

    def __post_init__(self):
        if not self.k_values or min(self.k_values) < 1:
            raise ValidationError("eval.k_values must be a non-empty list of values >= 1")
        for key in ("primary_k", "repeats"):
            if getattr(self, key) < 1:
                raise ValidationError(f"eval.{key} must be >= 1")
        if self.pairing not in PAIRINGS:
            raise ValidationError(f"eval.pairing {self.pairing!r} is not one of {PAIRINGS}")


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    clients: str = "mock"  # mock | remote
    parallelism: int = 1
    dataset: DatasetPaths = field(default_factory=DatasetPaths)
    datasets: list[DatasetPaths] = field(default_factory=list)
    generator: GeneratorSettings = field(default_factory=GeneratorSettings)
    embedder: EmbedderSettings = field(default_factory=EmbedderSettings)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    selflearn: SelfLearnSettings = field(default_factory=SelfLearnSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    bm25: Bm25Settings = field(default_factory=Bm25Settings)
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    sampling: SamplingSettings = field(default_factory=SamplingSettings)

    def all_datasets(self) -> list[DatasetPaths]:
        if self.datasets:
            return self.datasets
        return [self.dataset]

    def validate(self) -> None:
        if self.clients not in ("mock", "remote"):
            raise ValidationError(f"clients must be 'mock' or 'remote', got {self.clients!r}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        if self.clients == "remote" and not (self.generator.endpoint and self.embedder.endpoint):
            raise ValidationError("remote clients require generator.endpoint and embedder.endpoint")
        # a dataset's name keys its cache, run files and report entry
        names = [dataset.name for dataset in self.datasets]
        if len(set(names)) < len(names):
            raise ValidationError(f"datasets lists the name {max(names, key=names.count)!r} more than once")
        # refused before any work, not when the first output is written
        out_dir = Path(self.out_dir)
        existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not existing.is_dir():
            raise ValidationError(f"out_dir {self.out_dir} cannot be a directory: {existing} is a file")


def load_config(path: str | Path | None, **overrides) -> RunConfig:
    """Load YAML config (optional), interpolate ${ENV}, apply flag overrides,
    validate. A YAML syntax error is a ParseError naming the file and line; a
    file that sets both `dataset` and a non-empty `datasets` is a
    ValidationError naming the file and both keys."""
    data = None
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        text = "".join(line for _, line in text_lines(path))
        try:
            data = yaml.safe_load(text)
        except yaml.reader.ReaderError as exc:  # a control character: a position in the text, no mark
            problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
            raise ParseError(f"{problem} in {path.name}", line=text.count("\n", 0, exc.position) + 1) from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None) or getattr(exc, "context_mark", None)
            line = mark.line + 1 if mark else None
            raise ParseError(f"{getattr(exc, 'problem', None) or exc} in {path.name}", line=line) from None
        data = _interpolate(data)
        if isinstance(data, dict) and "dataset" in data and data.get("datasets"):
            raise ValidationError(f"{path.name} sets both dataset and datasets; a run reads one or the other")
    config = from_mapping(RunConfig, {} if data is None else data, "config")
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config


def write_resolved_config(config: RunConfig, out_dir: str | Path) -> None:
    """Snapshot everything needed to re-execute: resolved config plus the
    prompt-template bodies in use (their text is the version)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    redacted = dataclasses.asdict(config)
    if config.datasets:  # so that the snapshot loads again
        del redacted["dataset"]
    for section in ("generator", "embedder"):
        if redacted[section].get("api_key"):
            redacted[section]["api_key"] = "<redacted>"
    atomic_write_text(
        out_dir / "resolved_config.yaml",
        yaml.safe_dump(redacted, sort_keys=True, allow_unicode=True),
    )
    manifest = {name: load_template(name).body for name in sorted(TEMPLATE_NAMES)}
    atomic_write_text(out_dir / "prompt_templates.json", dump_json(manifest))


def build_generator_client(config: RunConfig):
    if config.clients == "mock":
        return MockGeneratorClient(seed=derive_seed(config.seed, "generator"))
    return RemoteGeneratorClient(**dataclasses.asdict(config.generator))


def build_embedder_client(config: RunConfig):
    if config.clients == "mock":
        return MockEmbedderClient(
            dim=config.embedder.dim, truncate_chars=config.embedder.truncate_chars
        )
    return RemoteEmbedderClient(**dataclasses.asdict(config.embedder))
