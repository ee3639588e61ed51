"""Run configuration: a YAML file with ${ENV_VAR} interpolation, flag overrides,
and a resolved snapshot written next to every run's outputs.

`RunConfig` assembles one dataclass per YAML section. The `selflearn`,
`benchmark` and `bm25` sections are defined, with their defaults and checks,
in the modules that read them (`selflearn.SelfLearnSettings`,
`benchkit.BenchmarkSettings`, `bm25.Bm25Settings`), so a bad value fails when
its section is built at load. `RunConfig.validate` checks the rest.
"""
from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .benchkit import BenchmarkSettings
from .bm25 import Bm25Settings
from .embed import MockEmbedderClient, RemoteEmbedderClient
from .errors import ValidationError
from .hyde import FusionConfig
from .metrics import PAIRINGS
from .selflearn import SelfLearnSettings
from .textgen import (
    HYPOTHETICAL_TEMPLATES,
    TEMPLATE_FILES,
    MockGeneratorClient,
    RemoteGeneratorClient,
    SamplingConfig,
    load_template,
)
from .util import atomic_write_text, derive_seed, dump_json

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


@dataclass
class GeneratorSettings:
    endpoint: str = ""
    model: str = ""
    api_key: str = ""
    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 1.0


@dataclass
class EmbedderSettings:
    endpoint: str = ""
    model: str = ""
    api_key: str = ""
    dim: int = 256
    truncate_chars: int = 1024
    batch_size: int = 64
    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 1.0


@dataclass
class FusionSettings:
    strategy: str = "mean_pool"
    n: int | None = None
    template: str = "Q2P"


@dataclass
class EvalSettings:
    k_values: list[int] = field(default_factory=lambda: [10, 100])
    primary_k: int = 10
    repeats: int = 5
    pairing: str = "query"
    compare_to_dense: bool = True


@dataclass
class SamplingSettings:
    temperature: float = 0.7
    max_output_tokens: int = 512


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
    fusion: FusionSettings = field(default_factory=FusionSettings)
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
        numbers = [
            ("parallelism", self.parallelism, int),
            ("eval.primary_k", self.eval.primary_k, int),
            ("eval.repeats", self.eval.repeats, int),
            ("embedder.dim", self.embedder.dim, int),
            ("embedder.truncate_chars", self.embedder.truncate_chars, int),
            ("embedder.batch_size", self.embedder.batch_size, int),
            ("sampling.temperature", self.sampling.temperature, float),
            ("sampling.max_output_tokens", self.sampling.max_output_tokens, int),
        ]
        if self.fusion.n is not None:
            numbers.append(("fusion.n", self.fusion.n, int))
        if not isinstance(self.eval.k_values, list):
            raise ValidationError(f"eval.k_values must be a list, got {self.eval.k_values!r}")
        numbers += [("eval.k_values", k, int) for k in self.eval.k_values]
        for key, value, kind in numbers:
            _require_number(key, value, kind)
        if self.clients not in ("mock", "remote"):
            raise ValidationError(f"clients must be 'mock' or 'remote', got {self.clients!r}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        if self.fusion.template not in HYPOTHETICAL_TEMPLATES:
            raise ValidationError(
                f"fusion template {self.fusion.template!r} is not one of {HYPOTHETICAL_TEMPLATES}"
            )
        FusionConfig(strategy=self.fusion.strategy, n=self.fusion.n, template=self.fusion.template)
        try:
            SamplingConfig(
                temperature=self.sampling.temperature, max_output_tokens=self.sampling.max_output_tokens
            )
        except ValidationError as exc:
            raise ValidationError(f"sampling.{exc}") from None
        for dataset in self.all_datasets():
            if dataset.template is not None and dataset.template not in HYPOTHETICAL_TEMPLATES:
                raise ValidationError(
                    f"template {dataset.template!r} for dataset {dataset.name!r} is not one of"
                    f" {HYPOTHETICAL_TEMPLATES}"
                )
        if self.eval.primary_k < 1 or self.eval.repeats < 1:
            raise ValidationError("eval.primary_k and eval.repeats must be >= 1")
        if not self.eval.k_values or min(self.eval.k_values) < 1:
            raise ValidationError("eval.k_values must be a non-empty list of values >= 1")
        if self.eval.pairing not in PAIRINGS:
            raise ValidationError(f"eval.pairing {self.eval.pairing!r} is not one of {PAIRINGS}")
        if self.embedder.truncate_chars < 1 or self.embedder.batch_size < 1:
            raise ValidationError("embedder.truncate_chars and embedder.batch_size must be >= 1")
        if self.clients == "remote":
            if not self.generator.endpoint or not self.embedder.endpoint:
                raise ValidationError("remote clients require generator.endpoint and embedder.endpoint")


def _require_number(key: str, value, kind: type) -> None:
    """ValidationError naming `key` unless value is an int (kind int) or an int
    or float (kind float); a bool is neither."""
    allowed = (int, float) if kind is float else (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "a number" if kind is float else "an integer"
        raise ValidationError(f"{key} must be {expected}, got {value!r}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ValidationError(f"config section {path!r} must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown config keys in {path!r}: {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:  # a section that checks itself was given a value of the wrong type
        raise ValidationError(f"config section {path!r}: {exc}") from None


def load_config(path: str | Path | None, **overrides) -> RunConfig:
    """Load YAML config (optional), interpolate ${ENV}, apply flag overrides, validate."""
    data: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        loaded = yaml.safe_load(path.read_text("utf-8"))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValidationError("config root must be a mapping")
        data = _interpolate(loaded)

    sections = {
        "dataset": DatasetPaths,
        "generator": GeneratorSettings,
        "embedder": EmbedderSettings,
        "fusion": FusionSettings,
        "selflearn": SelfLearnSettings,
        "eval": EvalSettings,
        "bm25": Bm25Settings,
        "benchmark": BenchmarkSettings,
        "sampling": SamplingSettings,
    }
    kwargs: dict = {}
    for key, value in data.items():
        if key in sections:
            kwargs[key] = _build_section(sections[key], value, key)
        elif key == "datasets":
            if not isinstance(value, list):
                raise ValidationError("config key 'datasets' must be a list")
            kwargs["datasets"] = [
                _build_section(DatasetPaths, entry, f"datasets[{i}]") for i, entry in enumerate(value)
            ]
        elif key in {"seed", "out_dir", "clients", "parallelism"}:
            kwargs[key] = value
        else:
            raise ValidationError(f"unknown top-level config key {key!r}")
    config = RunConfig(**kwargs)
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
    for section in ("generator", "embedder"):
        if redacted[section].get("api_key"):
            redacted[section]["api_key"] = "<redacted>"
    atomic_write_text(
        out_dir / "resolved_config.yaml",
        yaml.safe_dump(redacted, sort_keys=True, allow_unicode=True),
    )
    manifest = {name: load_template(name).body for name in sorted(TEMPLATE_FILES)}
    atomic_write_text(out_dir / "prompt_templates.json", dump_json(manifest))


def build_generator_client(config: RunConfig):
    if config.clients == "mock":
        return MockGeneratorClient(seed=derive_seed(config.seed, "generator"))
    return RemoteGeneratorClient(
        endpoint=config.generator.endpoint,
        model=config.generator.model,
        api_key=config.generator.api_key or None,
        timeout=config.generator.timeout,
        max_retries=config.generator.max_retries,
        backoff=config.generator.backoff,
    )


def build_embedder_client(config: RunConfig):
    if config.clients == "mock":
        return MockEmbedderClient(
            dim=config.embedder.dim, truncate_chars=config.embedder.truncate_chars
        )
    return RemoteEmbedderClient(
        endpoint=config.embedder.endpoint,
        model=config.embedder.model,
        dim=config.embedder.dim,
        api_key=config.embedder.api_key or None,
        timeout=config.embedder.timeout,
        max_retries=config.embedder.max_retries,
        backoff=config.embedder.backoff,
        batch_size=config.embedder.batch_size,
        truncate_chars=config.embedder.truncate_chars,
    )
