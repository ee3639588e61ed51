"""Generator clients: prompt templates, sampling, retries, deterministic mocks.

Two client flavors share one calling convention (`request_completions`):
the remote client (a `util.JsonEndpoint`) speaks the de-facto
chat-completions JSON protocol, the mock client is fully deterministic given
(prompt, seed, sample index) so that every pipeline can run offline and
reproduce byte-identically. `generate` retries a request that failed to
connect or got a 408, a 429 or a non-4xx status other than 200
(`util.retry_or_raise`), and one that gave too few non-empty completions (a
null content counts as empty); any other 4xx or an unreadable response is a
ProtocolError and is not retried.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
import re
import threading
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .corpus import Document
from .errors import DegenerateOutputError, TransportError, ValidationError
from .util import JsonEndpoint, retry_or_raise

logger = logging.getLogger(__name__)

_SLOT_RE = re.compile(r"\{([A-Z][A-Z0-9_]*)\}")
_ROLE_PREFIX_RE = re.compile(r"^(assistant|system|user)\s*[:：]\s*", re.IGNORECASE)

# Task templates usable for hypothetical-document generation, and the slot
# each one fills with the incoming query text.
_HYPOTHETICAL_SLOT = {"Q2P": "QUESTION", "T2P": "TITLE", "P2P": "TEXT"}
HYPOTHETICAL_TEMPLATES = tuple(_HYPOTHETICAL_SLOT)

_JUDGE_TEMPLATES = (
    "MED_RELEVANCE",
    "RERANK",
    "EVIDENCE",
    "ANSWER_BY_EVIDENCE",
    "VALIDATE_ANSWER",
    "QD_RELEVANCE",
)

# Every shipped template; the body of each is the package file
# prompts/<name in lower case>.txt.
TEMPLATE_NAMES = (*HYPOTHETICAL_TEMPLATES, "QUERY_GEN", "PSEUDO_GEN", *_JUDGE_TEMPLATES)


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    def slots(self) -> set[str]:
        return set(_SLOT_RE.findall(self.body))


@functools.lru_cache(maxsize=None)
def load_template(name: str) -> PromptTemplate:
    """Load a shipped template by name. Bodies live as editable package files."""
    if name not in TEMPLATE_NAMES:
        raise ValidationError(f"unknown prompt template {name!r}")
    body = resources.files("slhyde").joinpath("prompts", name.lower() + ".txt").read_text("utf-8")
    return PromptTemplate(name=name, body=body.rstrip("\n"))


@functools.lru_cache(maxsize=256)
def _split_body(body: str) -> tuple[str, ...]:
    """`body` split on its {SLOT} markers: the text between them at the even
    positions, the slot names at the odd ones."""
    return tuple(_SLOT_RE.split(body))


def render_prompt(template: PromptTemplate, slots: dict[str, str]) -> str:
    """Substitute {SLOT} markers. Pure; values are inserted verbatim and never rescanned."""
    pieces = list(_split_body(template.body))
    try:
        pieces[1::2] = [slots[name] for name in pieces[1::2]]
    except KeyError as exc:  # the first missing slot in body order
        raise ValidationError(f"missing slot {exc.args[0]!r} for template {template.name!r}") from None
    return "".join(pieces)


@dataclass(frozen=True)
class SamplingSettings:
    """The `sampling` config section: what every generator request shares."""

    temperature: float = 0.7
    max_output_tokens: int = 512

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValidationError(f"sampling.temperature must be finite and >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValidationError("sampling.max_output_tokens must be >= 1")


@dataclass(frozen=True)
class SamplingConfig(SamplingSettings):
    """One request's sampling: the section's settings plus its seed and sample count."""

    seed: int | None = None
    num_samples: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.num_samples < 1:
            raise ValidationError("num_samples must be >= 1")


def _clean_completion(text: str) -> str:
    cleaned = text.strip()
    cleaned = _ROLE_PREFIX_RE.sub("", cleaned, count=1)
    return cleaned.strip()


def _payload_tokens(prompt: str, limit: int | None = None) -> list[str]:
    """The first `limit` (default all) content tokens of a rendered prompt:
    its tokens after the instruction line that are not field markers."""
    lines = prompt.splitlines()
    body = lines[1:] if len(lines) > 1 else lines
    tokens = []
    for line in body:
        for tok in line.split():
            if not tok.endswith((":", "：")):
                tokens.append(tok)
                if len(tokens) == limit:
                    return tokens
    return tokens


def _prompt_payload(prompt: str) -> str:
    """Content tokens of a rendered prompt, or the whole prompt when it has none."""
    tokens = _payload_tokens(prompt)
    return " ".join(tokens) if tokens else prompt.strip()


def _payload_head(prompt: str, limit: int) -> str:
    """The first `limit` tokens of `_prompt_payload(prompt)`, without building the rest."""
    return " ".join(_payload_tokens(prompt, limit) or prompt.split()[:limit])


def hash_paraphrase(
    text: str,
    seed: int = 0,
    index: int = 0,
    max_tokens: int | None = None,
    drop_rate: float = 0.0,
) -> str:
    """Deterministic token-shuffle paraphrase of `text`.

    Keeps the bag of tokens (minus optional drops), changes their order, and is
    guaranteed not to return `text` itself when it has more than one token.
    """
    tokens = text.split()
    if not tokens:
        return text
    digest = hashlib.blake2b(f"{seed}|{index}|{text}".encode("utf-8"), digest_size=8).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    if drop_rate > 0 and len(tokens) > 1:
        keep = rng.random(len(tokens)) >= drop_rate
        if not keep.any():
            keep[0] = True
        tokens = [t for t, k in zip(tokens, keep) if k]
    order = rng.permutation(len(tokens))
    shuffled = [tokens[i] for i in order]
    if shuffled == tokens and len(tokens) > 1:
        shuffled = shuffled[1:] + shuffled[:1]
    if max_tokens is not None:
        shuffled = shuffled[:max_tokens]
    return " ".join(shuffled)


@functools.lru_cache(maxsize=1)
def _judge_prefixes() -> dict[str, str]:
    return {load_template(name).body.splitlines()[0]: name for name in _JUDGE_TEMPLATES}


def _judge_autopilot(prompt: str) -> str | None:
    """Deterministic valid-JSON verdicts for the shipped judge prompts.

    This is what lets the whole benchmark-construction pipeline run offline:
    an unscripted mock still answers every judge call in the format the
    pipeline expects (keep, rerank as given, non-empty evidence, consistent
    answer, mid-high scores).
    """
    matched = None
    for prefix, name in _judge_prefixes().items():
        if prompt.startswith(prefix):
            matched = name
            break
    if matched is None:
        return None
    if matched == "MED_RELEVANCE":
        return json.dumps({"reason": "mock judge: default keep", "label": 1})
    if matched == "RERANK":
        return json.dumps({"ranking": [1, 2, 3]})
    if matched == "EVIDENCE":
        span = _payload_head(prompt, 12) or "evidence"
        return json.dumps({"evidence_spans": [span]}, ensure_ascii=False)
    if matched == "ANSWER_BY_EVIDENCE":
        answer = _payload_head(prompt, 16) or "answer"
        return json.dumps({"answer": answer, "reason": "mock judge"}, ensure_ascii=False)
    if matched == "VALIDATE_ANSWER":
        return json.dumps({"similarity_score": 0.8, "explanation": "mock judge"})
    return json.dumps({"quality_score": 4, "explanation": "mock judge"})


class MockGeneratorClient:
    """Offline deterministic generator.

    Resolution order per request: exact scripted response for the prompt,
    then the `responder` callable, then canned JSON verdicts for the shipped
    judge prompts, then a hashing paraphrase of the prompt payload. Scripted
    values may be a single string or a per-sample-index list. `fail_times`
    simulates transport failures for retry tests.
    """

    backoff = 0.0

    def __init__(
        self,
        responses: dict[str, str | Sequence[str]] | None = None,
        responder: Callable[[str, SamplingConfig], str | Sequence[str]] | None = None,
        seed: int = 0,
        max_retries: int = 2,
        fail_times: int = 0,
    ):
        self.responses = dict(responses or {})
        self.responder = responder
        self.seed = seed
        self.max_retries = max_retries
        self.calls = 0
        self._fail_remaining = fail_times
        self._lock = threading.Lock()

    def request_completions(self, prompt: str, cfg: SamplingConfig) -> list[str]:
        with self._lock:
            self.calls += 1
            if self._fail_remaining > 0:
                self._fail_remaining -= 1
                raise TransportError("mock transport failure")
        scripted = self.responses.get(prompt)
        if scripted is None and self.responder is not None:
            scripted = self.responder(prompt, cfg)
        if scripted is not None:
            if isinstance(scripted, str):
                return [scripted] * cfg.num_samples
            scripted = list(scripted)
            if len(scripted) < cfg.num_samples:
                raise ValidationError(
                    f"scripted response has {len(scripted)} entries, need {cfg.num_samples}"
                )
            return scripted[: cfg.num_samples]
        autopilot = _judge_autopilot(prompt)
        if autopilot is not None:
            return [autopilot] * cfg.num_samples
        seed = cfg.seed if cfg.seed is not None else self.seed
        payload = _prompt_payload(prompt)
        return [
            hash_paraphrase(payload, seed=seed, index=i, max_tokens=cfg.max_output_tokens)
            for i in range(cfg.num_samples)
        ]


class RemoteGeneratorClient(JsonEndpoint):
    """Chat-completions HTTP client (POST JSON: model, messages, temperature, n)."""

    kind = "completion"

    def request_completions(self, prompt: str, cfg: SamplingConfig) -> list[str]:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "n": cfg.num_samples,
            "max_tokens": cfg.max_output_tokens,
        }
        if cfg.seed is not None:
            body["seed"] = cfg.seed
        return self._post(body, _read_choices)


def _read_choices(data) -> list[str]:
    """The content of each choice; a null content is an empty completion."""
    contents = [choice["message"]["content"] for choice in data["choices"]]
    for content in contents:
        if content is not None and not isinstance(content, str):
            raise TypeError(f"content {content!r} is not a string")
    return [content or "" for content in contents]


def generate(client, prompt: str, cfg: SamplingConfig | None = None) -> list[str]:
    """Request `cfg.num_samples` completions with retries.

    Empty completions are filtered. Transport failures (retried after the
    client's backoff) and shortfalls (retried at once) share the client's
    retry limit.
    """
    cfg = cfg or SamplingConfig()
    attempts = client.max_retries + 1
    collected: list[str] = []
    for attempt in range(1, attempts + 1):
        try:
            raw = client.request_completions(prompt, cfg)
        except TransportError as exc:
            retry_or_raise(client, "generation", attempt, exc)
            continue
        collected.extend(c for c in (_clean_completion(r) for r in raw) if c)
        if len(collected) >= cfg.num_samples:
            return collected[: cfg.num_samples]
        logger.warning(
            "attempt %d/%d yielded %d/%d usable completions",
            attempt,
            attempts,
            len(collected),
            cfg.num_samples,
        )
    raise DegenerateOutputError(
        f"got {len(collected)} usable completions, needed {cfg.num_samples}"
    )


def generate_query_for_doc(client, doc: Document, cfg: SamplingConfig | None = None) -> str:
    """Synthesize one search query that the given document answers."""
    prompt = render_prompt(load_template("QUERY_GEN"), {"DOCUMENT": doc.indexed_text})
    cfg = dataclasses.replace(cfg or SamplingConfig(), num_samples=1)
    return generate(client, prompt, cfg)[0]


def generate_pseudo_docs(
    client, query: str, target: Document, count: int, cfg: SamplingConfig | None = None
) -> list[str]:
    """Generate `count` candidate pseudo-documents for (query, target document)."""
    if count < 1:
        raise ValidationError("candidate count must be >= 1")
    prompt = render_prompt(
        load_template("PSEUDO_GEN"),
        {"QUESTION": query, "DOCUMENT": target.indexed_text},
    )
    cfg = dataclasses.replace(cfg or SamplingConfig(), num_samples=count)
    return generate(client, prompt, cfg)


def generate_hypothetical(
    client,
    query_text: str,
    template_name: str = "Q2P",
    count: int = 1,
    cfg: SamplingConfig | None = None,
) -> list[str]:
    """Generate `count` hypothetical documents for a query. count=0 returns []."""
    if template_name not in HYPOTHETICAL_TEMPLATES:
        raise ValidationError(
            f"template {template_name!r} is not one of {HYPOTHETICAL_TEMPLATES}"
        )
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count == 0:
        return []
    slot = _HYPOTHETICAL_SLOT[template_name]
    prompt = render_prompt(load_template(template_name), {slot: query_text})
    cfg = dataclasses.replace(cfg or SamplingConfig(), num_samples=count)
    return generate(client, prompt, cfg)
