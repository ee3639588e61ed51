"""Small shared helpers: seed derivation, atomic writes, stable JSON dumps, a
chunked stage runner, the remote-model boundary (`JsonEndpoint`,
`retry_or_raise`) that the embedder and generator clients share, and the one
typed-record checker (`from_mapping`, `read_jsonl`) that reads the config and
every corpus, query, SFT and triplet record. Each JSONL format is one record
dataclass: `read_jsonl` builds it from every line, and `write_jsonl` writes it
as the mapping `read_jsonl` builds it from."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import re
import time
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path

from .errors import ParseError, ProtocolError, RecordError, TransportError, ValidationError

logger = logging.getLogger(__name__)

CHUNK = 64  # items per run_chunked chunk; retrieval also searches blocks of this many queries


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from labeled parts.

    Uses blake2b, not Python's hash(), so results survive process restarts.
    """
    key = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@contextmanager
def replacing(path: str | Path, mode: str, **open_args):
    """A file opened with `mode` on a temp file of this call's own beside
    `path`, so concurrent writers never share one; it replaces `path` when the
    block ends and is removed if the block raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.part")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text) -> None:
    """Write `text`, a str or an iterable of str, to `path` as UTF-8,
    atomically and with no newline translation. An iterable is written as it
    is iterated, so a caller that yields its output piece by piece (a trec
    run, a JSONL file) never holds the whole file; if it raises part-way,
    `path` keeps its old bytes."""
    with replacing(path, "x", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def dump_json(obj) -> str:
    """Deterministic pretty JSON (sorted keys, trailing newline)."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def jsonl_line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"


def run_chunked(items, plan, finish, parallelism: int):
    """Map `plan` over each chunk of CHUNK items of the iterable `items` (on
    one thread pool for the whole run when parallelism > 1), call `finish`
    once per chunk with the planned list in input order, and yield the items
    of the lists `finish` returns. A chunk is drawn from `items` and planned
    only once the caller has taken every result of the one before, so a
    caller that consumes each result as it comes (`evaluate` and `search`
    score and write each query's hits as they arrive) holds one chunk's
    results, not all of them, and a generator of items is never held whole."""
    items = iter(items)
    with ThreadPoolExecutor(parallelism) if parallelism > 1 else nullcontext() as pool:
        while part := list(itertools.islice(items, CHUNK)):
            yield from finish(list(pool.map(plan, part) if pool else map(plan, part)))


class JsonEndpoint:
    """A remote model served over HTTP: JSON requests POSTed to `endpoint`,
    with a bearer `api_key` when one is set. `timeout` bounds each request;
    `max_retries` and `backoff` are read by `retry_or_raise`. A subclass sets
    `kind`, the name of its response in errors, and makes its calls through
    `_post`."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        max_retries: int = 2,
        backoff: float = 1.0,
        session=None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        if session is None:
            import requests  # deferred so that mock runs never load it
            session = requests.Session()
        self._session = session

    def _post(self, body: dict, read):
        """`read` of the JSON response to `body`. A failed connection, a 408,
        a 429 or another non-4xx status but 200 is a TransportError, which
        `retry_or_raise` retries (a 429's or 503's numeric Retry-After
        rides along as its `retry_after`). A client error (any other 4xx: a bad
        request or key) would fail again, so it is a ProtocolError, as is a
        body that is not JSON or that `read` fails on with KeyError,
        TypeError or ValueError."""
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            response = self._session.post(self.endpoint, json=body, timeout=self.timeout, headers=headers)
        except Exception as exc:
            raise TransportError(f"request to {self.endpoint} failed: {exc}") from exc
        status = getattr(response, "status_code", 200)
        if 400 <= status < 500 and status not in (408, 429):
            raise ProtocolError(f"endpoint returned HTTP {status}, a client error that is not retried")
        if status != 200:
            wait = _retry_after(response) if status in (429, 503) else None
            raise TransportError(f"endpoint returned HTTP {status}", retry_after=wait)
        try:
            return read(response.json())
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {self.kind} response: {exc}") from exc


def _retry_after(response) -> float | None:
    """The seconds of the response's Retry-After header when it is a finite
    number >= 0; None when it is missing or an HTTP date."""
    try:
        seconds = float(response.headers.get("Retry-After"))
    except (AttributeError, TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def retry_or_raise(client, what: str, attempt: int, exc: TransportError) -> None:
    """The one retry step, after attempt number `attempt` (from 1) at `what`
    failed with `exc`: log it, then raise TransportError(attempts=...) once
    the client's max_retries are used up, else sleep backoff * 2**(attempt-1)
    seconds, or exc.retry_after when that is longer."""
    attempts = client.max_retries + 1
    logger.warning("%s attempt %d/%d failed: %s", what, attempt, attempts, exc)
    if attempt >= attempts:
        raise TransportError(f"{what} failed", attempts=attempts) from exc
    wait = max(client.backoff * 2 ** (attempt - 1), exc.retry_after or 0.0)
    if wait > 0:
        time.sleep(wait)


# The exact types of a JSON or YAML value that fit each annotation: an int fits
# a float field, and a bool fits only bool.
_EXACT = {str: {str}, int: {int}, float: {float, int}, bool: {bool}, dict: {dict}, type(None): {type(None)}}


def _where(label: str, path: str) -> str:
    return f"{label} section {path!r}" if path else f"top-level {label}"


class _Plan:
    """How one dataclass is built from a mapping, worked out once per class:
    the exact types each field's value may have (none for a nested dataclass
    or a list, which `_nested` handles), the fields without a default, and
    whether keys that name no field are ignored. Errors quote annotations."""

    def __init__(self, cls):
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        self.cls, self.accepted, self.nested = cls, {}, {}
        for f in fields:
            hint = hints[f.name]
            if dataclasses.is_dataclass(hint):
                self.nested[f.name] = (dict, _plan(hint))
            elif typing.get_origin(hint) is list:
                (item,) = typing.get_args(hint)
                self.nested[f.name] = (list, _plan(item) if dataclasses.is_dataclass(item) else _EXACT[item])
            args = typing.get_args(hint) if typing.get_origin(hint) is types.UnionType else (hint,)
            self.accepted[f.name] = frozenset(() if f.name in self.nested else (t for a in args for t in _EXACT[a]))
        self.names = {f.name: f.type for f in fields}
        self.required = frozenset(f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING)
        self.ignores_unknown_keys = getattr(cls, "ignores_unknown_keys", False)

    def build(self, data, label: str, path: str = ""):
        if type(data) is not dict:
            raise RecordError(f"{_where(label, path)} must be a mapping")
        kwargs = {}
        for key, value in data.items():
            accepted = self.accepted.get(key)
            if accepted is None:
                if not self.ignores_unknown_keys:
                    raise RecordError(f"unknown {_where(label, path)} key {key!r}")
            elif type(value) in accepted:
                kwargs[key] = value
            else:
                kwargs[key] = self._nested(key, value, label, path)
        if not kwargs.keys() >= self.required:
            missing = next(key for key in self.names if key in self.required and key not in kwargs)
            raise RecordError(f"{_where(label, path)}: missing key {f'{path}.{missing}' if path else missing}")
        return self.cls(**kwargs)

    def _nested(self, key: str, value, label: str, path: str):
        """The value of the nested dataclass or list field `key`, built; a
        RecordError if it, or any other field's value, has the wrong type."""
        dotted = f"{path}.{key}" if path else key
        container, inner = self.nested.get(key, (None, None))
        if type(value) is not container or (type(inner) is set and not all(type(v) in inner for v in value)):
            raise RecordError(f"{_where(label, path)}: {dotted} must be {self.names[key]}, got {value!r:.80}")
        if container is dict:
            return inner.build(value, label, dotted)
        return value if type(inner) is set else [inner.build(v, label, f"{dotted}[{i}]") for i, v in enumerate(value)]

    def dump(self, record) -> dict:
        """The mapping `build` makes `record` from: its fields by name,
        None-valued ones left out and a nested dataclass dumped likewise."""
        out = {}
        for name in self.names:
            value = getattr(record, name)
            if value is not None:
                container, inner = self.nested.get(name, (None, None))
                out[name] = inner.dump(value) if container is dict else value
        return out


_plan = functools.cache(_Plan)  # one plan per class


def from_mapping(cls, data, label: str):
    """The dataclass `cls` built from the mapping `data` (nested mappings for
    nested dataclass fields), `label` naming `data` in errors. A value of the
    wrong type, a missing required field, or a key that names no field (unless
    `cls.ignores_unknown_keys`) is a RecordError naming the key; the value
    rules are the dataclass's own `__post_init__`."""
    return _plan(cls).build(data, label)


def text_lines(path: Path):
    """(line number, line) for each line of the UTF-8 text file `path`, split
    as text-mode reading splits them; a leading byte order mark is dropped
    (RFC 8259 section 8.1 lets a JSON parser ignore it). A byte that is not
    UTF-8 is a ParseError naming the file and its line, raised when that line
    is read."""
    # surrogateescape turns each such byte into a lone surrogate, which the
    # strict encoder refuses; an ASCII line cannot hold one.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(f"byte 0x{byte:02x} is not UTF-8 in {path.name}", line=lineno) from None
            yield lineno, line


# a \uD800-\uDFFF escape: half of a pair, or a lone surrogate that no UTF-8 text can hold
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _refuse_lone_surrogates(data) -> None:
    """A ParseError if a string in the decoded JSON `data` holds a lone surrogate."""
    try:
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"lone surrogate \\u{ord(exc.object[exc.start]):04x} is not text") from None


def read_jsonl(path: str | Path, cls, label: str, make):
    """`make(record)` for each non-blank line of the JSONL file `path`, the
    line's JSON object built into the dataclass `cls` as by `from_mapping`,
    yielded as the file is read, so a caller that takes each item as it comes
    never holds the file's records. Every ParseError and ValidationError from
    a line, `make`'s, a byte that is not UTF-8 and a `\\u` escape of a lone
    surrogate included, ends `in <file> (line N)`."""
    path, plan = Path(path), _plan(cls)
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if _SURROGATE_ESCAPE.search(line):
                _refuse_lone_surrogates(data)
            item = make(plan.build(data, label))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg} in {path.name}", line=lineno) from None
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{exc} in {path.name} (line {lineno})") from None
        yield item


def write_jsonl(path: str | Path, records) -> bytes:
    """Write one JSONL line per record dataclass of the iterable `records` to
    `path`, atomically, each as its fields (as `read_jsonl` reads it back),
    and return the sha256 of the bytes written, hashed line by line. A record
    that raises while `records` is iterated leaves no file."""
    digest = hashlib.sha256()

    def lines():
        for record in records:
            line = jsonl_line(_plan(type(record)).dump(record))
            digest.update(line.encode("utf-8"))
            yield line

    atomic_write_text(path, lines())
    return digest.digest()
