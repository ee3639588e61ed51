"""Small shared helpers: seed derivation, atomic writes, stable JSON dumps, a
chunked stage runner, and the remote-model boundary (`JsonEndpoint`,
`retry_or_raise`) that the embedder and generator clients share."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from .errors import ProtocolError, TransportError

logger = logging.getLogger(__name__)

CHUNK = 64  # items per run_chunked chunk; retrieval also searches blocks of this many queries


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from labeled parts.

    Uses blake2b, not Python's hash(), so results survive process restarts.
    """
    key = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def atomic_write_bytes(path: str | Path, *parts) -> None:
    """Write the bytes-like `parts` one after another (a C-contiguous array is
    written from its own buffer, not copied) through a temp file of this
    call's own beside `path`, so concurrent writers never share one; the temp
    file is removed if the write fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.part")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_json(obj) -> str:
    """Deterministic pretty JSON (sorted keys, trailing newline)."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def jsonl_line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"


def run_chunked(items, plan, finish, parallelism: int) -> list:
    """Map `plan` over each chunk of CHUNK `items` (on one thread pool for the
    whole run when parallelism > 1), call `finish` once per chunk with the
    planned list in input order, and concatenate the lists `finish` returns."""
    results = []
    with ThreadPoolExecutor(parallelism) if parallelism > 1 else nullcontext() as pool:
        for start in range(0, len(items), CHUNK):
            part = items[start : start + CHUNK]
            results.extend(finish(list(pool.map(plan, part) if pool else map(plan, part))))
    return results


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
        """`read` of the JSON response to `body`. A failed connection or a
        non-200 status is a TransportError; a body that is not JSON, or that
        `read` fails on with KeyError, TypeError or ValueError, is a
        ProtocolError."""
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            response = self._session.post(self.endpoint, json=body, timeout=self.timeout, headers=headers)
        except Exception as exc:
            raise TransportError(f"request to {self.endpoint} failed: {exc}") from exc
        if getattr(response, "status_code", 200) != 200:
            raise TransportError(f"endpoint returned HTTP {response.status_code}")
        try:
            return read(response.json())
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {self.kind} response: {exc}") from exc


def retry_or_raise(client, what: str, attempt: int, exc: TransportError) -> None:
    """The one retry step, after attempt number `attempt` (from 1) at `what`
    failed with `exc`: log it, then raise TransportError(attempts=...) once
    the client's max_retries are used up, else sleep backoff * 2**(attempt-1)."""
    attempts = client.max_retries + 1
    logger.warning("%s attempt %d/%d failed: %s", what, attempt, attempts, exc)
    if attempt >= attempts:
        raise TransportError(f"{what} failed", attempts=attempts) from exc
    if client.backoff > 0:
        time.sleep(client.backoff * 2 ** (attempt - 1))
