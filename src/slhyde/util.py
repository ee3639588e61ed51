"""Small shared helpers: seed derivation, atomic writes, stable JSON dumps, a chunked stage runner."""
from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

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
