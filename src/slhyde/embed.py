"""Embedding clients, the unit-norm boundary, and the binary vector cache.

The remote client is a `util.JsonEndpoint`; `embed_texts` retries a batch
whose request failed to connect or got a 408, a 429 or a non-4xx status other
than 200 (`util.retry_or_raise`), and never one that got any other 4xx or
whose body was unreadable or of the wrong shape (ProtocolError).

Every vector leaving this module is float32 and unit-normalized, which makes
the inner product used by the search indexes equal to cosine similarity.
A finite, nonzero row whose squared norm over- or underflows is scaled by its
largest magnitude before it is normalized; every other row is row / norm.

Building a cache holds the corpus's ids and one embedder batch of documents
and rows, never every text nor the matrix: `cache_embeddings` reads the
corpus once for its ids (every record checked, before any request), then
again a batch at a time, calls `embed_texts` once per batch and writes the
file in one pass through the one writer, `cache_file` (each batch's unit
rows as the batch arrives, in input order, then the ids, then the header,
written last over the space left for it), so a batch that is non-finite or
holds a zero row stops the build before the next request; the corpus file is
hashed again after the last batch, so one edited during the build commits
nothing. The
SFT rows file (`selflearn`) is written the same way, a chunk at a time: its
count, ids digest and fingerprint are known only at the end.
Reading one goes block by block through the one reader, `open_cache`:
`load_cache` reads each block straight into the matrix it returns, and the
warm check of `embed-corpus` and the SFT rows check read every block into one
small buffer and keep nothing; the triplet builder then reads the slices of
rows it asks for from the same open file.

Cache file format (little-endian), one file:
    magic "SLHE3" | u32 dim | u64 count | 32-byte fingerprint
    | 32-byte sha256 of the ids block | count*dim float32 | ids, one per line

The fingerprint (`cache_fingerprint`) is a sha256 of everything that decides
the vectors: the client class, model, dim, truncate_chars, the mock's
overrides, and the sha256 of the corpus file's bytes. `cache_embeddings` is
the one reuse-or-build path: a cache is reused only when its fingerprint
matches, so the corpus file's bytes and the cache file are all a warm run
reads. One atomic replace commits a cache: a reader sees the old file or the
new one, and a failed build (an embedder error at any batch) leaves the old
one and no temp file. Another magic (the SLHE1 and SLHE2 formats, whose ids
were in a `<path>.ids` sidecar) is rebuilt once, and writing the rebuilt file
deletes the sidecar.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import struct
import threading
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import corpus_file_digest, find_id, read_corpus, sort_ids
from .errors import FormatError, ProtocolError, TransportError, ValidationError
from .util import JsonEndpoint, replacing, retry_or_raise

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"SLHE3"
_HEADER = struct.Struct("<5sIQ32s32s")
_BLOCK = 1 << 16  # float32 values per read (and np.isfinite call) of a cache's rows


def _rescaled_unit_rows(rows: np.ndarray) -> np.ndarray:
    """Unit rows for nonzero finite rows whose norm over- or underflows in
    their dtype: each is divided by its largest magnitude first."""
    scaled = rows / np.abs(rows).max(axis=1, keepdims=True)
    return scaled / np.linalg.norm(scaled, axis=1, keepdims=True)


def normalize(vector) -> np.ndarray:
    """L2-normalize to a float32 unit vector. Zero vectors and vectors with a
    NaN or infinite entry are rejected."""
    arr = np.asarray(vector, dtype=np.float32).ravel()
    if not arr.any():
        raise ValidationError("cannot normalize a zero vector")
    if not np.isfinite(arr).all():
        raise ValidationError("cannot normalize a vector with a non-finite entry")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(arr))
    if norm == 0.0 or math.isinf(norm):
        return _rescaled_unit_rows(arr[None, :])[0]
    return arr / np.float32(norm)


class MockEmbedderClient:
    """Deterministic character-trigram hashing embedder.

    Signed feature hashing of character 3-grams into `dim` buckets; the same
    text always maps to the same vector, distinct texts rarely collide at
    dim >= 64, and token order matters. A gram's bucket and sign come from the
    blake2b digest of its UTF-8; a text shorter than 3 characters is its own
    single gram, and a row whose signs cancel to zero falls back to a single
    +1 in the bucket of the whole text. `overrides` pins chosen texts to
    chosen vectors, which tests use to construct exact geometries; a zero or
    non-finite override vector is a ValidationError at construction.

    `embed_batch` hashes a batch in numpy, in passes of at most about
    `_PASS_GRAMS` trigrams (a longer text is a pass of its own): each gram is
    packed into one integer (three 21-bit code points), each distinct gram of
    a pass is looked up once in the one memo (packed gram -> signed bucket,
    hashed on a miss), and one `np.bincount` adds the ±1 weights into the
    pass's rows. Sums of ±1 are exact in float64, so a row is the same bytes
    whatever its batch, pass or neighbours.
    """

    max_retries = 2
    backoff = 0.0

    def __init__(self, dim: int = 256, truncate_chars: int = 1024, overrides=None):
        if dim < 2:
            raise ValidationError("embedding dim must be >= 2")
        self.dim = dim
        self.truncate_chars = truncate_chars
        self.batch_size = 1024
        self.calls = 0
        self._lock = threading.Lock()
        self._overrides = {
            text: normalize(vec) for text, vec in (overrides or {}).items()
        }
        # packed gram -> bucket << 1 | sign bit; one dict store per entry, so
        # concurrent batches at worst hash a gram twice
        self._memo: dict[int, int] = {}

    def _signed_bucket(self, gram: str) -> int:
        value = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "little")
        return (value % self.dim) << 1 | value >> 63

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        with self._lock:
            self.calls += 1
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for start, stop in _passes(texts):
            out[start:stop] = self._hash_pass(texts[start:stop])
        for i, text in enumerate(texts):
            override = self._overrides.get(text)
            if override is not None:
                out[i] = override
        return out

    def _hash_pass(self, texts: list[str]) -> np.ndarray:
        """The float64 (len(texts), dim) hashed rows of `texts`."""
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        counts = np.maximum(lengths - 2, 0)
        points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4").astype(np.int64)
        # the packed windows of three code points; those crossing into the
        # next text are skipped by `starts`
        windows = points[:-2] << 2 * _POINT_BITS | points[1:-1] << _POINT_BITS | points[2:]
        del points
        starts = np.repeat(np.cumsum(lengths) - lengths - (np.cumsum(counts) - counts), counts)
        keys = windows[starts + np.arange(len(starts))]
        del windows, starts
        row_of = np.repeat(np.arange(len(texts)), counts)
        short = np.flatnonzero(lengths < 3).tolist()
        if short:
            keys = np.concatenate([keys, [_short_key(texts[i]) for i in short]])
            row_of = np.concatenate([row_of, short])
        distinct, which = np.unique(keys, return_inverse=True)
        del keys
        memo, distinct = self._memo, distinct.tolist()
        codes = np.fromiter(map(memo.get, distinct, itertools.repeat(-1)), dtype=np.int64, count=len(distinct))
        for i in np.flatnonzero(codes < 0).tolist():
            codes[i] = memo[distinct[i]] = self._signed_bucket(_unpack(distinct[i]))
        del distinct
        codes = codes[which]
        del which
        sums = np.bincount(
            row_of * self.dim + (codes >> 1), weights=(codes & 1) * 2.0 - 1.0, minlength=len(texts) * self.dim
        ).reshape(len(texts), self.dim)
        for i in np.flatnonzero(~sums.any(axis=1)).tolist():
            # Signed collisions cancelled out; fall back to a single marker bucket.
            sums[i, self._signed_bucket(texts[i]) >> 1] = 1.0
        return sums


_POINT_BITS = 21  # every code point is below 2**21
_NO_POINT = (1 << _POINT_BITS) - 1  # pads the packed gram of a text shorter than 3 characters
_PASS_GRAMS = 1 << 14  # trigrams per MockEmbedderClient pass


def _short_key(text: str) -> int:
    a, b, c = [ord(ch) for ch in text] + [_NO_POINT] * (3 - len(text))
    return a << 2 * _POINT_BITS | b << _POINT_BITS | c


def _unpack(key: int) -> str:
    points = (key >> 2 * _POINT_BITS, key >> _POINT_BITS & _NO_POINT, key & _NO_POINT)
    return "".join(chr(p) for p in points if p != _NO_POINT)


def _passes(texts: list[str]):
    """(start, stop) of each run of `texts` that holds at most _PASS_GRAMS
    grams in all, or of a single text that alone holds more."""
    start, grams = 0, 0
    for stop, text in enumerate(texts):
        count = max(len(text) - 2, 1)
        if stop > start and grams + count > _PASS_GRAMS:
            yield start, stop
            start, grams = stop, 0
        grams += count
    if texts:
        yield start, len(texts)


class RemoteEmbedderClient(JsonEndpoint):
    """Embeddings HTTP client (POST JSON: model, input list; response: data[].embedding)."""

    kind = "embedding"

    def __init__(
        self, endpoint: str, model: str, dim: int, *, batch_size: int = 64, truncate_chars: int = 1024, **settings
    ):
        super().__init__(endpoint, model, **settings)
        self.dim = dim
        self.batch_size = batch_size
        self.truncate_chars = truncate_chars

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return self._post({"model": self.model, "input": list(texts)}, self.read)

    @staticmethod
    def read(data) -> np.ndarray:
        return np.asarray([row["embedding"] for row in data["data"]], dtype=np.float32)


def embed_texts(client, texts: list[str]) -> np.ndarray:
    """Embed texts in order; returns a (len(texts), client.dim) float32 unit-row matrix.

    Inputs are truncated to the client's character budget before the request,
    and sent client.batch_size at a time. Each batch must be (len(batch),
    client.dim), else ProtocolError; it is normalized into the result as it
    arrives.
    """
    if not texts:
        raise ValidationError("embed_texts requires at least one text")
    for i, text in enumerate(texts):
        if not text.strip():
            raise ValidationError(f"text at position {i} is empty after trimming")
    matrix = np.empty((len(texts), client.dim), dtype=np.float32)
    for start in range(0, len(texts), client.batch_size):
        batch = [t[: client.truncate_chars] for t in texts[start : start + client.batch_size]]
        rows = _embed_batch_with_retry(client, batch)
        if rows.shape != (len(batch), client.dim):
            raise ProtocolError(f"expected {len(batch)} embeddings of dim {client.dim}, got {rows.shape}")
        _write_unit_rows(rows, matrix[start : start + len(batch)])
    return matrix


def _write_unit_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Write rows / ‖rows‖ into the float32 `out`. A row whose norm is 0 or
    inf in the rows' dtype (squares that under- or overflow) is rescaled
    first; every other row gets exactly rows[i] / norm[i], cast to float32."""
    if not np.isfinite(rows).all():
        raise ProtocolError("embedder returned non-finite values")
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        np.divide(rows, norms[:, None], out=out)
    bad = (norms == 0) | np.isinf(norms)
    if bad.any():
        if not rows[bad].any(axis=1).all():
            raise ValidationError("embedder returned a zero vector")
        out[bad] = _rescaled_unit_rows(rows[bad])


def keyed_rows(client, texts, rows) -> dict[str, np.ndarray]:
    """The `known_rows` of `embed_rows` for `texts` and their `rows` (rows[i]
    is what embed_texts returned for texts[i]): each text's first
    client.truncate_chars characters, all the embedder sees of it, -> its row."""
    cut = client.truncate_chars
    return dict(zip((text[:cut] for text in texts), rows))


def embed_rows(client, texts: list[str], known_rows: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """The (len(texts), dim) rows of `texts`, embedding only what `known_rows`
    (built by `keyed_rows`) lacks.

    The embedder sees a text's first client.truncate_chars characters only, so
    texts are told apart by those, and `known_rows` is keyed by them once,
    where it is built: a call only looks each text up and never iterates it,
    O(len(texts)) however many rows are known. Every distinct truncation that
    is not known is embedded in one embed_texts call; when all are known, no
    call is made.
    """
    cut = client.truncate_chars
    rows = known_rows or {}
    missing = {}
    for text in texts:
        if text[:cut] not in rows:
            missing.setdefault(text[:cut], text)
    if missing:
        rows = ChainMap(dict(zip(missing, embed_texts(client, list(missing.values())))), rows)
    return np.vstack([rows[text[:cut]] for text in texts])


def _embed_batch_with_retry(client, batch: list[str]) -> np.ndarray:
    for attempt in itertools.count(1):
        try:
            return client.embed_batch(batch)
        except TransportError as exc:
            retry_or_raise(client, "embedding", attempt, exc)


def embed_text(client, text: str) -> np.ndarray:
    return embed_texts(client, [text])[0]


@dataclass
class EmbeddingCache:
    """Ordered (ids, matrix) pair; rows are unit float32 vectors.

    The ids are sorted once, when the cache is built: `id_order` holds the
    rows in ascending-id order (`corpus.sort_ids`), an int64 array and the
    only lookup structure (8 bytes an id, no dict). `position`, `in` and
    `row` binary-search it in O(log n) string comparisons, and `DenseIndex`
    ranks ties by its inverse. Two equal ids are neighbours in that order,
    which is how a duplicate is found; the one named is the first id to
    repeat in row order.
    """

    ids: list[str]
    matrix: np.ndarray
    id_order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValidationError("cache matrix must be 2-dimensional")
        if len(self.ids) != self.matrix.shape[0]:
            raise ValidationError(
                f"id count {len(self.ids)} does not match matrix rows {self.matrix.shape[0]}"
            )
        self.id_order = sort_ids(self.ids, "duplicate id {!r} in cache")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, doc_id: str) -> bool:
        return find_id(self.ids, self.id_order, doc_id) >= 0

    def position(self, doc_id: str) -> int:
        pos = find_id(self.ids, self.id_order, doc_id)
        if pos < 0:
            raise ValidationError(f"unknown id {doc_id!r}")
        return pos

    def row(self, doc_id: str) -> np.ndarray:
        return self.matrix[self.position(doc_id)]


def cache_fingerprint(client, corpus_digest: bytes) -> bytes:
    """32-byte sha256 of the client settings and corpus digest that decide a cache's vectors."""
    overrides = hashlib.sha256()
    pinned = getattr(client, "_overrides", {})
    for text in sorted(pinned):
        encoded = text.encode("utf-8")
        overrides.update(len(encoded).to_bytes(8, "little") + encoded + pinned[text].tobytes())
    settings = {
        "client": f"{type(client).__module__}.{type(client).__qualname__}",
        "model": getattr(client, "model", None),
        "dim": client.dim,
        "truncate_chars": client.truncate_chars,
        "overrides": overrides.hexdigest(),
        "corpus": corpus_digest.hex(),
    }
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")).digest()


class _CacheWriter:
    """What `cache_file` yields: `add(ids, rows)` appends rows, in order, and
    their ids. `fingerprint` is the header's, which the block may set last."""

    def __init__(self, fh, fingerprint: bytes | None):
        self._fh, self.fingerprint = fh, fingerprint
        self.count, self.ids = 0, bytearray()  # the ids block, written after the rows

    def add(self, ids: list[str], rows: np.ndarray) -> None:
        for doc_id in ids:
            if "\n" in doc_id or "\r" in doc_id:
                raise ValidationError(f"id {doc_id!r} contains a newline; cannot serialize")
        self._fh.write(np.ascontiguousarray(rows, dtype="<f4"))  # no copy of float32 rows
        self.ids += "".join(f"{i}\n" for i in ids).encode("utf-8")
        self.count += len(ids)


@contextmanager
def cache_file(path: str | Path, dim: int, fingerprint: bytes | None = None):
    """The one SLHE3 writer: yields a writer whose `add(ids, rows)` appends
    (len(ids), dim) rows, as little-endian float32, and their ids. When the
    block ends, the ids block follows the rows and the header is written
    last, seeking back over the space left for it, so the count, the ids
    digest and the fingerprint (the writer's `fingerprint`, which the block
    may set once it knows it) need not be known up front; one atomic replace
    commits the file. A block that raises leaves the old file and no temp
    file."""
    with replacing(path, "xb") as fh:
        fh.write(bytes(_HEADER.size))
        writer = _CacheWriter(fh, fingerprint)
        yield writer
        fh.write(writer.ids)
        fh.seek(0)
        ids_digest = hashlib.sha256(writer.ids).digest()
        fh.write(_HEADER.pack(CACHE_MAGIC, dim, writer.count, writer.fingerprint, ids_digest))
    Path(f"{path}.ids").unlink(missing_ok=True)  # an SLHE1/SLHE2 sidecar, stale once this file is written


def save_cache(cache: EmbeddingCache, path: str | Path, fingerprint: bytes) -> None:
    with cache_file(path, cache.dim, fingerprint) as out:
        out.add(cache.ids, cache.matrix)


@contextmanager
def open_cache(path: str | Path, fingerprint: bytes | None = None, keep: bool = False):
    """The one SLHE3 reader: yields (ids block, rows, read) of the cache file
    at `path`, open, once every check of `load_cache` is made. The rows are
    read _BLOCK values at a time, each block checked finite as it is read:
    into the (count, dim) matrix `rows` when `keep`, else into one buffer of
    a block, and `rows` is None. read(start, stop) reads rows [start, stop)
    when asked for, from the same open file, so never from a file that
    replaced it."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"cache file not found: {path}")
    with path.open("rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:5] != CACHE_MAGIC:
            raise FormatError(f"bad cache header (magic {header[:5]!r}, expected {CACHE_MAGIC!r}) in {path}")
        _, dim, count, stored, ids_digest = _HEADER.unpack(header)
        if fingerprint is not None and stored != fingerprint:
            raise FormatError(
                f"cache file {path} was built from another corpus or embedder setting (fingerprint mismatch)"
            )
        size, ids_start = os.fstat(fh.fileno()).st_size, _HEADER.size + count * dim * 4
        if size < ids_start:
            raise FormatError(f"cache file {path} is truncated ({size} < {ids_start} bytes)")
        values = count * dim
        rows = np.empty(values if keep else min(values, _BLOCK), dtype="<f4")
        for first in range(0, values, _BLOCK):
            block = rows[first : first + _BLOCK] if keep else rows[: min(_BLOCK, values - first)]
            if fh.readinto(block) < block.nbytes:
                raise FormatError(f"cache file {path} is truncated")
            if not np.isfinite(block).all():
                raise FormatError(f"cache file {path} contains non-finite values")
        raw = fh.read()
        if hashlib.sha256(raw).digest() != ids_digest:
            raise FormatError(f"cache file {path} is truncated, padded or corrupt (ids digest mismatch)")
        try:
            ids = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"cache file {path} holds ids that are not UTF-8") from None
        held = ids.count("\n")
        if held != count:
            raise FormatError(f"cache file {path} holds {held} ids, header says {count}")
        matrix = rows.reshape(count, dim) if keep else None
        raw = rows = block = None  # while the caller's block runs: the matrix, when kept, and the ids

        def read(start: int, stop: int) -> np.ndarray:
            if not 0 <= start <= stop <= count:
                raise FormatError(f"cache file {path} holds {count} rows, not rows {start} to {stop}")
            fh.seek(_HEADER.size + start * dim * 4)
            out = np.empty((stop - start, dim), dtype="<f4")
            fh.readinto(out)  # the file's size was checked
            return out

        yield ids, matrix, read


def load_cache(path: str | Path, fingerprint: bytes | None = None) -> EmbeddingCache:
    """Read a cache file; FormatError when it is missing, has another magic,
    is truncated or padded, holds a non-finite value or ids that fail the
    header's digest or are not UTF-8, or `fingerprint` is given and differs
    from the stored one (checked before the rows are read). The rows are read
    straight into the matrix that is returned."""
    with open_cache(path, fingerprint, keep=True) as (block, matrix, _):
        ids = block.split("\n")
    del block  # the cache sorts its ids next: the block is not held beside them
    ids.pop()  # the "" after the last newline
    return EmbeddingCache(ids=ids, matrix=matrix)


def cache_embeddings(client, corpus_path: str | Path, path: str | Path, load: bool = True) -> EmbeddingCache | None:
    """The one reuse-or-build path for a corpus file's embedding cache.

    The cache at `path` is reused when its fingerprint matches the client and
    the sha256 of the corpus file's bytes and it passes every check of
    `load_cache`; the corpus is then not parsed. Anything else (no file, an
    unreadable or stale one, with the reason logged) builds a new file from
    two reads of the corpus through `corpus.read_corpus`: the first checks
    every record and keeps only the ids, so a bad record stops the build
    before any request; the second embeds the records a batch at a time,
    each record's _id checked against the first read's. The file is hashed
    once more after the last batch, and a corpus edited during the build
    (its bytes no longer those the fingerprint names) is a ValidationError
    that commits nothing. The cache returned is then read back from the new
    file. With `load` false (`embed-corpus`, which only makes the file
    current) None is returned and a reused file is only checked, so neither
    path holds the matrix. A `path` that is there but is not a regular file
    is a ValidationError, before any request.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValidationError(f"embedding cache path {path} is not a regular file")
    digest = corpus_file_digest(corpus_path)
    fingerprint = cache_fingerprint(client, digest)
    if path.exists():
        try:
            if load:
                cache = load_cache(path, fingerprint=fingerprint)
            else:
                with open_cache(path, fingerprint):  # checked block by block, nothing kept
                    cache = None
        except FormatError as exc:
            logger.warning("rebuilding embedding cache: %s", exc)
        else:
            logger.info("reusing embedding cache %s", path)
            return cache
    ids = [doc.id for doc in read_corpus(corpus_path)]
    docs = read_corpus(corpus_path, ids, "first read")
    with cache_file(path, client.dim, fingerprint) as out:
        # one batch of documents at a time: a titled document's text is a new string
        while batch := list(itertools.islice(docs, client.batch_size)):
            out.add([doc.id for doc in batch], embed_texts(client, [doc.indexed_text for doc in batch]))
        if corpus_file_digest(corpus_path) != digest:
            raise ValidationError(f"corpus file {corpus_path} changed while its embedding cache was built")
    logger.info("embedded %d documents into %s", len(ids), path)
    return load_cache(path, fingerprint=fingerprint) if load else None
