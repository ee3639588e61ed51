"""Dataset loading, validation, and sampling.

On-disk layout, one directory per dataset (all UTF-8):

    corpus.jsonl   one JSON object per line: _id, optional title, text
    queries.jsonl  one JSON object per line: _id, text, optional answer
    qrels.tsv      optional header, then  query-id <TAB> corpus-id <TAB> score

Each JSONL format is one record dataclass, `_CorpusRecord` or `_QueryRecord`:
`util.read_jsonl` builds it from each line (_id a string or an integer with no
whitespace, text a string, title or answer a string or null; other keys are
ignored), and `util.write_jsonl` writes it, leaving out a title or answer that
is None.

`read_corpus` is the one corpus reader: it yields each `Document` as its line
is read, checked either as `load_corpus` checks it (an _id with no whitespace,
seen once; a text that is not blank) or against the _ids an earlier read
listed, row by row. `load_corpus` keeps every Document in a `CorpusStore`;
`embed.cache_embeddings` reads the file twice, keeping only the ids and then
one batch; `sample_documents` keeps only the documents it draws. `Document`
and `Query` are slotted, so a record holds its fields and no instance dict.
"""
from __future__ import annotations

import hashlib
import itertools
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError, ValidationError
from .util import atomic_write_text, read_jsonl, text_lines, write_jsonl

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    text: str
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("document id must be non-empty")
        if not self.text.strip():
            raise ValidationError(f"document {self.id!r} has empty text")

    @property
    def indexed_text(self) -> str:
        """Text used for indexing and embedding: title and body joined by a newline."""
        if self.title:
            return f"{self.title}\n{self.text}"
        return self.text


@dataclass(frozen=True, slots=True)
class Query:
    id: str
    text: str
    answer: str | None = None  # reference answer, read by construct-benchmark's validation

    def __post_init__(self):
        if not self.id:
            raise ValidationError("query id must be non-empty")
        if not self.text.strip():
            raise ValidationError(f"query {self.id!r} has empty text")


@dataclass
class RelevanceJudgments:
    """query-id -> (doc-id -> integer grade >= 0)."""

    entries: dict[str, dict[str, int]] = field(default_factory=dict)

    def grades_for(self, query_id: str) -> dict[str, int]:
        return self.entries.get(query_id, {})

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())


def sort_ids(ids: list[str], duplicate: str) -> np.ndarray:
    """The rows of `ids` in ascending-id order, sorted once: a read-only int64
    array and the only lookup structure `find_id` needs (8 bytes an id, no
    dict). Equal ids are neighbours in that order, which is how a duplicate
    is found: a ValidationError, `duplicate` formatted with the first id to
    repeat in row order."""
    # stable, so equal ids sit in row order and a repeat is order[j + 1]
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    ranked = np.array(ids, dtype=object)[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        raise ValidationError(duplicate.format(ids[repeats.min()]))
    order.setflags(write=False)
    return order


def find_id(ids: list[str], order: np.ndarray, doc_id: str) -> int:
    """The row of `doc_id` in `ids`, by binary search over their `sort_ids`
    order in O(log n) string comparisons; -1 when `ids` does not hold it."""
    rows = order.data  # a memoryview: indexing it gives Python ints
    at = bisect_left(rows, doc_id, key=ids.__getitem__)
    return rows[at] if at < len(rows) and ids[rows[at]] == doc_id else -1


class CorpusStore:
    """Immutable ordered document collection with id lookup. `ids` is one
    list, built with the store and shared by whoever reads it (the BM25
    index keeps it as its own); `in`, `position` and `get` binary-search its
    `sort_ids` order, so the store holds no per-id dict."""

    def __init__(self, documents: Iterable[Document]):
        self._documents: list[Document] = list(documents)
        self.ids: list[str] = [d.id for d in self._documents]
        self._order = sort_ids(self.ids, "duplicate document id {!r}")

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, pos: int) -> Document:
        return self._documents[pos]

    def __contains__(self, doc_id: str) -> bool:
        return find_id(self.ids, self._order, doc_id) >= 0

    def get(self, doc_id: str) -> Document:
        return self._documents[self.position(doc_id)]

    def position(self, doc_id: str) -> int:
        pos = find_id(self.ids, self._order, doc_id)
        if pos < 0:
            raise ValidationError(f"unknown document id {doc_id!r}")
        return pos


def corpus_file_digest(path: str | Path) -> bytes:
    """sha256 of the corpus file's bytes: the corpus part of an embedding-cache
    fingerprint."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"corpus file not found: {path}")
    digest, buffer = hashlib.sha256(), memoryview(bytearray(1 << 18))
    with path.open("rb", buffering=0) as fh:
        # one buffer, refilled: a loop over fh.read blocks held two at a time
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
    return digest.digest()


@dataclass(slots=True)
class _CorpusRecord:  # one corpus.jsonl line
    _id: str | int
    text: str
    title: str | None = None
    ignores_unknown_keys = True  # not a field


@dataclass(slots=True)
class _QueryRecord:  # one queries.jsonl line
    _id: str | int
    text: str
    answer: str | None = None
    ignores_unknown_keys = True  # not a field


_WHITESPACE = re.compile(r"\s")


def _read_records(path: str | Path, kind: str, record_cls, make, ids: list[str] | None = None, source: str = ""):
    """`make(id, record)` for each `record_cls` record of a `kind` ("corpus" or
    "queries") JSONL file, yielded as the file is read. An integer _id is read
    as its digits. Without `ids`, an _id holds no whitespace (trec runs and
    qrels.tsv split their fields on it) and may appear once. With `ids`, the
    _ids the corpus's `source` (say, its embedding cache) lists in file order,
    a record's _id must be ids[row], and the file must hold len(ids) records.
    Each error names the file; a record's names its line too."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{kind} file not found: {path}")
    seen: set[str] = set()
    rows = 0

    def item(record):
        nonlocal rows
        doc_id, row = str(record._id), rows
        if ids is None:
            if _WHITESPACE.search(doc_id):
                raise ParseError(f"_id {doc_id!r} contains whitespace")
            made = make(doc_id, record)
            if doc_id in seen:
                raise ValidationError(f"duplicate _id {doc_id!r}")
            seen.add(doc_id)
        else:
            if row >= len(ids):
                raise ValidationError(f"_id {doc_id!r} is past the {len(ids)} rows of the corpus's {source}")
            if doc_id != ids[row]:
                raise ValidationError(f"_id {doc_id!r} is not {ids[row]!r}, row {row} of the corpus's {source}")
            made = make(doc_id, record)
        rows += 1
        return made

    yield from read_jsonl(path, record_cls, f"{kind} record", item)
    if ids is not None and rows != len(ids):
        raise ValidationError(f"corpus file {path} holds {rows} records, its {source} {len(ids)} rows")
    if ids is None and not rows:
        logger.warning("%s file %s is empty", kind, path)


def _document(doc_id: str, record: _CorpusRecord) -> Document:
    return Document(doc_id, record.text, record.title or None)  # an empty title is no title


def _body(doc_id: str, record: _CorpusRecord) -> Document:
    return Document(doc_id, record.text)


def read_corpus(
    path: str | Path, ids: list[str] | None = None, source: str = "", titles: bool = True
) -> Iterator[Document]:
    """Each Document of corpus.jsonl, in file order, yielded as its line is
    read, so a caller that takes each as it comes holds one. Without `ids`
    every record is checked as `load_corpus` checks it; with `ids` (the _ids
    the corpus's `source` lists, in order) a record whose _id is not ids[row]
    is a ValidationError naming the file and line, and so is a file that
    holds another number of records. With `titles` false a record's title is
    read and dropped."""
    return _read_records(path, "corpus", _CorpusRecord, _document if titles else _body, ids, source)


def load_corpus(path: str | Path, titles: bool = True) -> CorpusStore:
    """Load corpus.jsonl into a CorpusStore. Duplicate _id values are rejected;
    an empty title is no title, and with `titles` false every title is dropped
    (construct-benchmark judges, indexes and writes a raw text's body only)."""
    return CorpusStore(read_corpus(path, titles=titles))


def load_queries(path: str | Path) -> list[Query]:
    """Load queries.jsonl; a record may carry a reference `answer` (an empty
    one is none)."""
    return list(_read_records(path, "queries", _QueryRecord, lambda i, r: Query(i, r.text, r.answer or None)))


_QRELS_HEADERS = {"query-id", "query_id", "qid"}


def load_qrels(path: str | Path) -> RelevanceJudgments:
    """Load qrels.tsv. Duplicate (query, doc) pairs: last occurrence wins with a warning."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"qrels file not found: {path}")
    entries: dict[str, dict[str, int]] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated columns, got {len(parts)} in {path.name}",
                line=lineno,
            )
        qid, doc_id, grade_raw = (p.strip() for p in parts)
        if lineno == 1 and qid.lower() in _QRELS_HEADERS:
            continue
        try:
            grade = int(grade_raw)
        except ValueError:
            raise ParseError(
                f"grade {grade_raw!r} is not an integer in {path.name}", line=lineno
            ) from None
        if grade < 0:
            raise ValidationError(
                f"negative grade {grade} for ({qid}, {doc_id}) in {path.name} (line {lineno})"
            )
        if not qid or not doc_id:
            raise ParseError(f"empty query or doc id in {path.name}", line=lineno)
        per_query = entries.setdefault(qid, {})
        if doc_id in per_query:
            logger.warning(
                "duplicate qrels pair (%s, %s) at line %d; last occurrence wins", qid, doc_id, lineno
            )
        per_query[doc_id] = grade
    for qid, grades in entries.items():
        if not any(g > 0 for g in grades.values()):
            logger.warning("query %s has no positive judgment; it will be skipped in evaluation", qid)
    return RelevanceJudgments(entries=entries)


def write_corpus(documents: Iterable[Document], path: str | Path) -> None:
    write_jsonl(path, (_CorpusRecord(doc.id, doc.text, doc.title) for doc in documents))


def write_queries(queries: Iterable[Query], path: str | Path) -> None:
    write_jsonl(path, (_QueryRecord(q.id, q.text, q.answer or None) for q in queries))


def write_qrels(qrels: RelevanceJudgments, path: str | Path) -> None:
    """Write qrels.tsv, a header then one line per (query, doc) grade."""
    rows = ((qid, doc_id, grade) for qid, grades in qrels.entries.items() for doc_id, grade in grades.items())
    write_qrel_rows(rows, path)


def write_qrel_rows(rows: Iterable[tuple[str, str, int]], path: str | Path) -> None:
    """Write qrels.tsv, a header then one line per (query id, doc id, grade)
    row, line by line: the file is never held whole."""
    lines = (f"{qid}\t{doc_id}\t{grade}\n" for qid, doc_id, grade in rows)
    atomic_write_text(path, itertools.chain(["query-id\tcorpus-id\tscore\n"], lines))


def sample_documents(path: str | Path, ids: list[str], n: int, seed: int) -> list[Document]:
    """Draw n distinct documents of the corpus file `path`, deterministically
    for a fixed seed, reading the file once through `read_corpus` and keeping
    only the documents drawn. `ids` are the file's record ids in order (its
    embedding cache's ids), so the draw needs only their count: a record
    whose _id is not ids[row] is a ValidationError naming the file and line,
    and so is a file that holds another number of records."""
    if n < 0:
        raise ValidationError("sample size must be non-negative")
    if n > len(ids):
        raise ValidationError(f"cannot sample {n} documents from a corpus of {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))[:n]
    slot = dict(zip(order.tolist(), range(n)))  # row -> its place in the sample
    sample: list = [None] * n
    for row, doc in enumerate(read_corpus(path, ids, "embedding cache")):
        if row in slot:
            sample[slot[row]] = doc
    return sample
