"""Label-free training-data construction and reference loss evaluation.

Two datasets come out of this module:
  - the generator SFT set: for each corpus document, synthesize a query,
    generate several candidate pseudo-documents, rank the true document under
    each candidate over the full corpus, and keep the candidate with the
    lowest rank (the first of any tie);
  - the retriever triplet set: (query, pseudo-document; positive) triples
    whose hard negatives are the exact top-m corpus documents around the
    fused (query, pseudo) embedding, found by the one exact search
    (`retrieval.search_many`). The same fused vector gives each triplet's
    reference InfoNCE loss.
Both builders go through `util.run_chunked`: a chunk costs one embed_texts call and
one ranks_of or search_many call. Neither depends on the batch, so the datasets do not.
Both stream: memory holds one chunk of 64, never the dataset.
`build_generator_dataset` writes each chunk's SFT lines and, beside them, the
rows it scored each emitted example with, its query's and its selected
candidate's, as `<sft file>.rows`: one SLHE3 cache file (`embed.cache_file`)
whose header, written last, holds a fingerprint over the embedder and the SFT
file's sha256, hashed as its lines are written. `build_retriever_dataset`
reads the SFT file twice: once to check every doc_id and hash the ids its rows
file should list, then a chunk at a time, yielding each triplet and its loss.
Example i's rows are rows 2i and 2i + 1, so a chunk reads one slice of the
rows file, and only when that file is current; the chunk then embeds only the
texts those rows lack (`embed.embed_rows`): with `reuse_pseudo`, no text at
all.
Both take `SelfLearnSettings`, the `selflearn` config section, which checks
itself when built.

Gradient-based training is out of scope; the module emits the datasets and
computes reference InfoNCE loss values on given embeddings.
"""
from __future__ import annotations

import hashlib
import itertools
import logging
import math
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Document, corpus_file_digest
from .embed import cache_file, cache_fingerprint, embed_rows, embed_texts, keyed_rows, open_cache
from .errors import FormatError, ProtocolError, RunError, SlhydeError, ValidationError
from .hyde import fuse_rows
from .retrieval import DenseIndex, ranks_of, search_many
from .textgen import SamplingConfig, generate_hypothetical, generate_pseudo_docs, generate_query_for_doc
from .util import derive_seed, read_jsonl, run_chunked, write_jsonl

logger = logging.getLogger(__name__)

# Instruction the emitted SFT records carry; matches the inference-time task
# so the tuned generator sees the same framing in training and deployment.
DEFAULT_SFT_INSTRUCTION = "Please generate a medical content paragraph to answer this question."


@dataclass(frozen=True)
class SftExample:
    query: str
    response: str          # the selected best candidate
    doc_id: str            # source document
    rank: int              # rank the selected candidate achieved
    num_candidates: int    # how many candidates were scored


@dataclass(frozen=True, eq=True)
class RetrieverTriplet:
    query: str
    pseudo: str
    positive: str
    negatives: tuple[str, ...]
    # participates in equality (round-trip tests cover it); triplets are never hashed
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.positive in self.negatives:
            raise ValidationError("positive document listed among negatives")
        if len(set(self.negatives)) != len(self.negatives):
            raise ValidationError("negatives must be distinct")


@dataclass
class SftStats:
    """The counts `build-sft-data` writes to `sft_stats.json`, kept running
    as the documents are scored."""

    total_documents: int
    emitted: int = 0
    dropped_by_cutoff: int = 0
    skipped_errors: int = 0


RANK_SCORINGS = ("candidate", "fused")


@dataclass(frozen=True)
class SelfLearnSettings:
    candidates_per_query: int = 5
    negatives: int = 7
    tau: float = 0.02
    rank_cutoff: int = 100
    rank_scoring: str = "candidate"
    reuse_pseudo: bool = True
    sample_docs: int | None = None
    max_skip_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValidationError(f"selflearn.tau must be finite and > 0, got {self.tau}")
        if self.rank_scoring not in RANK_SCORINGS:
            raise ValidationError(
                f"selflearn.rank_scoring {self.rank_scoring!r} is not one of {RANK_SCORINGS}"
            )
        if self.sample_docs is not None and self.sample_docs < 1:
            raise ValidationError("selflearn.sample_docs must be null (whole corpus) or >= 1")
        for key in ("candidates_per_query", "negatives", "rank_cutoff"):
            if getattr(self, key) < 1:
                raise ValidationError(f"selflearn.{key} must be >= 1")
        if not 0 <= self.max_skip_fraction <= 1:
            raise ValidationError("selflearn.max_skip_fraction must be in [0, 1]")


def _score_many(planned, emb, index: DenseIndex, rank_scoring: str) -> list[tuple[list[int], np.ndarray]]:
    """For each (target_id, query, candidates) of `planned`: the true target's
    1-based full-corpus rank under each candidate's retrieval vector, in
    candidate order, and the plan's rows (the query's first, then each
    candidate's).

    rank_scoring is one of RANK_SCORINGS, as SelfLearnSettings checks:
    "candidate" retrieves with the candidate embedding alone (the literal
    reading); "fused" averages in the query embedding, matching
    the inference-time fusion. Both are exposed because the source procedure
    is ambiguous on this point. Every query and candidate of `planned` is
    embedded in one embed_texts call, and all candidates are ranked in one
    ranks_of call. build_generator_dataset keeps the query's row and the
    selected candidate's, so the triplet builder need not embed them again.
    """
    if not planned:
        return []
    rows = embed_texts(emb, [text for _, query, candidates in planned for text in (query, *candidates)])
    blocks = np.split(rows, np.cumsum([1 + len(candidates) for _, _, candidates in planned])[:-1])
    vectors = [block[1:] if rank_scoring == "candidate" else (block[1:] + block[0]) / 2.0 for block in blocks]
    targets = [target_id for target_id, _, candidates in planned for _ in candidates]
    ranks = iter(ranks_of(index, np.vstack(vectors), targets))
    return [(list(itertools.islice(ranks, len(block) - 1)), block) for block in blocks]


def build_generator_dataset(
    docs: list[Document],
    gen,
    emb,
    index: DenseIndex,
    settings: SelfLearnSettings,
    path: str | Path,
    seed: int = 0,
    sampling: SamplingConfig | None = None,
    parallelism: int = 1,
) -> SftStats:
    """Construct the generator SFT dataset from unlabeled documents: write
    it to the SFT file `path`, and each emitted example's query row and
    selected candidate row, from whichever call scored it, to its rows file
    (`<path>.rows`), chunk by chunk as the chunks are scored.

    Each document gets settings.candidates_per_query candidates, ranked per
    settings.rank_scoring, and keeps the one of lowest rank, the lowest
    candidate index on a tie. Per-document generation or embedding errors skip
    the document; a skip rate above settings.max_skip_fraction fails the run
    once every chunk is scored, and neither file is written.
    A ProtocolError for one document (a client status such as a bad key's
    401) would fail every document alike, so it propagates.
    Documents whose best candidate rank exceeds settings.rank_cutoff are
    dropped and counted. If a chunk's one embed_texts or ranks_of call fails,
    its documents are scored again one at a time, so only the failing
    documents are skipped. settings.sample_docs is the caller's to apply.
    The rows file's fingerprint covers `emb` and the SFT file's sha256,
    hashed as its lines are written.
    """
    base = sampling or SamplingConfig()
    num_candidates, rank_scoring = settings.candidates_per_query, settings.rank_scoring
    stats = SftStats(total_documents=len(docs))

    def plan(doc: Document):
        query_cfg = replace(base, seed=derive_seed(seed, "query", doc.id))
        cand_cfg = replace(base, seed=derive_seed(seed, "candidates", doc.id))
        try:
            query = generate_query_for_doc(gen, doc, query_cfg)
            return doc.id, query, generate_pseudo_docs(gen, query, doc, num_candidates, cand_cfg)
        except ProtocolError:
            raise
        except SlhydeError as exc:
            logger.warning("skipping document %s: %s", doc.id, exc)
            return None

    def score_alone(planned_doc):
        try:
            return _score_many([planned_doc], emb, index, rank_scoring)[0]
        except ProtocolError:
            raise
        except SlhydeError as exc:
            logger.warning("skipping document %s: %s", planned_doc[0], exc)
            return None

    def finish(planned: list) -> list[tuple[SftExample, np.ndarray]]:
        live = [p for p in planned if p is not None]
        try:
            scored = _score_many(live, emb, index, rank_scoring)
        except SlhydeError:
            scored = [score_alone(p) for p in live]
        examples = []
        for (doc_id, query, candidates), outcome in zip(live, scored):
            if outcome is not None:
                ranks, block = outcome
                best = ranks.index(min(ranks))  # a tie goes to the lowest candidate index
                example = SftExample(query, candidates[best], doc_id, ranks[best], num_candidates)
                examples.append((example, block[[0, 1 + best]]))
        stats.skipped_errors += len(planned) - len(examples)
        return examples

    def kept(rows_file):
        """Each example within the cutoff, its rows added to `rows_file`;
        the skip rate is checked once the last chunk is scored."""
        for example, rows in run_chunked(docs, plan, finish, parallelism):
            if example.rank > settings.rank_cutoff:
                stats.dropped_by_cutoff += 1
                continue
            stats.emitted += 1
            rows_file.add(_row_ids(example.doc_id), rows)
            yield example
        if docs and stats.skipped_errors / len(docs) > settings.max_skip_fraction:
            raise RunError(
                f"{stats.skipped_errors}/{len(docs)} documents failed; "
                f"exceeds allowed fraction {settings.max_skip_fraction}"
            )

    with cache_file(_rows_path(path), emb.dim) as rows_file:
        rows_file.fingerprint = cache_fingerprint(emb, emit_sft_jsonl(kept(rows_file), path))
    if stats.dropped_by_cutoff:
        logger.info("dropped %d documents whose best rank exceeded %d", stats.dropped_by_cutoff, settings.rank_cutoff)
    return stats


def _rows_path(sft_path: str | Path) -> Path:
    """`<sft file>.rows`: never a dataset's `<name>.emb` embedding cache."""
    return Path(str(sft_path) + ".rows")


def _row_ids(doc_id: str) -> list[str]:
    """The rows file's ids of one example: its query's row, then its response's."""
    return [f"input:{doc_id}", f"output:{doc_id}"]


def _sft_rows(stack: ExitStack, emb, sft_path: Path, ids_digest: bytes):
    """read(start, stop), the rows [start, stop) of the rows file of the SFT
    file `sft_path`, held open by `stack`; None when that file is missing,
    was written for other bytes or another embedder setting, or lists other
    examples than those whose ids block has the sha256 `ids_digest` (the
    reason is logged)."""
    path = _rows_path(sft_path)
    try:
        ids, _, read = stack.enter_context(open_cache(path, cache_fingerprint(emb, corpus_file_digest(sft_path))))
        if hashlib.sha256(ids.encode("utf-8")).digest() != ids_digest:
            raise FormatError(f"{path} does not list the examples of {sft_path}")
    except FormatError as exc:
        logger.info("embedding the SFT texts again: %s", exc)
        return None
    logger.info("reusing SFT rows %s (%d vectors)", path, ids.count("\n"))
    return read


def mine_hard_negatives(
    index: DenseIndex,
    fused: np.ndarray,
    positives: list[str],
    m: int,
) -> list[list[tuple[str, float]]]:
    """For each row of the (rows, dim) matrix `fused`, its exact top-(m+1) from
    one search_many call with its positive excluded, cut to m."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    if len(index) <= m:
        raise ValidationError(f"corpus of {len(index)} is too small to mine {m} negatives")
    return [
        [(doc_id, score) for doc_id, score in hits if doc_id != positive][:m]
        for hits, positive in zip(search_many(index, fused, k=m + 1), positives)
    ]


def build_retriever_dataset(
    sft_path: str | Path,
    gen,
    emb,
    index: DenseIndex,
    settings: SelfLearnSettings,
    template: str = "Q2P",
    seed: int = 0,
    sampling: SamplingConfig | None = None,
    parallelism: int = 1,
):
    """Yield one triplet with settings.negatives hard negatives, and its
    reference loss at temperature settings.tau, per example of the SFT file
    `sft_path`, chunk by chunk.

    The file is read twice, and never held. The first pass checks every
    meta.doc_id against the corpus (a ValidationError naming the file and
    line) and hashes the ids its rows file should list, all before any
    request; a corpus of no more than settings.negatives documents is refused
    before that. The second pass reads the examples a chunk at a time.
    With settings.reuse_pseudo (offline mode) the selected response is reused
    as the pseudo-document; otherwise the generator rewrites the query fresh
    from `template`, which is the deployment-form path for a tuned generator.
    Example i's rows are rows 2i and 2i + 1 of the SFT file's rows file, when
    it is current (`_sft_rows`), so a chunk reads one slice of them; the
    chunk's (query, pseudo) texts those rows lack are embedded in one call
    (none when all are known). Each pair's fused vector (`hyde.fuse_rows`)
    mines the negatives (one search_many call per chunk) and scores the
    reference loss against the cached document rows.
    """
    if len(index) <= settings.negatives:
        raise ValidationError(f"corpus of {len(index)} is too small to mine {settings.negatives} negatives")
    sft_path, base, cache = Path(sft_path), sampling or SamplingConfig(), index.cache
    ids_digest = hashlib.sha256()
    for example in _read_sft(sft_path, cache):
        ids_digest.update("".join(f"{i}\n" for i in _row_ids(example.doc_id)).encode("utf-8"))

    def plan(item: tuple[int, SftExample]) -> tuple[int, SftExample, str]:
        position, example = item
        if settings.reuse_pseudo:
            return position, example, example.response
        cfg = replace(base, seed=derive_seed(seed, "pseudo", example.doc_id))
        return position, example, generate_hypothetical(gen, example.query, template, 1, cfg)[0]

    def finish(planned: list[tuple[int, SftExample, str]]) -> list[tuple[RetrieverTriplet, float]]:
        known_rows = None
        if read is not None:  # a chunk is a run of the file's examples, so its rows are one slice
            known = (text for _, example, _ in planned for text in (example.query, example.response))
            known_rows = keyed_rows(emb, known, read(2 * planned[0][0], 2 * planned[-1][0] + 2))
        texts = [text for _, example, pseudo in planned for text in (example.query, pseudo)]
        fused = fuse_rows(embed_rows(emb, texts, known_rows), [2] * len(planned))
        positives = [example.doc_id for _, example, _ in planned]
        mined = mine_hard_negatives(index, fused, positives, settings.negatives)
        results = []
        for (_, example, pseudo), vector, negatives in zip(planned, fused, mined):
            triplet = RetrieverTriplet(
                query=example.query,
                pseudo=pseudo,
                positive=example.doc_id,
                negatives=tuple(doc_id for doc_id, _ in negatives),
                scores={doc_id: score for doc_id, score in negatives},
            )
            negative_rows = [cache.row(doc_id) for doc_id in triplet.negatives]
            loss = contrastive_loss(vector, cache.row(example.doc_id), negative_rows, settings.tau)
            results.append((triplet, loss))
        return results

    with ExitStack() as stack:
        read = _sft_rows(stack, emb, sft_path, ids_digest.digest())
        yield from run_chunked(enumerate(_read_sft(sft_path, cache)), plan, finish, parallelism)


def infonce_from_scores(positive_score: float, negative_scores, tau: float) -> float:
    """InfoNCE over raw similarity scores at temperature tau (log-sum-exp stable)."""
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    logits = [positive_score / tau]
    logits.extend(s / tau for s in negative_scores)
    logits = np.asarray(logits, dtype=np.float64)
    peak = float(np.max(logits))
    lse = peak + float(np.log(np.sum(np.exp(logits - peak))))
    return float(lse - logits[0])


def contrastive_loss(query_fused: np.ndarray, positive: np.ndarray, negatives, tau: float) -> float:
    """InfoNCE on vectors: scores are inner products of the fused query vector
    with (unit-normalized) document vectors."""
    q = np.asarray(query_fused, dtype=np.float64).ravel()
    pos = np.asarray(positive, dtype=np.float64).ravel()
    if pos.shape != q.shape:
        raise ValidationError("positive vector dim mismatch")
    neg_scores = []
    for vec in negatives:
        vec = np.asarray(vec, dtype=np.float64).ravel()
        if vec.shape != q.shape:
            raise ValidationError("negative vector dim mismatch")
        neg_scores.append(float(q @ vec))
    return infonce_from_scores(float(q @ pos), neg_scores, tau)


# --- JSONL emission -------------------------------------------------------
# The record formats are part of the external interface: they are what
# external fine-tuning harnesses consume. Each format is one record dataclass
# below, written by `util.write_jsonl` and read back by `util.read_jsonl`:
# every field is a required key and no other key is allowed (a triplet's
# `meta` is free-form). A record its reader refuses is refused when written.


@dataclass(slots=True)
class _SftMeta:
    doc_id: str
    rank: int
    L: int

    def __post_init__(self):
        if not self.doc_id:
            raise ValidationError("meta.doc_id must be a non-empty string")
        for key in ("rank", "L"):
            if getattr(self, key) < 1:
                raise ValidationError(f"meta.{key} must be >= 1, got {getattr(self, key)}")


@dataclass(slots=True)
class _SftRecord:
    instruction: str
    input: str
    output: str
    meta: _SftMeta

    def __post_init__(self):
        for key in ("input", "output"):
            if not getattr(self, key):
                raise ValidationError(f"{key} must be a non-empty string")

    def example(self) -> SftExample:
        return SftExample(self.input, self.output, self.meta.doc_id, self.meta.rank, self.meta.L)


@dataclass(slots=True)
class _TripletRecord:  # RetrieverTriplet checks that neg is distinct and lacks pos
    query: str
    pseudo: str
    pos: str
    neg: list[str]
    meta: dict

    def __post_init__(self):
        for key in ("query", "pseudo", "pos"):
            if not getattr(self, key):
                raise ValidationError(f"{key} must be a non-empty string")
        if not all(self.neg):
            raise ValidationError("neg must hold non-empty strings")

    def triplet(self) -> RetrieverTriplet:
        return RetrieverTriplet(self.query, self.pseudo, self.pos, tuple(self.neg), self.meta.get("scores", {}))


def emit_sft_jsonl(examples, path: str | Path, instruction: str = DEFAULT_SFT_INSTRUCTION) -> bytes:
    """Write the SFT examples of the iterable `examples` to `path` as they
    come; returns the sha256 of the file's bytes."""
    records = (
        _SftRecord(instruction, e.query, e.response, _SftMeta(e.doc_id, e.rank, e.num_candidates)) for e in examples
    )
    return write_jsonl(path, records)


def _read_sft(path: str | Path, doc_ids=None):
    """The examples of the SFT file `path`, yielded as it is read. With
    `doc_ids` (a container, such as the corpus's embedding cache), a
    meta.doc_id that it lacks is a ValidationError naming the file and line."""

    def example(record: _SftRecord) -> SftExample:
        if doc_ids is not None and record.meta.doc_id not in doc_ids:
            raise ValidationError(f"meta.doc_id {record.meta.doc_id!r} is not in the corpus")
        return record.example()

    return read_jsonl(path, _SftRecord, "SFT record", example)


def load_sft_jsonl(path: str | Path) -> list[SftExample]:
    """The examples of the SFT file `path`."""
    return list(_read_sft(path))


def emit_triplets_jsonl(triplets, path: str | Path) -> None:
    """Write the triplets of the iterable `triplets` to `path` as they come."""
    records = (_TripletRecord(t.query, t.pseudo, t.positive, list(t.negatives), {"scores": t.scores}) for t in triplets)
    write_jsonl(path, records)


def load_triplets_jsonl(path: str | Path) -> list[RetrieverTriplet]:
    return list(read_jsonl(path, _TripletRecord, "triplet record", _TripletRecord.triplet))


def validate_sft_file(path: str | Path) -> int:
    """Check every record; returns the record count."""
    return len(load_sft_jsonl(path))
