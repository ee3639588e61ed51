import dataclasses
import hashlib
import json
import logging
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slhyde.config import load_config
from slhyde.corpus import (
    CorpusStore,
    Document,
    Query,
    RelevanceJudgments,
    corpus_file_digest,
    load_corpus,
    load_qrels,
    load_queries,
    sample_documents,
    write_corpus,
    write_qrels,
    write_queries,
)
from slhyde.errors import ParseError, ValidationError

from conftest import queries_for_docs, synthetic_docs


# ids with shared prefixes, digit runs, non-ASCII and non-BMP characters, no whitespace
_ID = st.lists(st.sampled_from(["d", "doc", "1", "10", "9", "é", "文", "\U0001f600", "-"]), min_size=1, max_size=4).map(
    "".join
) | st.text(alphabet=st.characters(exclude_categories=("Cs", "Zs", "Cc", "Zl", "Zp")), min_size=1, max_size=5)


def _write_jsonl(path, records):
    """One line per record: a dict as UTF-8 JSON, bytes as they are."""
    with path.open("wb") as fh:
        for record in records:
            fh.write(record if isinstance(record, bytes) else json.dumps(record, ensure_ascii=False).encode())
            fh.write(b"\n")


@pytest.mark.parametrize(
    "record", [Document("d1", "body", "a title"), Document("d2", "body"), Query("q1", "text", "an answer")]
)
def test_records_are_slotted_and_behave_as_frozen_dataclasses(record):
    assert not hasattr(record, "__dict__")  # a corpus holds each record's fields only
    assert pickle.loads(pickle.dumps(record)) == record
    assert hash(dataclasses.replace(record)) == hash(record)
    assert dataclasses.replace(record, text="other").text == "other"
    with pytest.raises(ValidationError, match="empty text"):
        dataclasses.replace(record, text="  ")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.text = "other"
    if isinstance(record, Document):
        assert record.indexed_text == (f"{record.title}\n{record.text}" if record.title else record.text)


class TestLoadCorpus:
    def test_three_valid_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [{"_id": f"d{i}", "text": f"text {i}"} for i in range(3)])
        store = load_corpus(path)
        assert len(store) == 3
        assert store.ids == ["d0", "d1", "d2"]

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [{"_id": "dup", "text": "a"}, {"_id": "dup", "text": "b"}])
        with pytest.raises(ValidationError, match=r"'dup' in corpus\.jsonl \(line 2\)"):
            load_corpus(path)

    def test_blank_text_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [{"_id": "d0", "text": "ok"}, {"_id": "d1", "text": " "}])
        with pytest.raises(ValidationError, match=r"document 'd1' has empty text in corpus\.jsonl \(line 2\)"):
            load_corpus(path)

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with caplog.at_level(logging.WARNING):
            store = load_corpus(path)
        assert len(store) == 0
        assert any("empty" in record.message for record in caplog.records)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id": "d0", "text": "ok"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [{"_id": "d0"}])
        with pytest.raises(ParseError):
            load_corpus(path)

    def test_title_feeds_indexed_text(self):
        doc = Document(id="d", text="body", title="heading")
        assert doc.indexed_text == "heading\nbody"
        assert Document(id="d", text="body").indexed_text == "body"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_corpus(tmp_path / "nope.jsonl")


class TestCorpusStore:
    @given(ids=st.lists(_ID, unique=True, max_size=40), probes=st.lists(_ID, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_lookups_match_a_dict_of_positions(self, ids, probes):
        store = CorpusStore(Document(id=doc_id, text=f"text {i}") for i, doc_id in enumerate(ids))
        positions = {doc_id: pos for pos, doc_id in enumerate(ids)}
        for doc_id in ids + probes:
            assert (doc_id in store) == (doc_id in positions)
            if doc_id in positions:
                assert store.position(doc_id) == positions[doc_id]
                assert store.get(doc_id) is store[positions[doc_id]]
            else:
                for lookup in (store.position, store.get):
                    with pytest.raises(ValidationError) as err:
                        lookup(doc_id)
                    assert str(err.value) == f"unknown document id {doc_id!r}"

    @given(ids=st.lists(_ID, min_size=1, max_size=30), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_duplicate_is_named_as_a_dict_of_positions_names_it(self, ids, data):
        ids = data.draw(st.permutations(ids + [data.draw(st.sampled_from(ids))]))
        seen, repeated = set(), None
        for doc_id in ids:
            if doc_id in seen:
                repeated = doc_id  # the first id to repeat, in row order
                break
            seen.add(doc_id)
        with pytest.raises(ValidationError) as err:
            CorpusStore(Document(id=doc_id, text="text") for doc_id in ids)
        assert str(err.value) == f"duplicate document id {repeated!r}"

    def test_store_holds_few_bytes_per_document_beyond_them(self):
        n = 20_000
        # not in ascending order: ids shuffled as a corpus's may be
        docs = [Document(id=f"doc-{i:06d}", text="text") for i in np.random.default_rng(6).permutation(n).tolist()]
        tracemalloc.start()
        try:
            store = CorpusStore(docs)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the documents and ids lists (8 bytes a document each) and the int64
        # id order (8 more), about 24; with a dict of positions it was 83
        assert held / n < 32
        assert store.get(docs[123].id) is docs[123]


class TestLoadQueries:
    def test_five_lines(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        _write_jsonl(path, [{"_id": f"q{i}", "text": f"question {i}"} for i in range(5)])
        assert len(load_queries(path)) == 5

    def test_blank_text_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        _write_jsonl(path, [{"_id": "q0", "text": "   "}])
        with pytest.raises(ValidationError, match=r"query 'q0' has empty text in queries\.jsonl \(line 1\)"):
            load_queries(path)

    def test_unicode_ids_round_trip(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        records = [{"_id": "查询-1", "text": "高血压怎么治疗"}, {"_id": "q-ß", "text": "unicode täxt"}]
        _write_jsonl(path, records)
        queries = load_queries(path)
        assert [q.id for q in queries] == ["查询-1", "q-ß"]
        out = tmp_path / "roundtrip.jsonl"
        write_queries(queries, out)
        assert [q.id for q in load_queries(out)] == ["查询-1", "q-ß"]

    def test_duplicate_query_id(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        _write_jsonl(path, [{"_id": "q", "text": "a"}, {"_id": "q", "text": "b"}])
        with pytest.raises(ValidationError, match=r"'q' in queries\.jsonl \(line 2\)"):
            load_queries(path)


@pytest.mark.parametrize("load, name", [(load_corpus, "corpus.jsonl"), (load_queries, "queries.jsonl")])
@pytest.mark.parametrize(
    "record",
    [
        {"_id": "x1", "text": None},
        {"_id": "x1", "text": 5},
        {"_id": None, "text": "body"},
        {"_id": True, "text": "body"},
        {"_id": ["x1"], "text": "body"},
        {"_id": "x\n1", "text": "body"},
        {"_id": "x\r1", "text": "body"},
        {"_id": "x1", "text": "body", "<optional>": {"a": 1}},
        {"_id": "x1", "text": "body", "<optional>": [1, 2]},
        {"_id": "x1", "text": "body", "<optional>": 0},
        b'{"_id": "x1", "text": "caf\xff"}',  # a byte that is not UTF-8
    ],
)
def test_ill_typed_field_or_multiline_id_names_the_file_and_line(tmp_path, load, name, record):
    # "<optional>" stands for the loader's own optional key, which must be a string or null
    optional = {"corpus.jsonl": "title", "queries.jsonl": "answer"}[name]
    if isinstance(record, dict):
        record = {optional if key == "<optional>" else key: value for key, value in record.items()}
    path = tmp_path / name
    _write_jsonl(path, [{"_id": 7, "text": "an integer id is read as its digits"}, record])
    with pytest.raises(ParseError, match=rf"in {re.escape(name)} \(line 2\)"):
        load(path)
    _write_jsonl(path, [{"_id": 7, "text": "an integer id is read as its digits", optional: ""}])
    assert [(item.id, getattr(item, optional)) for item in load(path)] == [("7", None)]


@pytest.mark.parametrize("load, name", [(load_corpus, "corpus.jsonl"), (load_queries, "queries.jsonl")])
def test_a_lone_surrogate_escape_names_the_file_and_line(tmp_path, load, name):
    # the line is ASCII, so only the decoded text shows the lone surrogate,
    # which no UTF-8 consumer (the embedder's hashing, the writers) can encode
    path = tmp_path / name
    path.write_bytes(b'{"_id": "d1", "text": "good \\ud83d\\ude00 text"}\n{"_id": "d2", "text": "bad \\ud800 text"}\n')
    with pytest.raises(ParseError, match=rf"^lone surrogate \\ud800 is not text in {re.escape(name)} \(line 2\)$"):
        load(path)
    # an escaped pair decodes to one astral character, and an escaped
    # backslash before "ud800" is a backslash; both load
    path.write_bytes(b'{"_id": "d1", "text": "good \\ud83d\\ude00 text \\\\ud800"}\n')
    assert [item.text for item in load(path)] == ["good \U0001f600 text \\ud800"]


@pytest.mark.parametrize("load, name", [(load_corpus, "corpus.jsonl"), (load_queries, "queries.jsonl")])
@pytest.mark.parametrize("doc_id", ["a b", "a\tb", " a", "a\u3000b", "a\xa0b", "a\x0bb"])
def test_whitespace_in_an_id_names_the_file_and_line(tmp_path, load, name, doc_id):
    # a trec run or qrels.tsv line splits its fields on whitespace, so such an id would shift them
    path = tmp_path / name
    _write_jsonl(path, [{"_id": "a-b", "text": "body"}, {"_id": doc_id, "text": "body"}])
    with pytest.raises(ParseError, match=rf"^_id {re.escape(repr(doc_id))} contains whitespace in {name} \(line 2\)$"):
        load(path)


@pytest.mark.parametrize("size", [0, 1, (1 << 18) - 1, 1 << 18, (5 << 17) + 3])
def test_corpus_file_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "corpus.jsonl"
    data = os.urandom(size)
    path.write_bytes(data)
    assert corpus_file_digest(path) == hashlib.sha256(data).digest()


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    docs = synthetic_docs(4)
    queries = queries_for_docs(docs)
    write_corpus(docs, plain / "corpus.jsonl")
    write_queries(queries, plain / "queries.jsonl")
    write_qrels(RelevanceJudgments(entries={q.id: {d.id: 1} for q, d in zip(queries, docs)}), plain / "qrels.tsv")
    (plain / "config.yaml").write_text("seed: 3\nembedder:\n  dim: 64\n", encoding="utf-8")
    for path in plain.iterdir():
        (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    def loaded(root):
        return (
            list(load_corpus(root / "corpus.jsonl")),
            load_queries(root / "queries.jsonl"),
            load_qrels(root / "qrels.tsv").entries,
            load_config(root / "config.yaml"),
        )

    assert loaded(marked) == loaded(plain)
    assert loaded(plain)[3].embedder.dim == 64


class TestLoadQrels:
    def test_single_line(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\n")
        qrels = load_qrels(path)
        assert qrels.entries == {"q1": {"d1": 1}}

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t-1\n")
        with pytest.raises(ValidationError, match=r"negative grade -1 for \(q1, d1\) in qrels\.tsv \(line 1\)"):
            load_qrels(path)

    def test_duplicate_pair_last_wins_with_warning(self, tmp_path, caplog):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1\td1\t2\n")
        with caplog.at_level(logging.WARNING):
            qrels = load_qrels(path)
        assert qrels.entries["q1"]["d1"] == 2
        assert any("duplicate" in record.message for record in caplog.records)

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\td1\t1\n")
        assert load_qrels(path).entries == {"q1": {"d1": 1}}

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\textra\n")
        with pytest.raises(ParseError, match="columns"):
            load_qrels(path)

    def test_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_bytes(b"q1\td1\t1\n" + b"q1\td\xff\t1\n" + b"q1\td3\t1\n" * 5000)
        with pytest.raises(ParseError, match=r"byte 0xff is not UTF-8 in qrels\.tsv \(line 2\)$"):
            load_qrels(path)

    def test_crlf_and_non_ascii_lines_read_as_text_mode_does(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_bytes("query-id\tcorpus-id\tscore\r\nq1\td-é\t1\r\nq2\t文档\t2\r\n".encode())
        assert load_qrels(path).entries == {"q1": {"d-é": 1}, "q2": {"文档": 2}}

    def test_no_positive_judgment_warns(self, tmp_path, caplog):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t0\n")
        with caplog.at_level(logging.WARNING):
            load_qrels(path)
        assert any("no positive" in record.message for record in caplog.records)


def _sample(tmp_path, docs, n, seed, ids=None):
    """sample_documents over `docs` written as a corpus file, its ids `ids`
    (the documents' own by default)."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(docs, path)
    return sample_documents(path, [d.id for d in docs] if ids is None else ids, n, seed)


class TestSampleDocuments:
    def test_full_sample_is_shuffled_permutation(self, tmp_path):
        store = CorpusStore(synthetic_docs(50, seed=3))
        sample = _sample(tmp_path, list(store), 50, seed=11)
        assert sorted(d.id for d in sample) == sorted(store.ids)
        assert [d.id for d in sample] != store.ids

    def test_same_seed_is_deterministic(self, tmp_path):
        store = CorpusStore(synthetic_docs(40, seed=3))
        first = [d.id for d in _sample(tmp_path, list(store), 10, seed=5)]
        second = [d.id for d in _sample(tmp_path, list(store), 10, seed=5)]
        assert first == second

    def test_the_draw_is_the_first_n_of_a_seeded_permutation(self, tmp_path):
        # the draw every earlier release made, so a seed keeps its documents and their order
        docs = synthetic_docs(30, seed=4) + [Document(id="titled", text="body", title="a title")]
        for n, seed in ((31, 0), (12, 7), (1, 2**40)):
            expected = [docs[int(i)] for i in np.random.default_rng(seed).permutation(len(docs))[:n]]
            assert _sample(tmp_path, docs, n, seed) == expected

    def test_100_from_10000_all_distinct(self, tmp_path):
        docs = [Document(id=f"d{i}", text=f"text {i}") for i in range(10_000)]
        sample = _sample(tmp_path, docs, 100, seed=0)
        # set-size oracle: distinctness means the id set has full cardinality
        assert len({d.id for d in sample}) == 100

    def test_oversample_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            _sample(tmp_path, synthetic_docs(5), 6, seed=0)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sample_ids_subset_and_distinct(self, tmp_path, n, seed):
        store = CorpusStore(synthetic_docs(30, seed=1))
        sample = _sample(tmp_path, list(store), n, seed=seed)
        ids = [d.id for d in sample]
        assert len(set(ids)) == len(ids) == n
        assert set(ids) <= set(store.ids)

    def test_a_corpus_that_no_longer_matches_its_cache_names_the_file_and_line(self, tmp_path):
        docs = synthetic_docs(6, seed=2)
        ids = [d.id for d in docs]
        moved = ids[:3] + ["elsewhere"] + ids[4:]
        with pytest.raises(ValidationError, match=r"is not 'elsewhere', row 3 .* in corpus\.jsonl \(line 4\)$"):
            _sample(tmp_path, docs, 2, seed=0, ids=moved)
        with pytest.raises(ValidationError, match=r"past the 5 rows .* in corpus\.jsonl \(line 6\)$"):
            _sample(tmp_path, docs, 2, seed=0, ids=ids[:5])
        with pytest.raises(ValidationError, match=r"corpus\.jsonl holds 6 records, its embedding cache 7 rows$"):
            _sample(tmp_path, docs, 2, seed=0, ids=ids + ["extra"])


class TestRoundTrip:
    def test_corpus_round_trip_field_equality(self, tmp_path):
        docs = [
            Document(id="d1", text="plain"),
            Document(id="d2", text="body", title="titled"),
            Document(id="d中", text="中文内容"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(docs, path)
        loaded = list(load_corpus(path))
        assert loaded == docs

    def test_queries_round_trip_keeps_answers(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        _write_jsonl(
            path,
            [
                {"_id": "q1", "text": "what lowers blood pressure", "answer": "ACE inhibitors"},
                {"_id": "q2", "text": "no reference answer"},
                {"_id": "q中", "text": "高血压怎么治疗", "answer": "降压药"},
            ],
        )
        queries = load_queries(path)
        out = tmp_path / "out.jsonl"
        write_queries(queries, out)
        assert load_queries(out) == queries
        assert [q.answer for q in queries] == ["ACE inhibitors", None, "降压药"]
        # a query without an answer is written without the key
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[1]) == {"_id": "q2", "text": "no reference answer"}

    def test_qrels_round_trip(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t2\nq1\td2\t0\nq2\td3\t1\n")
        qrels = load_qrels(path)
        out = tmp_path / "out.tsv"
        write_qrels(qrels, out)
        assert load_qrels(out).entries == qrels.entries

    @given(
        st.dictionaries(
            _ID,
            st.dictionaries(_ID, st.integers(0, 3), max_size=4),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_qrels_bytes_are_the_header_and_one_line_per_grade(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("qrels") / "qrels.tsv"
        write_qrels(RelevanceJudgments(entries=entries), path)
        lines = ["query-id\tcorpus-id\tscore\n"]
        lines += [f"{qid}\t{doc_id}\t{grade}\n" for qid, grades in entries.items() for doc_id, grade in grades.items()]
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    def test_qrels_are_written_line_by_line(self, tmp_path):
        entries = {f"q{i:05d}": {f"d{i:05d}": 1, f"d{i + 1:05d}": 0} for i in range(10_000)}
        qrels = RelevanceJudgments(entries=entries)
        path = tmp_path / "qrels.tsv"
        tracemalloc.start()
        try:
            write_qrels(qrels, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of the lines and their joined copy held 1.8 MB for this 0.3 MB file
        assert path.stat().st_size > 300_000
        assert peak < 100_000

    @given(
        st.lists(
            st.tuples(
                # an id holds no whitespace: trec runs and qrels.tsv split on it
                st.text(alphabet=st.characters(exclude_categories=("Cs",)), min_size=1, max_size=20).filter(
                    lambda s: not any(c.isspace() for c in s)
                ),
                st.text(alphabet=st.characters(exclude_characters="\n\r", exclude_categories=("Cs",)), min_size=1, max_size=60).filter(lambda s: s.strip()),
            ),
            min_size=1,
            max_size=20,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_corpus_round_trips(self, tmp_path_factory, records):
        docs = [Document(id=i, text=t) for i, t in records]
        path = tmp_path_factory.mktemp("rt") / "corpus.jsonl"
        write_corpus(docs, path)
        assert list(load_corpus(path)) == docs

