"""The SFT and triplet readers against their JSON Schemas, with jsonschema as
the oracle: a one-line file loads exactly when jsonschema accepts its record,
apart from two intended narrowings that the reader refuses and jsonschema
accepts:

1. an integral float (`"rank": 1.0`) where an integer is required, as config
   already refuses one;
2. a triplet whose `pos` is among its `neg`, which RetrieverTriplet refuses.

Then the writers of all four JSONL formats: the exact bytes of one golden line
each, write-then-read round trips over the same record strategies, and an
example the SFT reader would refuse being refused when written.
"""
import collections
import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from slhyde.corpus import Document, Query, load_corpus, load_queries, write_corpus, write_queries
from slhyde.errors import ValidationError
from slhyde.selflearn import (
    RetrieverTriplet,
    SftExample,
    emit_sft_jsonl,
    emit_triplets_jsonl,
    load_sft_jsonl,
    load_triplets_jsonl,
)

SFT_RECORD_SCHEMA = {
    "type": "object",
    "required": ["instruction", "input", "output", "meta"],
    "additionalProperties": False,
    "properties": {
        "instruction": {"type": "string"},
        "input": {"type": "string", "minLength": 1},
        "output": {"type": "string", "minLength": 1},
        "meta": {
            "type": "object",
            "required": ["doc_id", "rank", "L"],
            "additionalProperties": False,
            "properties": {
                "doc_id": {"type": "string", "minLength": 1},
                "rank": {"type": "integer", "minimum": 1},
                "L": {"type": "integer", "minimum": 1},
            },
        },
    },
}

TRIPLET_RECORD_SCHEMA = {
    "type": "object",
    "required": ["query", "pseudo", "pos", "neg", "meta"],
    "additionalProperties": False,
    "properties": {
        "query": {"type": "string", "minLength": 1},
        "pseudo": {"type": "string", "minLength": 1},
        "pos": {"type": "string", "minLength": 1},
        "neg": {
            "type": "array",
            "items": {"type": "string", "minLength": 1},
            "uniqueItems": True,
        },
        "meta": {"type": "object"},
    },
}

# A valid string, "", an int, an integral float, a bool, null, a list and a dict.
VALUES = st.one_of(
    st.text(min_size=1, max_size=4),
    st.just(""),
    st.integers(-1, 3),
    st.integers(-1, 3).map(float),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from(["d0", "d1", ""]), max_size=3),
    st.dictionaries(st.sampled_from(["scores", "doc_id", "x"]), st.integers(0, 2), max_size=2),
)
TEXT = st.text(min_size=1, max_size=6)
DOC = st.sampled_from(["d0", "d1", "d2"])  # few ids, so neg repeats and holds pos

SFT_RECORDS = st.fixed_dictionaries(
    {
        "instruction": st.text(max_size=4),
        "input": TEXT,
        "output": TEXT,
        "meta": st.fixed_dictionaries({"doc_id": DOC, "rank": st.integers(1, 9), "L": st.integers(1, 9)}),
    }
)
TRIPLET_RECORDS = st.fixed_dictionaries(
    {
        "query": TEXT,
        "pseudo": TEXT,
        "pos": DOC,
        "neg": st.lists(DOC, max_size=3),
        "meta": st.one_of(st.just({}), st.fixed_dictionaries({"scores": st.dictionaries(DOC, st.floats(0, 1))})),
    }
)


@st.composite
def mutated(draw, records):
    """A record of `records` after up to three edits, each at the top level or
    in `meta`: a key dropped, or a key (named or extra) set to any VALUES kind."""
    record = copy.deepcopy(draw(records))
    for _ in range(draw(st.integers(0, 3))):
        target = record["meta"] if isinstance(record.get("meta"), dict) and draw(st.booleans()) else record
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(VALUES)
    return record


def _check(tmp_path_factory, records, schema, narrowed, narrowed_example, load, expected_item):
    """Run the oracle over mutated `records`, and `narrowed_example`.
    `narrowed(record)` says whether the reader refuses a record that
    jsonschema accepts. Every outcome (loaded, narrowed, refused) must occur."""
    validator = validator_for(schema)(schema)
    path = tmp_path_factory.mktemp("oracle") / "records.jsonl"
    outcomes = collections.Counter()

    @settings(max_examples=400, deadline=None)
    @given(record=mutated(records))
    @example(record=narrowed_example)
    def check(record):
        path.write_text(json.dumps(record) + "\n")
        accepted = validator.is_valid(record)
        if accepted and not narrowed(record):
            outcomes["loaded"] += 1
            assert load(path) == [expected_item(record)]
        else:
            outcomes["narrowed" if accepted else "refused"] += 1
            with pytest.raises(ValidationError, match=r" in records\.jsonl \(line 1\)$"):
                load(path)

    check()
    assert set(outcomes) == {"loaded", "narrowed", "refused"}, outcomes


def test_sft_reader_accepts_what_the_schema_accepts(tmp_path_factory):
    _check(
        tmp_path_factory,
        SFT_RECORDS,
        SFT_RECORD_SCHEMA,
        lambda r: isinstance(r["meta"]["rank"], float) or isinstance(r["meta"]["L"], float),
        {"instruction": "", "input": "q", "output": "p", "meta": {"doc_id": "d0", "rank": 1.0, "L": 5}},
        load_sft_jsonl,
        lambda r: SftExample(r["input"], r["output"], r["meta"]["doc_id"], r["meta"]["rank"], r["meta"]["L"]),
    )


def test_triplet_reader_accepts_what_the_schema_accepts(tmp_path_factory):
    _check(
        tmp_path_factory,
        TRIPLET_RECORDS,
        TRIPLET_RECORD_SCHEMA,
        lambda r: r["pos"] in r["neg"],
        {"query": "q", "pseudo": "p", "pos": "d0", "neg": ["d1", "d0"], "meta": {}},
        load_triplets_jsonl,
        lambda r: RetrieverTriplet(r["query"], r["pseudo"], r["pos"], tuple(r["neg"]), r["meta"].get("scores", {})),
    )


# --- writers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "write, items, golden",
    [
        (
            write_corpus,
            [Document("d1", "中文 body", "T"), Document("d2", "body", ""), Document("d3", "body")],
            '{"_id": "d1", "text": "中文 body", "title": "T"}\n'
            '{"_id": "d2", "text": "body", "title": ""}\n'
            '{"_id": "d3", "text": "body"}\n',
        ),
        (
            write_queries,
            [Query("q1", "what", "A"), Query("q2", "why")],
            '{"_id": "q1", "answer": "A", "text": "what"}\n{"_id": "q2", "text": "why"}\n',
        ),
        (
            lambda items, path: emit_sft_jsonl(items, path, instruction="i"),
            [SftExample("q", "p", "d0", 1, 5)],
            '{"input": "q", "instruction": "i", "meta": {"L": 5, "doc_id": "d0", "rank": 1}, "output": "p"}\n',
        ),
        (
            emit_triplets_jsonl,
            [RetrieverTriplet("q", "p", "d0", ("d1", "d2"), {"d1": 0.5, "d2": 0.25})],
            '{"meta": {"scores": {"d1": 0.5, "d2": 0.25}}, "neg": ["d1", "d2"], "pos": "d0", "pseudo": "p", "query": "q"}\n',
        ),
    ],
    ids=["corpus", "queries", "sft", "triplets"],
)
def test_each_writer_writes_its_golden_bytes(tmp_path, write, items, golden):
    path = tmp_path / "records.jsonl"
    write(items, path)
    assert path.read_bytes() == golden.encode("utf-8")


LINE_TEXT = TEXT.filter(lambda t: t.strip() and "\n" not in t and "\r" not in t)
RECORD_ID = TEXT.filter(lambda t: not any(c.isspace() for c in t))  # trec and qrels fields split on whitespace
TITLE = st.one_of(st.none(), st.just(""), TEXT)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(RECORD_ID, LINE_TEXT, TITLE), max_size=5, unique_by=lambda r: r[0]))
def test_corpus_and_queries_read_back_what_was_written(tmp_path_factory, records):
    root = tmp_path_factory.mktemp("written")
    write_corpus([Document(*r) for r in records], root / "corpus.jsonl")
    write_queries([Query(*r) for r in records], root / "queries.jsonl")
    # an empty title or answer is none
    assert list(load_corpus(root / "corpus.jsonl")) == [Document(i, t, extra or None) for i, t, extra in records]
    assert load_queries(root / "queries.jsonl") == [Query(i, t, extra or None) for i, t, extra in records]


@settings(max_examples=200, deadline=None)
@given(record=SFT_RECORDS)
def test_sft_record_reads_back_as_written(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("written") / "sft.jsonl"
    meta = record["meta"]
    example = SftExample(record["input"], record["output"], meta["doc_id"], meta["rank"], meta["L"])
    emit_sft_jsonl([example], path, instruction=record["instruction"])
    assert path.read_text("utf-8") == json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
    assert load_sft_jsonl(path) == [example]


@settings(max_examples=200, deadline=None)
@given(record=TRIPLET_RECORDS.filter(lambda r: r["pos"] not in r["neg"] and len(set(r["neg"])) == len(r["neg"])))
def test_triplet_record_reads_back_as_written(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("written") / "triplets.jsonl"
    scores = record["meta"].get("scores", {})
    triplet = RetrieverTriplet(record["query"], record["pseudo"], record["pos"], tuple(record["neg"]), scores)
    emit_triplets_jsonl([triplet], path)
    written = record | {"meta": {"scores": scores}}
    assert path.read_text("utf-8") == json.dumps(written, ensure_ascii=False, sort_keys=True) + "\n"
    assert load_triplets_jsonl(path) == [triplet]


@pytest.mark.parametrize(
    "example, problem",
    [
        (SftExample("", "p", "d0", 1, 5), "input must be a non-empty string"),
        (SftExample("q", "", "d0", 1, 5), "output must be a non-empty string"),
        (SftExample("q", "p", "", 1, 5), "meta.doc_id must be a non-empty string"),
        (SftExample("q", "p", "d0", 0, 5), "meta.rank must be >= 1"),
    ],
)
def test_sft_example_its_reader_refuses_is_refused_when_written(tmp_path, example, problem):
    good = SftExample("q", "p", "d1", 1, 5)
    with pytest.raises(ValidationError, match=problem):
        emit_sft_jsonl([good, example], tmp_path / "sft.jsonl")
    assert list(tmp_path.iterdir()) == []
