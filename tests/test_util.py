import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhyde import util
from slhyde.corpus import _CorpusRecord
from slhyde.embed import RemoteEmbedderClient, embed_texts
from slhyde.errors import ProtocolError, TransportError
from slhyde.metrics import write_trec_run
from slhyde.retrieval import RankedHits
from slhyde.selflearn import _TripletRecord
from slhyde.textgen import RemoteGeneratorClient, generate
from slhyde.util import atomic_write_text, jsonl_line, replacing, write_jsonl

from conftest import StubEndpoint


def _write_bytes(path, data):
    with replacing(path, "xb") as fh:
        fh.write(data)


def test_concurrent_writers_of_one_path_do_not_collide(tmp_path):
    path = tmp_path / "out.bin"
    payloads = [bytes([fill]) * (32 << 20) for fill in (1, 2)]  # 32 MB each
    for _ in range(3):
        start = threading.Barrier(2, timeout=60)
        errors = []

        def write(data):
            start.wait()
            try:
                _write_bytes(path, data)
            except Exception as exc:  # noqa: BLE001  (reported below)
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(data,)) for data in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert path.read_bytes() in payloads  # one writer's whole payload, never a mix
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # no temp file left


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    _write_bytes(path, b"old")

    def fail_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(util.os, "replace", fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        _write_bytes(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_lines_that_raise_part_way_leave_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "old\n")

    def lines():
        yield "new line\n" * 10_000  # past the write buffer, so some of it reaches the temp file
        raise RuntimeError("record 2 is bad")

    with pytest.raises(RuntimeError, match="record 2 is bad"):
        atomic_write_text(path, lines())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# The writers as they were before they streamed: every line joined into one
# str, encoded whole and written at once. The streamed files must be these bytes.
def _joined_trec_run(runs, path, tag):
    lines = []
    for qid in runs:
        for rank, (doc_id, score) in enumerate(runs[qid], start=1):
            lines.append(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
    path.write_bytes("".join(lines).encode("utf-8"))


def _joined_jsonl(records, path):
    lines = (jsonl_line(util._plan(type(r)).dump(r)) for r in records)
    path.write_bytes("".join(lines).encode("utf-8"))


TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)  # any text UTF-8 can hold
NONEMPTY = TEXT.filter(bool)
SCORE = st.one_of(st.sampled_from([0.0, -0.0, -1.5, -1e-7, 1e-7, 2.5e6]), st.floats(-1e3, 1e3))
HITS = st.lists(st.tuples(TEXT, SCORE), max_size=4).map(
    lambda hits: RankedHits(ids=[doc_id for doc_id, _ in hits], scores=[score for _, score in hits])
)


@settings(max_examples=200, deadline=None)
@given(runs=st.dictionaries(TEXT, HITS, max_size=5), tag=st.sampled_from(["hyde", "dense", "标签"]))
def test_streamed_trec_run_is_the_joined_bytes(tmp_path_factory, runs, tag):
    root = tmp_path_factory.mktemp("trec")
    write_trec_run(runs.items(), root / "streamed.trec", tag=tag)
    _joined_trec_run(runs, root / "joined.trec", tag)
    assert (root / "streamed.trec").read_bytes() == (root / "joined.trec").read_bytes()


RECORDS = st.lists(
    st.one_of(
        st.builds(_CorpusRecord, TEXT, TEXT, st.one_of(st.none(), TEXT)),
        # a triplet's free-form meta is written as it is
        st.builds(
            _TripletRecord,
            NONEMPTY,
            NONEMPTY,
            NONEMPTY,
            st.lists(NONEMPTY, max_size=2),
            st.dictionaries(TEXT, st.one_of(TEXT, SCORE, st.lists(SCORE, max_size=2)), max_size=3),
        ),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(records=RECORDS)
def test_streamed_jsonl_is_the_joined_bytes(tmp_path_factory, records):
    root = tmp_path_factory.mktemp("jsonl")
    write_jsonl(root / "streamed.jsonl", records)
    _joined_jsonl(records, root / "joined.jsonl")
    assert (root / "streamed.jsonl").read_bytes() == (root / "joined.jsonl").read_bytes()


_REMOTES = {
    "embedder": (
        lambda **settings: RemoteEmbedderClient("http://emb.invalid", "m", 2, **settings),
        lambda client: embed_texts(client, ["a"]),
        {"data": [{"embedding": [1.0, 0.0]}]},
    ),
    "generator": (
        lambda **settings: RemoteGeneratorClient("http://gen.invalid", "m", **settings),
        lambda client: generate(client, "hi"),
        {"choices": [{"message": {"content": "ok"}}]},
    ),
}


@pytest.mark.parametrize("remote", sorted(_REMOTES))
def test_remote_clients_share_one_transport(remote, monkeypatch):
    make, call, ok = _REMOTES[remote]
    for api_key, headers in ((None, {}), ("", {}), ("k", {"Authorization": "Bearer k"})):
        session = StubEndpoint(ok)
        call(make(api_key=api_key, session=session))
        assert session.headers == [headers]

    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    session = StubEndpoint(ok, status_code=503)
    with pytest.raises(TransportError) as excinfo:
        call(make(max_retries=3, backoff=0.5, session=session))
    assert excinfo.value.attempts == 4
    assert len(session.headers) == 4
    assert waits == [0.5, 1.0, 2.0]

    session = StubEndpoint(None)
    with pytest.raises(ProtocolError, match="malformed"):
        call(make(max_retries=3, session=session))
    assert len(session.headers) == 1


@pytest.mark.parametrize("remote", sorted(_REMOTES))
@pytest.mark.parametrize(
    "status, retry_after, expected",
    [
        (429, "3", [3.0, 3.0, 3.0]),  # longer than every step of the schedule
        (503, "1.5", [1.5, 1.5, 2.0]),  # the larger of the two at each step
        (503, "0", [0.5, 1.0, 2.0]),
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0, 2.0]),  # an HTTP date keeps the schedule
        (429, None, [0.5, 1.0, 2.0]),
        (429, "-4", [0.5, 1.0, 2.0]),
        (500, "3", [0.5, 1.0, 2.0]),  # only a 429 or a 503 is asked about
    ],
)
def test_a_numeric_retry_after_stretches_the_wait(remote, status, retry_after, expected, monkeypatch):
    make, call, ok = _REMOTES[remote]
    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    reply = {} if retry_after is None else {"Retry-After": retry_after}
    session = StubEndpoint(ok, status_code=status, reply_headers=reply)
    with pytest.raises(TransportError) as excinfo:
        call(make(max_retries=3, backoff=0.5, session=session))
    assert excinfo.value.attempts == 4
    assert waits == expected


@pytest.mark.parametrize("remote", sorted(_REMOTES))
@pytest.mark.parametrize("status", [400, 401, 404, 408, 429, 500, 503])
def test_only_timeouts_rate_limits_and_server_errors_are_retried(remote, status, monkeypatch):
    make, call, ok = _REMOTES[remote]
    monkeypatch.setattr(time, "sleep", lambda seconds: None)
    session = StubEndpoint(ok, status_code=status)
    if status in (408, 429) or status >= 500:
        with pytest.raises(TransportError) as excinfo:
            call(make(max_retries=3, session=session))
        assert excinfo.value.attempts == 4
        assert len(session.headers) == 4
    else:
        with pytest.raises(ProtocolError, match=f"HTTP {status}, a client error"):
            call(make(max_retries=3, session=session))
        assert len(session.headers) == 1
