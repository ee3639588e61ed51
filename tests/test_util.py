import threading
import time

import pytest

from slhyde import util
from slhyde.embed import RemoteEmbedderClient, embed_texts
from slhyde.errors import ProtocolError, TransportError
from slhyde.textgen import RemoteGeneratorClient, generate
from slhyde.util import atomic_write_bytes

from conftest import StubEndpoint


def test_concurrent_writers_of_one_path_do_not_collide(tmp_path):
    path = tmp_path / "out.bin"
    payloads = [bytes([fill]) * (32 << 20) for fill in (1, 2)]  # 32 MB each
    for _ in range(3):
        start = threading.Barrier(2, timeout=60)
        errors = []

        def write(data):
            start.wait()
            try:
                atomic_write_bytes(path, data)
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
    atomic_write_bytes(path, b"old")

    def fail_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(util.os, "replace", fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


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
