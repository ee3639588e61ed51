import threading

import pytest

from slhyde import util
from slhyde.util import atomic_write_bytes


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
