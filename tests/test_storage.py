"""Tests for local storage, the storage server, and the NFS-like mount."""

import threading
import time

import pytest

from repro.net.emulation import NetworkProfile
from repro.storage.localfs import LocalStorage
from repro.storage.nfs import NFSError, NFSMount
from repro.storage.server import StorageServer


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "a.bin").write_bytes(bytes(range(256)) * 4)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.bin").write_bytes(b"nested")
    return tmp_path


# -- LocalStorage ---------------------------------------------------------------


def test_local_read_at(tree):
    fs = LocalStorage(tree)
    assert fs.read_at("a.bin", 0, 4) == bytes([0, 1, 2, 3])
    assert fs.read_at("a.bin", 256, 2) == bytes([0, 1])


def test_local_size_and_exists(tree):
    """A file's size and existence, as the one read sees them."""
    fs = LocalStorage(tree)
    assert len(fs.read_at("a.bin", 0, 4096)) == 1024
    with pytest.raises(FileNotFoundError):
        fs.read_at("missing.bin", 0, 1)


def test_local_stats_accounting(tree):
    fs = LocalStorage(tree)
    fs.read_at("a.bin", 0, 100)
    fs.read_at("a.bin", 1000, 100)  # a short read counts the bytes it got
    assert fs.stats.snapshot() == {"reads": 2, "bytes_read": 124}


def test_local_escape_rejected(tree):
    fs = LocalStorage(tree)
    with pytest.raises(PermissionError):
        fs.read_at("../etc/passwd", 0, 10)


def test_local_invalid_read_params(tree):
    fs = LocalStorage(tree)
    with pytest.raises(ValueError):
        fs.read_at("a.bin", -1, 10)


def test_local_root_must_be_dir(tree):
    with pytest.raises(NotADirectoryError):
        LocalStorage(tree / "a.bin")


# -- StorageServer + NFSMount -----------------------------------------------------


@pytest.fixture
def server(tree):
    srv = StorageServer(str(tree))
    yield srv
    srv.close()


def test_nfs_roundtrip(server, tree):
    mount = NFSMount("127.0.0.1", server.port)
    assert mount.read_at("a.bin", 0, 8) == bytes(range(8))
    assert mount.read_at("sub/b.bin", 0, 64) == b"nested"
    mount.close()


def test_nfs_error_propagates(server):
    mount = NFSMount("127.0.0.1", server.port)
    with pytest.raises(NFSError):
        mount.read_at("no-such-file.bin", 0, 1)
    mount.close()


def test_nfs_stats(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.read_at("a.bin", 0, 10)
    assert mount.stats.snapshot() == {"reads": 1, "bytes_read": 10}
    mount.close()


def test_nfs_concurrent_reads(server):
    mount = NFSMount("127.0.0.1", server.port, pool_size=4)
    results = []
    lock = threading.Lock()

    def worker(off):
        data = mount.read_at("a.bin", off, 16)
        with lock:
            results.append((off, data))

    threads = [threading.Thread(target=worker, args=(i * 16,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for off, data in results:
        assert data == bytes((off + j) % 256 for j in range(16))
    mount.close()


def test_nfs_rtt_cost_per_operation(tree):
    """Every op pays ~RTT: N sequential reads over a 40 ms RTT mount take
    >= N * RTT — the baseline-loader failure mode the paper measures."""
    profile = NetworkProfile("test", rtt_s=0.04)
    srv = StorageServer(str(tree), profile=profile)
    mount = NFSMount("127.0.0.1", srv.port, profile=profile, pool_size=1)
    mount.read_at("a.bin", 0, 1)  # warm up connection
    start = time.monotonic()
    for i in range(5):
        mount.read_at("a.bin", i, 1)
    elapsed = time.monotonic() - start
    assert elapsed >= 5 * 0.04 * 0.9
    mount.close()
    srv.close()


def test_nfs_parallel_reads_overlap_rtt(tree):
    """With a connection pool, K concurrent reads overlap their RTTs."""
    profile = NetworkProfile("test", rtt_s=0.05)
    srv = StorageServer(str(tree), profile=profile)
    mount = NFSMount("127.0.0.1", srv.port, profile=profile, pool_size=8)
    mount.read_at("a.bin", 0, 1)
    start = time.monotonic()
    threads = [
        threading.Thread(target=mount.read_at, args=("a.bin", i, 1)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    # 8 overlapped RTTs of 50 ms must finish well under 8 * 50 ms.
    assert elapsed < 0.25
    mount.close()
    srv.close()


def test_server_request_counter(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.read_at("a.bin", 0, 1)
    mount.read_at("a.bin", 1, 1)
    deadline = time.monotonic() + 2
    while server.requests_served < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.requests_served >= 2
    mount.close()


def test_mount_pool_size_validation(server):
    with pytest.raises(ValueError):
        NFSMount("127.0.0.1", server.port, pool_size=0)


def test_mount_closed_rejects_ops(server):
    mount = NFSMount("127.0.0.1", server.port)
    mount.close()
    with pytest.raises(RuntimeError):
        mount.read_at("a.bin", 0, 1)


def test_server_answers_malformed_requests_and_keeps_serving(server):
    """Every frame that is not a well-typed ``read`` gets an error reply on
    the same connection, which then still serves a good read."""
    from repro.net.channel import connect_channel
    from repro.serialize.msgpack import packb, unpackb

    def read(**fields):
        return packb({"op": "read", "path": "a.bin", "offset": 0, "nbytes": 4, **fields})

    malformed = [
        packb([1, 2]),  # decodes to a list, not a map
        read(offset="0"),
        read(path=5),
        read(nbytes=-1),
        read(offset=True),
        read(offset=2**64 - 1),  # well-typed, but past what pread takes
        read(nbytes=2**62),  # a buffer no allocation can satisfy
        packb({"op": "read", "path": "a.bin"}),  # fields missing
        packb({"op": "delete", "path": "a.bin"}),  # read is the only op
        packb({}),
        b"\xc1",  # a tag msgpack never uses
        b"\x81\xa1a",  # truncated map
        b"\xa2\xff\xfe",  # a str that is not UTF-8
        b"\x91" * 100_000 + b"\x01",  # nested past the decoder's recursion
    ]
    chan = connect_channel("127.0.0.1", server.port)
    try:
        for frame in malformed:
            chan.send(frame)
            resp = unpackb(chan.recv())
            assert resp["ok"] is False and resp["error"], frame[:16]
        chan.send(read())
        assert unpackb(chan.recv()) == {"ok": True, "data": bytes([0, 1, 2, 3])}
    finally:
        chan.close()
    mount = NFSMount("127.0.0.1", server.port)
    assert mount.read_at("a.bin", 4, 2) == bytes([4, 5])
    mount.close()
