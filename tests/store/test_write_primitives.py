"""Invalidation and run commits as backend primitives, on both backends.

A warm, unedited check invalidates nothing and commits one run record; the
store must then write nothing for the invalidation and one record for the
commit — locally and through ``repro store serve``.  What these tests pin:

* a no-op invalidation leaves ``entries.jsonl`` (inode, ``mtime_ns``) and
  the ``.lock`` generation untouched, and a sqlite file's
  ``PRAGMA data_version`` unchanged as seen from a second connection;
* the jsonl backend's cache of what it last read notices writes it did not
  make: a second backend bumping the generation, or an edit made outside
  the lock altogether;
* the append-only run log past its trim point: contiguous sequence numbers,
  readers see exactly the last ``MAX_RUN_RECORDS`` records, ``runs.jsonl``
  never holds more than twice that, and ``gc`` sweeps what
  :func:`sweep_unreferenced` computes on the trimmed log;
* ``gc`` rejects a ``keep_last`` the run log cannot honour.
"""

import sqlite3
import threading

import pytest

from repro.store.backends import (
    MAX_RUN_RECORDS,
    JsonlStoreBackend,
    StoreEntry,
    open_backend,
)
from repro.store.obligation_store import ObligationStore, sweep_unreferenced
from repro.store.remote import RemoteStoreBackend, RemoteStoreError
from repro.store.server import StoreHTTPServer, StoreService


def _entry(fp, *, env="env1", spec="s1", method="insert", library="l1"):
    return StoreEntry(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method=method,
        spec=spec,
        library=library,
        cost={"wall": 0.125},
    )


@pytest.fixture
def server(store_path):
    service = StoreService(store_path)
    httpd = StoreHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    thread.join()
    httpd.server_close()
    service.close()


@pytest.fixture
def client(server):
    return RemoteStoreBackend(server.url)


class _WriteWatcher:
    """Did anything write the store since construction?

    jsonl: ``entries.jsonl``'s inode and ``mtime_ns`` and the ``.lock``
    generation; sqlite: ``PRAGMA data_version`` on a second connection,
    which moves whenever another connection commits a change.
    """

    def __init__(self, store_path, backend):
        self.store_path = store_path
        self.conn = sqlite3.connect(store_path) if backend == "sqlite" else None
        self.before = self._witness()

    def _witness(self):
        if self.conn is not None:
            return self.conn.execute("PRAGMA data_version").fetchone()[0]
        entries = (self.store_path / "entries.jsonl").stat()
        lock = (self.store_path / ".lock").read_bytes()
        return entries.st_ino, entries.st_mtime_ns, lock

    def changed(self):
        return self._witness() != self.before

    def close(self):
        if self.conn is not None:
            self.conn.close()


def _on_disk(store_path):
    backend = open_backend(store_path)
    try:
        return backend.load(wipe_mismatch=False)
    finally:
        backend.close()


# -- no-op invalidation writes nothing ------------------------------------------------


def test_a_no_op_invalidation_writes_nothing_locally(store_path, store_backend):
    backend = open_backend(store_path)
    backend.load()
    backend.append_entries([_entry("f1"), _entry("f2", method="mem", spec="m1")])
    watcher = _WriteWatcher(store_path, store_backend)
    try:
        assert backend.invalidate("Set/KVStore", "insert", "s1", "l1") == 0
        assert backend.invalidate("Other/Scope", "insert", "edited", "l9") == 0
        assert not watcher.changed()
        # an invalidation that does drop something is a real write
        assert backend.invalidate("Set/KVStore", "insert", "s1-edited", "l1") == 1
        assert watcher.changed()
    finally:
        backend.close()
        watcher.close()
    assert {fp for _env, fp in _on_disk(store_path).entries} == {"f2"}


def test_a_no_op_invalidation_writes_nothing_through_the_server(
    store_path, store_backend, client
):
    client.append_entries([_entry("f1"), _entry("f2", method="mem", spec="m1")])
    watcher = _WriteWatcher(store_path, store_backend)
    try:
        for _ in range(3):
            assert client.invalidate("Set/KVStore", "insert", "s1", "l1") == 0
        assert not watcher.changed()
    finally:
        watcher.close()
    assert {e.fp for e in client.lookup("env1", ["f1", "f2"])} == {"f1", "f2"}


def test_the_server_invalidates_entries_appended_behind_its_back(
    store_path, client
):
    client.append_entries([_entry("served")])
    # prime whatever the server's backend caches of the entry log
    assert client.invalidate("Set/KVStore", "insert", "s1", "l1") == 0

    behind = open_backend(store_path)
    try:
        behind.append_entries([_entry("sneaked", spec="old-spec")])
    finally:
        behind.close()

    assert client.invalidate("Set/KVStore", "insert", "s1", "l1") == 1
    assert set(_on_disk(store_path).entries) == {("env1", "served")}, (
        "the stale entry another process appended must be dropped on disk"
    )


def test_the_generation_alone_invalidates_the_jsonl_cache(tmp_path, monkeypatch):
    # file stamps that cannot tell two versions apart (a coarse-timestamp
    # filesystem at its worst): only the .lock generation can give it away
    monkeypatch.setattr("repro.store.backends._stamp", lambda _st: (0, 0, 0))
    cached = JsonlStoreBackend(tmp_path)
    cached.load()
    cached.append_entries([_entry("kept")])
    assert cached.invalidate("Set/KVStore", "insert", "s1", "l1") == 0

    JsonlStoreBackend(tmp_path).append_entries([_entry("sneaked", spec="old-spec")])

    assert cached.invalidate("Set/KVStore", "insert", "s1", "l1") == 1
    assert set(_on_disk(tmp_path).entries) == {("env1", "kept")}


def test_the_jsonl_cache_notices_an_edit_outside_the_lock(tmp_path):
    backend = JsonlStoreBackend(tmp_path)
    backend.load()
    backend.append_entries([_entry("kept")])
    assert backend.invalidate("Set/KVStore", "insert", "s1", "l1") == 0
    generation = (tmp_path / ".lock").read_bytes()

    # a writer that neither locks nor bumps the generation
    with open(tmp_path / "entries.jsonl", "a") as log:
        log.write(_entry("edited-in", spec="old-spec").to_json() + "\n")
    assert (tmp_path / ".lock").read_bytes() == generation

    assert backend.invalidate("Set/KVStore", "insert", "s1", "l1") == 1
    assert set(_on_disk(tmp_path).entries) == {("env1", "kept")}


def test_the_jsonl_generation_moves_on_every_locked_write(tmp_path):
    backend = JsonlStoreBackend(tmp_path)
    backend.load()

    def generation():
        return int((tmp_path / ".lock").read_bytes())

    seen = [generation()]
    backend.append_entries([_entry("f1")])
    seen.append(generation())
    backend.commit_run(["env1:f1"])
    seen.append(generation())
    backend.invalidate("Set/KVStore", "insert", "edited", "l1")
    seen.append(generation())
    backend.update(lambda entries, runs: (entries, runs))
    seen.append(generation())
    assert seen == sorted(set(seen)), f"every write bumps: {seen}"


# -- the run log past its trim point -----------------------------------------------------


COMMITS = 2 * MAX_RUN_RECORDS + 10


def _run_log_lines(store_path):
    runs_path = store_path / "runs.jsonl"
    if not runs_path.exists():
        return 0
    return sum(1 for line in runs_path.read_bytes().splitlines() if line.strip())


def test_the_run_log_past_its_trim_point(store_path, store_backend):
    backend = open_backend(store_path)
    backend.load()
    backend.append_entries([_entry(f"f{i}") for i in range(COMMITS)])
    sequences = []
    most_lines = 0
    try:
        for i in range(COMMITS):
            sequences.append(backend.commit_run([f"env1:f{i}"]))
            if store_backend == "jsonl":
                most_lines = max(most_lines, _run_log_lines(store_path))
    finally:
        backend.close()

    assert sequences == list(range(1, COMMITS + 1)), "contiguous, none reused"
    if store_backend == "jsonl":
        assert most_lines <= 2 * MAX_RUN_RECORDS
        assert most_lines > MAX_RUN_RECORDS, "the log grows between trims"

    runs = ObligationStore(store_path)._runs
    expected = [
        {"run": n, "touched": [f"env1:f{n - 1}"]}
        for n in range(COMMITS - MAX_RUN_RECORDS + 1, COMMITS + 1)
    ]
    assert runs == expected, "readers see exactly the last MAX_RUN_RECORDS runs"


@pytest.mark.parametrize("keep_last", [1, 100, MAX_RUN_RECORDS])
def test_gc_past_the_trim_point_sweeps_what_the_trimmed_log_says(
    store_path, keep_last
):
    store = ObligationStore(store_path)
    store.backend.append_entries([_entry(f"f{i}") for i in range(COMMITS)])
    for i in range(COMMITS):
        store.backend.commit_run([f"env1:f{i}", f"env1:f{i // 2}"])

    state = _on_disk(store_path)
    _, _, expected_stale = sweep_unreferenced(dict(state.entries), state.runs, keep_last)

    sweeper = ObligationStore(store_path)
    assert sweeper.gc(keep_last) == len(expected_stale)
    survivors = set(_on_disk(store_path).entries)
    assert survivors == set(state.entries) - set(expected_stale)
    assert len(ObligationStore(store_path)._runs) == keep_last


# -- gc --keep-last bounds -------------------------------------------------------------


def test_gc_rejects_keep_last_beyond_the_run_log(store_path):
    store = ObligationStore(store_path)
    store.record(_entry("f1"))
    store.commit_run()
    with pytest.raises(ValueError, match=str(MAX_RUN_RECORDS)):
        store.gc(MAX_RUN_RECORDS + 1)
    assert store.gc(MAX_RUN_RECORDS) == 0


def test_the_server_rejects_keep_last_beyond_the_run_log(server, client):
    with pytest.raises(ValueError):
        server.service.execute("gc", {"keep_last": MAX_RUN_RECORDS + 1})
    with pytest.raises(RemoteStoreError, match="400"):
        client.gc(MAX_RUN_RECORDS + 1)
    with pytest.raises(ValueError):
        ObligationStore(server.url).gc(MAX_RUN_RECORDS + 1)


def test_the_server_counts_runs_up_to_the_log_bound(client):
    for i in range(MAX_RUN_RECORDS + 3):
        assert client.commit_run([f"env1:f{i}"]) == i + 1
    assert client.stats()["runs"] == MAX_RUN_RECORDS
