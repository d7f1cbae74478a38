"""Pluggable persistence backends for the obligation store.

The store's transport layer is a :class:`StoreBackend`: a thin module that
owns the bytes (or rows) on disk and nothing else — entry semantics, GC and
session bookkeeping live in
:class:`~repro.store.obligation_store.ObligationStore`, which talks to its
backend through five operations:

``load(wipe_mismatch)``
    Read everything (entries, the last :data:`MAX_RUN_RECORDS` run records,
    count of skipped corrupt records), discarding wholesale on a schema-tag
    mismatch.
``append_entries(entries)``
    Durably append a batch.  Atomic with respect to concurrent appenders and
    rewriters: a reader can never observe a torn entry.
``invalidate(scope, method, spec, library) -> dropped``
    Drop the entries a spec/library edit made stale (:func:`stale_entry_keys`)
    from the **current** on-disk state, under the exclusive lock (or write
    transaction).  When nothing is stale — the warm, unedited case — nothing
    is written at all.
``commit_run(touched) -> run``
    Append one run record under the next sequence number of the run log as
    it is on disk now, so concurrent committers never share a number.
``update(fn, entries=, runs=)``
    The generic read-modify-rewrite primitive behind the rare whole-store
    operations, ``compact()`` and ``gc()``.  The backend takes an
    *exclusive* lock (or write transaction), re-reads the **current**
    on-disk state — not the caller's possibly stale open-time snapshot —
    applies ``fn`` to it, and persists the result atomically.  This is what
    makes two concurrent processes unable to silently drop each other's
    entries: any state another writer appended between our ``load()`` and
    the rewrite is re-read under the lock and flows through ``fn``.

The run log is bounded: readers always see the last :data:`MAX_RUN_RECORDS`
records, and how each backend keeps it there is decided in this module
alone.

Two backends implement the protocol:

* :class:`JsonlStoreBackend` — the original directory-of-JSON-lines layout,
  now safe under concurrent writers: every append holds an advisory
  ``flock`` on ``<dir>/.lock`` and lands as a *single* ``write()`` of the
  pre-joined batch (no interleaved partial lines), and every rewrite goes
  through tmp-file + ``fsync`` + ``os.replace`` (+ directory fsync), so a
  crash mid-compact can never truncate the store.  ``.lock`` also holds a
  *generation number* every locked mutation bumps before it writes: the
  backend keeps the entries and run log it last read or wrote itself and,
  under the lock, reuses them only while the generation and each file's
  ``(inode, size, mtime_ns)`` still match — anything else re-reads.  The
  run log is append-only (one fsynced line per commit) and is rewritten
  down to :data:`MAX_RUN_RECORDS` records only when it reaches twice that.
* :class:`SqliteStoreBackend` — one SQLite file in WAL mode with a busy
  timeout and short retry loop, entries UPSERTed on the
  ``(environment_fp, obligation_fp)`` primary key, with ``deps``/``costs``/
  ``runs`` tables mirroring the JSONL layout's dependency records, cost
  records and ``runs.jsonl``.  WAL makes readers never block writers, and
  ``BEGIN IMMEDIATE`` transactions serialise the multi-writer case the
  JSONL lock file serialises.  Invalidation finds the stale keys through
  the indexed ``deps`` table and deletes just those rows; a run commit is
  one ``INSERT`` plus a bounded ``DELETE`` of the oldest runs.

Backend selection (:func:`resolve_store_backend`): an explicit choice wins;
otherwise ``sqlite:`` URLs and ``.db``/``.sqlite``/``.sqlite3`` suffixes (or
an existing plain file) mean sqlite, an existing directory means jsonl, and
for a fresh unsuffixed path the ``REPRO_STORE_BACKEND`` environment variable
decides, defaulting to jsonl.  :func:`migrate_store` converts a store either
direction losslessly (entries with all counters/witnesses/cost records, plus
the run log verbatim).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

try:  # pragma: no cover - always present on POSIX, the supported platform
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..obs import trace
from ..obs.logs import get_logger

logger = get_logger("store")

#: Store layout version; entries under another tag are discarded on open.
SCHEMA_VERSION = "pymarple-store-v1"

#: The names a backend can be requested by; ``auto`` defers to the path.
KNOWN_STORE_BACKENDS = ("jsonl", "sqlite")

_ENTRIES = "entries.jsonl"
_META = "meta.json"
_RUNS = "runs.jsonl"
_SHARD_DIR = "shards"
_LOCK = ".lock"
_SQLITE_SUFFIXES = {".db", ".sqlite", ".sqlite3"}

#: readers see (and ``gc --keep-last`` can reach back over) at most this many
#: most-recent run records
MAX_RUN_RECORDS = 256


@dataclass
class StoreEntry:
    """One discharged obligation: verdict, witness trace and counter dicts."""

    env: str
    fp: str
    included: bool
    counterexample: Optional[list[str]] = None
    error: Optional[str] = None
    solver_stats: dict = field(default_factory=dict)
    inclusion_stats: dict = field(default_factory=dict)
    scope: str = ""
    method: str = ""
    spec: str = ""
    library: str = ""
    kind: str = ""
    provenance: str = ""
    #: the discharge cost record (``{"wall": seconds, ...}``) behind the
    #: cost-model scheduler.  Deliberately *outside* the content address and
    #: the deterministic tables: it is a measurement, not a semantic fact —
    #: advisory across environments (a dpll-warmed store still orders a cdcl
    #: run sensibly) and free to vary run to run.
    cost: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.env, self.fp)

    @property
    def wall_cost(self) -> Optional[float]:
        """The recorded wall-clock discharge cost in seconds, if any."""
        wall = self.cost.get("wall")
        return float(wall) if isinstance(wall, (int, float)) else None

    def to_record(self) -> dict:
        """The JSON-able record shape shared by the log lines and the wire."""
        return {
            "env": self.env,
            "fp": self.fp,
            "inc": self.included,
            "cex": self.counterexample,
            "err": self.error,
            "sol": self.solver_stats,
            "fa": self.inclusion_stats,
            "scope": self.scope,
            "method": self.method,
            "spec": self.spec,
            "lib": self.library,
            "kind": self.kind,
            "prov": self.provenance,
            "cost": self.cost,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StoreEntry":
        return cls.from_record(json.loads(line))

    @classmethod
    def from_record(cls, obj: object) -> "StoreEntry":
        if not isinstance(obj, dict):
            raise ValueError(f"store entry must be a JSON object, got {type(obj).__name__}")
        return cls(
            env=obj["env"],
            fp=obj["fp"],
            included=bool(obj["inc"]),
            counterexample=obj.get("cex"),
            error=obj.get("err"),
            solver_stats=obj.get("sol") or {},
            inclusion_stats=obj.get("fa") or {},
            scope=obj.get("scope", ""),
            method=obj.get("method", ""),
            spec=obj.get("spec", ""),
            library=obj.get("lib", ""),
            kind=obj.get("kind", ""),
            provenance=obj.get("prov", ""),
            cost=obj.get("cost") or {},
        )


#: Exceptions a corrupt persisted record may raise while being decoded; the
#: skip-and-count tolerance paths catch exactly these (a torn multi-byte
#: UTF-8 sequence raises UnicodeDecodeError, a ValueError subclass; a JSON
#: value of the wrong shape raises KeyError or TypeError).
ENTRY_DECODE_ERRORS = (ValueError, KeyError, TypeError)


@dataclass
class LoadedState:
    """What a backend read: live entries, the run log, skipped corrupt lines."""

    entries: dict[tuple[str, str], StoreEntry]
    runs: list[dict]
    skipped: int = 0


def _decode_entry_lines(raw: bytes) -> tuple[dict[tuple[str, str], StoreEntry], int]:
    """Parse a JSON-lines blob; last line per key wins, corrupt lines skipped.

    Decoding happens per line (bytes → UTF-8 → JSON) so one torn line — a
    killed writer's partial append, or a truncated shard file — costs exactly
    that line, never the whole file.
    """
    entries: dict[tuple[str, str], StoreEntry] = {}
    skipped = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            entry = StoreEntry.from_json(line.decode("utf-8"))
        except ENTRY_DECODE_ERRORS:
            skipped += 1
            continue
        entries[entry.key] = entry
    return entries, skipped


def _decode_run_lines(raw: bytes) -> tuple[list[dict], int]:
    """Parse the run log: ``(valid records, non-blank lines)``.

    Malformed records are dropped; the line count tells a caller whether the
    file holds any (it then differs from the number of records).
    """
    runs: list[dict] = []
    lines = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        lines += 1
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            continue
        if (
            isinstance(record, dict)
            and isinstance(record.get("touched"), list)
            and isinstance(record.get("run"), int)
        ):
            runs.append(record)
    return runs, lines


def stale_entry_keys(
    entries: dict[tuple[str, str], StoreEntry],
    scope: str,
    method: str,
    spec_digest: str,
    library_digest: str,
) -> list[tuple[str, str]]:
    """Keys a spec/library edit invalidates.

    An entry of ``scope`` is stale when the benchmark's library digest
    changed (every method's obligations sat on its axioms and alphabets) or
    when it belongs to ``method`` and that method's spec digest changed.
    Entries of other scopes never are.
    """
    return [
        key
        for key, entry in entries.items()
        if entry.scope == scope
        and (
            entry.library != library_digest
            or (entry.method == method and entry.spec != spec_digest)
        )
    ]


@contextmanager
def _flocked(lock_path: Path) -> Iterator[Optional[int]]:
    """Hold an exclusive advisory lock on ``lock_path``; yields its fd.

    Best-effort no-op where ``fcntl`` is unavailable (non-POSIX) — there the
    store degrades to its historical single-writer guarantees, and yields
    ``None``.
    """
    if fcntl is None:  # pragma: no cover
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        yield None
        return
    try:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    except FileNotFoundError:
        # first use of the store: create its directory (off the hot path —
        # every later lock is one open)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        # spanned separately from the critical section: under writer
        # contention this is pure queueing time, the number the trace needs
        # to distinguish "store is slow" from "store is fought over"
        with trace.span("store.lock_wait", cat="store"):
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _read_generation(lock_fd: Optional[int]) -> Optional[int]:
    """The generation number held in the (locked) ``.lock`` file.

    ``None`` without a lock: nothing cached may then be trusted.
    """
    if lock_fd is None:  # pragma: no cover - non-POSIX
        return None
    raw = os.pread(lock_fd, 32, 0)
    try:
        return int(raw.strip() or b"0")
    except ValueError:
        return 0


def _write_generation(lock_fd: int, generation: int) -> None:
    data = b"%d\n" % generation
    os.pwrite(lock_fd, data, 0)
    os.ftruncate(lock_fd, len(data))


FileStamp = Optional[tuple[int, int, int]]


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _path_stamp(path: Path) -> FileStamp:
    """``(inode, size, mtime_ns)`` of ``path``, or ``None`` when it is absent."""
    try:
        return _stamp(os.stat(path))
    except FileNotFoundError:
        return None


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash leaves either old or new bytes.

    The tmp file is fsynced *before* ``os.replace`` — without it a crash
    between the (atomic) rename and the data reaching disk can surface the
    new inode empty, truncating the store.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def append_jsonl_batch(path: Path, lines: Sequence[str]) -> None:
    """Durably append pre-serialised lines as one ``write()``.

    A single ``O_APPEND`` write of the joined batch is what keeps concurrent
    appenders from interleaving partial lines; callers that share the file
    additionally serialise through the store lock.
    """
    if not lines:
        return
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def _purge_shard_files(shard_dir: Path) -> None:
    if not shard_dir.is_dir():
        return
    for shard_file in shard_dir.glob("shard-*.jsonl"):
        shard_file.unlink()


class JsonlStoreBackend:
    """The directory-of-JSON-lines layout, with advisory-locked writes.

    ``<dir>/meta.json`` carries the schema tag, ``<dir>/entries.jsonl`` the
    append-only entry log (last line per key wins), ``<dir>/runs.jsonl`` the
    append-only GC reference trail, ``<dir>/shards/`` the transient shard
    outputs and ``<dir>/.lock`` the advisory lock every append and rewrite
    holds, plus the generation number they bump.
    """

    name = "jsonl"
    #: local backends execute ``update(fn)`` closures in-process; the remote
    #: backend cannot (a closure does not cross the wire) and exposes the
    #: store-level operations instead
    supports_update = True

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        if self.path.is_file():
            raise ValueError(
                f"store path {str(self.path)!r} is a file; the jsonl backend "
                "needs a directory (did you mean the sqlite backend?)"
            )
        self.shard_dir = self.path / _SHARD_DIR
        #: file name -> (generation, stamp, decoded contents) as this
        #: instance last read or wrote it; trusted under the lock only while
        #: both the generation and the file's stamp still match.  The decoded
        #: contents are never handed out — callers get copies.
        self._snapshots: dict[str, tuple[Optional[int], FileStamp, object]] = {}

    def _lock(self):
        return _flocked(self.path / _LOCK)

    # -- the decoded-file cache (call with the lock held) -------------------------
    def _fresh(self, name: str, generation: Optional[int]):
        """The cached contents of ``name`` if nothing changed it since, else None."""
        cached = self._snapshots.get(name)
        if generation is None or cached is None or cached[0] != generation:
            return None
        if cached[1] != _path_stamp(self.path / name):
            return None  # edited without bumping the generation
        return cached[2]

    def _read(self, name: str, generation: Optional[int], decode: Callable):
        """The decoded contents of ``name``: the cached copy, or a re-read."""
        value = self._fresh(name, generation)
        if value is not None:
            return value
        try:
            with open(self.path / name, "rb") as handle:
                stamp: FileStamp = _stamp(os.fstat(handle.fileno()))
                value = decode(handle.read())
        except FileNotFoundError:
            stamp, value = None, decode(b"")
        self._snapshots[name] = (generation, stamp, value)
        return value

    def _bump(self, lock_fd: Optional[int], generation: Optional[int]) -> Optional[int]:
        """Advance the generation before a locked write; returns the new one.

        Snapshots valid at the old generation stay valid at the new one — we
        hold the lock, so the only change to come is our own write, which
        replaces (or drops) the snapshot of the file it touches.
        """
        if lock_fd is None or generation is None:  # pragma: no cover - non-POSIX
            self._snapshots.clear()
            return None
        bumped = generation + 1
        _write_generation(lock_fd, bumped)
        for name, (seen, stamp, value) in list(self._snapshots.items()):
            if seen == generation:
                self._snapshots[name] = (bumped, stamp, value)
        return bumped

    def _wrote(self, name: str, generation: Optional[int], value: object) -> None:
        self._snapshots[name] = (generation, _path_stamp(self.path / name), value)

    def _write_entries(
        self, generation: Optional[int], entries: dict[tuple[str, str], StoreEntry]
    ) -> None:
        _atomic_write(
            self.path / _ENTRIES,
            "".join(e.to_json() + "\n" for e in entries.values()).encode(),
        )
        self._wrote(_ENTRIES, generation, (entries, 0))

    def _write_runs(self, generation: Optional[int], runs: list[dict]) -> None:
        runs_path = self.path / _RUNS
        if runs:
            _atomic_write(
                runs_path,
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in runs).encode(),
            )
        elif runs_path.exists():
            runs_path.unlink()
        self._wrote(_RUNS, generation, (runs, len(runs)))

    # -- the backend protocol -----------------------------------------------------
    def load(self, *, wipe_mismatch: bool = True) -> LoadedState:
        with self._lock() as lock_fd:
            generation = _read_generation(lock_fd)
            meta_path = self.path / _META
            schema: Optional[str] = None
            if meta_path.exists():
                try:
                    schema = json.loads(meta_path.read_text()).get("schema")
                except (OSError, ValueError):
                    schema = None
            if schema != SCHEMA_VERSION:
                # Unknown or missing schema: never reinterpret old entries —
                # and that includes leftover shard files from an interrupted
                # sharded run, which absorb_shards would otherwise merge later
                if not wipe_mismatch:
                    return LoadedState({}, [])
                self._bump(lock_fd, generation)
                self._snapshots.clear()
                for name in (_ENTRIES, _RUNS):
                    stale = self.path / name
                    if stale.exists():
                        stale.unlink()
                _purge_shard_files(self.shard_dir)
                _atomic_write(
                    meta_path, (json.dumps({"schema": SCHEMA_VERSION}) + "\n").encode()
                )
                return LoadedState({}, [])
            entries, skipped = self._read(_ENTRIES, generation, _decode_entry_lines)
            runs, _lines = self._read(_RUNS, generation, _decode_run_lines)
            return LoadedState(dict(entries), runs[-MAX_RUN_RECORDS:], skipped)

    def append_entries(self, entries: Sequence[StoreEntry]) -> None:
        if not entries:
            return
        with self._lock() as lock_fd:
            generation = _read_generation(lock_fd)
            cached = self._fresh(_ENTRIES, generation)
            generation = self._bump(lock_fd, generation)
            append_jsonl_batch(self.path / _ENTRIES, [e.to_json() for e in entries])
            if cached is None:
                self._snapshots.pop(_ENTRIES, None)
                return
            known, skipped = cached
            for entry in entries:
                known[entry.key] = entry
            self._wrote(_ENTRIES, generation, (known, skipped))

    def invalidate(
        self, scope: str, method: str, spec_digest: str, library_digest: str
    ) -> int:
        """Drop the stale entries on disk; rewrites only if any are stale."""
        with self._lock() as lock_fd:
            generation = _read_generation(lock_fd)
            entries, _skipped = self._read(_ENTRIES, generation, _decode_entry_lines)
            stale = set(
                stale_entry_keys(entries, scope, method, spec_digest, library_digest)
            )
            if not stale:
                return 0
            generation = self._bump(lock_fd, generation)
            self._write_entries(
                generation,
                {key: entry for key, entry in entries.items() if key not in stale},
            )
            return len(stale)

    def commit_run(self, touched: Sequence[str]) -> int:
        """Append one run record; returns its sequence number.

        One fsynced line per commit.  The file is rewritten — down to the
        last :data:`MAX_RUN_RECORDS` records — only when it reaches twice
        that many lines, or when it holds malformed lines to shed.
        """
        with self._lock() as lock_fd:
            generation = _read_generation(lock_fd)
            runs, lines = self._read(_RUNS, generation, _decode_run_lines)
            sequence = (runs[-1]["run"] + 1) if runs else 1
            record = {"run": sequence, "touched": list(touched)}
            generation = self._bump(lock_fd, generation)
            runs = runs + [record]
            if lines != len(runs) - 1 or len(runs) >= 2 * MAX_RUN_RECORDS:
                self._write_runs(generation, runs[-MAX_RUN_RECORDS:])
            else:
                append_jsonl_batch(self.path / _RUNS, [json.dumps(record, sort_keys=True)])
                self._wrote(_RUNS, generation, (runs, len(runs)))
            return sequence

    def update(
        self,
        fn: Callable[
            [dict[tuple[str, str], StoreEntry], list[dict]],
            tuple[dict[tuple[str, str], StoreEntry], list[dict]],
        ],
        *,
        entries: bool = True,
        runs: bool = True,
    ) -> LoadedState:
        """Exclusive read-modify-rewrite of the current on-disk state.

        ``fn`` receives the state as re-read *under the lock* — never the
        caller's open-time snapshot — so entries appended by another process
        since then survive the rewrite.  ``entries=False``/``runs=False``
        skip reading and rewriting that half (``fn`` then sees it empty).
        """
        with self._lock() as lock_fd:
            generation = _read_generation(lock_fd)
            disk_entries: dict[tuple[str, str], StoreEntry] = {}
            skipped = 0
            if entries:
                cached, skipped = self._read(_ENTRIES, generation, _decode_entry_lines)
                disk_entries = dict(cached)
            disk_runs: list[dict] = []
            if runs:
                disk_runs = self._read(_RUNS, generation, _decode_run_lines)[0][
                    -MAX_RUN_RECORDS:
                ]
            new_entries, new_runs = fn(disk_entries, disk_runs)
            generation = self._bump(lock_fd, generation)
            if entries:
                self._write_entries(generation, dict(new_entries))
            if runs:
                self._write_runs(generation, list(new_runs))
            return LoadedState(new_entries, new_runs, skipped)

    def close(self) -> None:
        pass


class SqliteStoreBackend:
    """One SQLite file in WAL mode; entries UPSERTed on ``(env, fp)``.

    Tables mirror the JSONL layout record for record: ``entries`` holds the
    verdict/witness/counter columns, ``deps`` the per-entry dependency record
    invalidation filters on, ``costs`` the advisory cost records behind the
    scheduler, ``runs`` the GC reference trail and ``meta`` the schema tag.
    Write transactions open with ``BEGIN IMMEDIATE`` under a busy timeout
    plus a short exponential-backoff retry loop, so N concurrent writer
    processes serialise instead of failing or corrupting; WAL keeps readers
    from ever blocking them.  Shard workers still write transient JSONL files
    (next to the database, in ``<file>.shards/``) — only the merged log is
    relational.
    """

    name = "sqlite"
    supports_update = True

    #: how long a writer waits for a competing transaction before retrying
    busy_timeout_ms = 10_000
    _begin_attempts = 8

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise ValueError(
                f"store path {str(self.path)!r} is a directory; the sqlite "
                "backend needs a file (did you mean the jsonl backend?)"
            )
        self.shard_dir = self.path.parent / (self.path.name + ".shards")
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management ----------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # isolation_level=None: autocommit, transactions opened explicitly.
            # check_same_thread=False: the store server executes ops on HTTP
            # worker threads but serialises every one under its own lock, and
            # in-process callers never share a backend across threads anyway
            conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout_ms / 1000.0,
                isolation_level=None,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._conn = conn
        return self._conn

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """A write transaction, retried with backoff while the db is busy."""
        conn = self._connect()
        delay = 0.005
        # the whole BEGIN loop is one span: its duration is exactly the
        # busy-retry time a contended writer spends queueing for the db
        with trace.span("store.busy_wait", cat="store") as busy_span:
            for attempt in range(self._begin_attempts):
                try:
                    conn.execute("BEGIN IMMEDIATE")
                    break
                except sqlite3.OperationalError as exc:
                    message = str(exc).lower()
                    if "locked" not in message and "busy" not in message:
                        raise
                    if attempt == self._begin_attempts - 1:
                        raise
                    logger.debug(
                        "sqlite busy (attempt %d/%d), backing off %.3fs",
                        attempt + 1,
                        self._begin_attempts,
                        delay,
                    )
                    time.sleep(delay)
                    delay = min(delay * 2, 0.25)
            busy_span.set(attempts=attempt + 1)
        try:
            yield conn
        except BaseException as original:
            # the rollback itself can fail (dropped connection, "no
            # transaction is active" after a failed BEGIN); that failure must
            # never mask the exception that aborted the transaction
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error as rollback_exc:
                logger.debug(
                    "rollback after %r itself failed: %s", original, rollback_exc
                )
            raise
        else:
            conn.execute("COMMIT")

    # -- schema -------------------------------------------------------------------
    _TABLES = ("meta", "entries", "deps", "costs", "runs")

    #: issued one by one — ``executescript`` would implicitly COMMIT the
    #: enclosing BEGIN IMMEDIATE transaction
    _DDL = (
        """CREATE TABLE IF NOT EXISTS meta(
               key TEXT PRIMARY KEY, value TEXT NOT NULL)""",
        """CREATE TABLE IF NOT EXISTS entries(
               env TEXT NOT NULL, fp TEXT NOT NULL,
               included INTEGER NOT NULL,
               counterexample TEXT,
               error TEXT,
               solver_stats TEXT NOT NULL,
               inclusion_stats TEXT NOT NULL,
               kind TEXT NOT NULL DEFAULT '',
               provenance TEXT NOT NULL DEFAULT '',
               PRIMARY KEY (env, fp))""",
        """CREATE TABLE IF NOT EXISTS deps(
               env TEXT NOT NULL, fp TEXT NOT NULL,
               scope TEXT NOT NULL DEFAULT '',
               method TEXT NOT NULL DEFAULT '',
               spec TEXT NOT NULL DEFAULT '',
               library TEXT NOT NULL DEFAULT '',
               PRIMARY KEY (env, fp))""",
        """CREATE INDEX IF NOT EXISTS deps_scope ON deps(scope)""",
        """CREATE TABLE IF NOT EXISTS costs(
               env TEXT NOT NULL, fp TEXT NOT NULL,
               cost TEXT NOT NULL,
               PRIMARY KEY (env, fp))""",
        """CREATE TABLE IF NOT EXISTS runs(
               run INTEGER PRIMARY KEY, touched TEXT NOT NULL)""",
    )

    def _create_tables(self, conn: sqlite3.Connection) -> None:
        for statement in self._DDL:
            conn.execute(statement)

    def _reset(self, conn: sqlite3.Connection) -> None:
        for table in self._TABLES:
            conn.execute(f"DROP TABLE IF EXISTS {table}")
        self._create_tables(conn)
        conn.execute(
            "INSERT INTO meta(key, value) VALUES('schema', ?)", (SCHEMA_VERSION,)
        )

    # -- row <-> entry ------------------------------------------------------------
    _SELECT_ENTRIES = """
        SELECT e.env, e.fp, e.included, e.counterexample, e.error,
               e.solver_stats, e.inclusion_stats, e.kind, e.provenance,
               d.scope, d.method, d.spec, d.library, c.cost
        FROM entries e
        LEFT JOIN deps d ON d.env = e.env AND d.fp = e.fp
        LEFT JOIN costs c ON c.env = e.env AND c.fp = e.fp
        ORDER BY e.rowid
    """

    @staticmethod
    def _entry_from_row(row: tuple) -> StoreEntry:
        (
            env, fp, included, counterexample, error,
            solver_stats, inclusion_stats, kind, provenance,
            scope, method, spec, library, cost,
        ) = row
        return StoreEntry(
            env=env,
            fp=fp,
            included=bool(included),
            counterexample=json.loads(counterexample) if counterexample else None,
            error=error,
            solver_stats=json.loads(solver_stats) if solver_stats else {},
            inclusion_stats=json.loads(inclusion_stats) if inclusion_stats else {},
            scope=scope or "",
            method=method or "",
            spec=spec or "",
            library=library or "",
            kind=kind or "",
            provenance=provenance or "",
            cost=json.loads(cost) if cost else {},
        )

    def _read_entries(
        self, conn: sqlite3.Connection
    ) -> tuple[dict[tuple[str, str], StoreEntry], int]:
        entries: dict[tuple[str, str], StoreEntry] = {}
        skipped = 0
        for row in conn.execute(self._SELECT_ENTRIES):
            try:
                entry = self._entry_from_row(row)
            except ENTRY_DECODE_ERRORS:
                skipped += 1
                continue
            entries[entry.key] = entry
        return entries, skipped

    def _read_runs(self, conn: sqlite3.Connection) -> list[dict]:
        runs: list[dict] = []
        for run, touched in conn.execute("SELECT run, touched FROM runs ORDER BY run"):
            try:
                touched_keys = json.loads(touched)
            except ValueError:
                continue
            if isinstance(run, int) and isinstance(touched_keys, list):
                runs.append({"run": run, "touched": touched_keys})
        return runs

    def _upsert(self, conn: sqlite3.Connection, entry: StoreEntry) -> None:
        conn.execute(
            """
            INSERT INTO entries(env, fp, included, counterexample, error,
                                solver_stats, inclusion_stats, kind, provenance)
            VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT(env, fp) DO UPDATE SET
                included=excluded.included,
                counterexample=excluded.counterexample,
                error=excluded.error,
                solver_stats=excluded.solver_stats,
                inclusion_stats=excluded.inclusion_stats,
                kind=excluded.kind,
                provenance=excluded.provenance
            """,
            (
                entry.env,
                entry.fp,
                int(entry.included),
                json.dumps(entry.counterexample) if entry.counterexample is not None else None,
                entry.error,
                json.dumps(entry.solver_stats, sort_keys=True),
                json.dumps(entry.inclusion_stats, sort_keys=True),
                entry.kind,
                entry.provenance,
            ),
        )
        conn.execute(
            """
            INSERT INTO deps(env, fp, scope, method, spec, library)
            VALUES(?, ?, ?, ?, ?, ?)
            ON CONFLICT(env, fp) DO UPDATE SET
                scope=excluded.scope, method=excluded.method,
                spec=excluded.spec, library=excluded.library
            """,
            (entry.env, entry.fp, entry.scope, entry.method, entry.spec, entry.library),
        )
        conn.execute(
            """
            INSERT INTO costs(env, fp, cost) VALUES(?, ?, ?)
            ON CONFLICT(env, fp) DO UPDATE SET cost=excluded.cost
            """,
            (entry.env, entry.fp, json.dumps(entry.cost, sort_keys=True)),
        )

    # -- the backend protocol -----------------------------------------------------
    def load(self, *, wipe_mismatch: bool = True) -> LoadedState:
        with self._txn() as conn:
            self._create_tables(conn)
            row = conn.execute("SELECT value FROM meta WHERE key='schema'").fetchone()
            schema = row[0] if row else None
            if schema != SCHEMA_VERSION:
                if not wipe_mismatch:
                    return LoadedState({}, [])
                self._reset(conn)
                _purge_shard_files(self.shard_dir)
                return LoadedState({}, [])
            entries, skipped = self._read_entries(conn)
            runs = self._read_runs(conn)
            return LoadedState(entries, runs, skipped)

    def append_entries(self, entries: Sequence[StoreEntry]) -> None:
        if not entries:
            return
        with self._txn() as conn:
            for entry in entries:
                self._upsert(conn, entry)

    def invalidate(
        self, scope: str, method: str, spec_digest: str, library_digest: str
    ) -> int:
        """Delete the stale rows, found through the indexed ``deps`` table.

        The same predicate as :func:`stale_entry_keys`; when it selects
        nothing, the transaction commits without writing a page.
        """
        with self._txn() as conn:
            stale = conn.execute(
                """
                SELECT env, fp FROM deps
                WHERE scope = ? AND (library != ? OR (method = ? AND spec != ?))
                """,
                (scope, library_digest, method, spec_digest),
            ).fetchall()
            if not stale:
                return 0
            dropped = conn.executemany(
                "DELETE FROM entries WHERE env = ? AND fp = ?", stale
            ).rowcount
            for table in ("deps", "costs"):
                conn.executemany(f"DELETE FROM {table} WHERE env = ? AND fp = ?", stale)
            return dropped

    def commit_run(self, touched: Sequence[str]) -> int:
        """Insert one run record and trim the table to the newest runs."""
        with self._txn() as conn:
            (last,) = conn.execute("SELECT COALESCE(MAX(run), 0) FROM runs").fetchone()
            sequence = last + 1
            conn.execute(
                "INSERT INTO runs(run, touched) VALUES(?, ?)",
                (sequence, json.dumps(list(touched))),
            )
            conn.execute(
                """
                DELETE FROM runs WHERE run <
                    (SELECT run FROM runs ORDER BY run DESC LIMIT 1 OFFSET ?)
                """,
                (MAX_RUN_RECORDS - 1,),
            )
            return sequence

    def update(
        self,
        fn: Callable[
            [dict[tuple[str, str], StoreEntry], list[dict]],
            tuple[dict[tuple[str, str], StoreEntry], list[dict]],
        ],
        *,
        entries: bool = True,
        runs: bool = True,
    ) -> LoadedState:
        with self._txn() as conn:
            disk_entries: dict[tuple[str, str], StoreEntry] = {}
            skipped = 0
            if entries:
                disk_entries, skipped = self._read_entries(conn)
            disk_runs = self._read_runs(conn) if runs else []
            new_entries, new_runs = fn(disk_entries, disk_runs)
            if entries:
                for table in ("entries", "deps", "costs"):
                    conn.execute(f"DELETE FROM {table}")
                for entry in new_entries.values():
                    self._upsert(conn, entry)
            if runs:
                conn.execute("DELETE FROM runs")
                for record in new_runs:
                    conn.execute(
                        "INSERT INTO runs(run, touched) VALUES(?, ?)",
                        (record["run"], json.dumps(record["touched"])),
                    )
            return LoadedState(new_entries, new_runs, skipped)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _validate_backend_name(backend: str, *, source: str = "") -> None:
    if backend not in KNOWN_STORE_BACKENDS:
        origin = f" (from {source})" if source else ""
        raise ValueError(
            f"unknown store backend {backend!r}{origin}; "
            f"expected one of {KNOWN_STORE_BACKENDS + ('auto',)}"
        )


def resolve_store_backend(
    path: os.PathLike | str, backend: Optional[str] = None
) -> tuple[str, "Path | str"]:
    """Pick the backend for a store path; returns ``(name, normalised path)``.

    Precedence: an ``http://``/``https://`` URL always means the remote
    client (the path stays a URL string; an explicit local ``backend`` then
    names the storage the *server* is expected to wrap, verified at
    handshake); then an explicit ``backend`` argument, then what the path
    itself says (``sqlite:`` URL prefix, a ``.db``/``.sqlite``/``.sqlite3``
    suffix or an existing plain file → sqlite; an existing directory →
    jsonl), then ``REPRO_STORE_BACKEND``, then the jsonl default.

    Contradictory directives are an error, never silently resolved: a
    ``sqlite:`` path combined with an explicit non-sqlite backend raises
    instead of stripping the prefix and opening the other backend.
    """
    raw = str(path)
    if raw.startswith(("http://", "https://")):
        if backend not in (None, "", "auto", "remote"):
            _validate_backend_name(backend)
        return "remote", raw.rstrip("/")
    if backend == "remote":
        raise ValueError(
            f"the remote store backend needs an http:// or https:// store "
            f"URL, got {raw!r}"
        )
    if raw.startswith("sqlite:"):
        raw = raw[len("sqlite:") :]
        if backend in (None, "", "auto"):
            backend = "sqlite"
        elif backend != "sqlite":
            _validate_backend_name(backend)
            raise ValueError(
                f"store path {str(path)!r} demands the sqlite backend, but "
                f"{backend!r} was requested explicitly; drop one of the two "
                "conflicting directives"
            )
    resolved = Path(raw)
    if backend not in (None, "", "auto"):
        _validate_backend_name(backend)
        return backend, resolved
    if resolved.suffix in _SQLITE_SUFFIXES or resolved.is_file():
        return "sqlite", resolved
    if resolved.is_dir():
        return "jsonl", resolved
    env = os.environ.get("REPRO_STORE_BACKEND")
    if env in KNOWN_STORE_BACKENDS:
        return env, resolved
    if env not in (None, "", "auto"):
        _validate_backend_name(env, source="REPRO_STORE_BACKEND")
    return "jsonl", resolved


def open_backend(path: os.PathLike | str, backend: Optional[str] = None):
    """Instantiate the backend :func:`resolve_store_backend` picks for ``path``."""
    name, resolved = resolve_store_backend(path, backend)
    if name == "remote":
        from .remote import RemoteStoreBackend  # avoid a module cycle

        expected = backend if backend in KNOWN_STORE_BACKENDS else None
        return RemoteStoreBackend(resolved, expect_backend=expected)
    if name == "sqlite":
        return SqliteStoreBackend(resolved)
    return JsonlStoreBackend(resolved)


def migrate_store(
    source: os.PathLike | str,
    destination: os.PathLike | str,
    *,
    source_backend: Optional[str] = None,
    destination_backend: Optional[str] = None,
) -> dict[str, int]:
    """Copy a store losslessly between backends; returns what was copied.

    Everything the source holds travels: entries with their fingerprints,
    verdicts, witness traces, recorded counter dicts, dependency records and
    cost records, plus the run log verbatim (sequence numbers included, so
    ``gc --keep-last`` means the same thing after the move).  The destination
    is overwritten wholesale.
    """
    # resolve and compare *before* instantiating anything: a same-path (or
    # remote) rejection must not leave an opened sqlite connection behind
    source_name, source_path = resolve_store_backend(source, source_backend)
    destination_name, destination_path = resolve_store_backend(
        destination, destination_backend
    )
    if "remote" in (source_name, destination_name):
        raise ValueError(
            "store migrate works on local stores; run it on the machine "
            "that owns the files (the server's store path, not its URL)"
        )
    if source_path.resolve() == destination_path.resolve():
        raise ValueError("store migrate needs distinct source and destination paths")
    src = dst = None
    try:
        src = open_backend(source_path, source_name)
        dst = open_backend(destination_path, destination_name)
        state = src.load(wipe_mismatch=True)
        dst.load(wipe_mismatch=True)  # initialise (and wipe foreign-schema leftovers)
        dst.update(lambda _entries, _runs: (state.entries, state.runs))
        return {"entries": len(state.entries), "runs": len(state.runs)}
    finally:
        # a failed load/update must leak neither backend's connection
        if src is not None:
            src.close()
        if dst is not None:
            dst.close()
