"""The persistent obligation store: verdicts + witnesses + discharge stats.

An :class:`ObligationStore` maps
(:func:`~repro.store.fingerprint.environment_fingerprint`,
:func:`~repro.store.fingerprint.obligation_digest`) keys to discharged
obligations: besides the verdict (included / counterexample trace /
resource-limit error) each entry carries the per-obligation
``SolverStats``/``InclusionStats`` counter dicts, so a warm run merges
*exactly* the numbers a cold discharge would have produced — this is what
makes warm tables byte-identical to cold ones — plus a dependency record
(benchmark scope, method, spec digest, library digest) for targeted
invalidation and an advisory cost record for the scheduler.

Persistence is delegated to a :mod:`~repro.store.backends` backend, selected
from the store path (``.db``/``sqlite:`` → sqlite, directory → jsonl) or
forced via ``backend=``/``REPRO_STORE_BACKEND``:

* the **jsonl** backend keeps the original directory layout (``meta.json``,
  append-only ``entries.jsonl`` where the last line per key wins,
  ``runs.jsonl``, ``shards/``), hardened with an advisory ``flock`` per
  write and atomic fsynced rewrites;
* the **sqlite** backend keeps one WAL-mode database file with the same
  records in ``entries``/``deps``/``costs``/``runs`` tables, UPSERTed on the
  ``(env, fp)`` primary key;
* the **remote** backend (an ``http://``/``https://`` store path) is a
  client for ``repro store serve``: the session mirrors only the entries it
  batch-fetched or wrote, and every mutation below runs *server-side* under
  the wrapped backend's lock — ``update(fn)`` closures cannot cross the
  wire, so the wire speaks store-level operations instead (see
  :mod:`repro.store.remote` and :mod:`repro.store.server`).

Either way the store is safe under concurrent writer processes: appends can
never interleave partial entries, and every mutation (:meth:`compact`,
:meth:`invalidate_stale`, :meth:`commit_run`, :meth:`gc`) works on the
on-disk state as it is under an exclusive lock/transaction, so entries
appended by another process since :meth:`_load` are never silently dropped.
Invalidation and run commits are backend primitives with the same shape on
every backend — a no-op invalidation writes nothing and a commit appends one
record — while the rare :meth:`compact`/:meth:`gc` go through the generic
locked rewrite.  Corrupt or torn records (a killed writer's partial
line) are skipped and counted — see ``summary()["skipped"]`` — never fatal.

Invalidation is dependency-tracked: when a method is about to be verified,
:meth:`invalidate_stale` drops exactly the entries whose recorded spec or
library digest no longer matches — entries of other benchmarks (and of this
benchmark's unchanged methods) are untouched.  Content addressing already
guarantees a *changed* obligation can never hit a stale verdict; invalidation
keeps the store from accumulating unreachable entries and makes the
``--explain`` counts meaningful.

One caveat is inherited from the engine's cross-method memo: per-obligation
counters are pure functions of (inline-solver warm snapshot, obligation), and
the warm snapshot depends on which methods were emitted before the obligation
first needed discharging.  Re-running the *same* command against a store is
therefore byte-identical; mixing differently-shaped runs (``check --method``
vs ``evaluate``) can shift cache-hit counters between columns — never
verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from ..obs import trace
from ..obs.logs import get_logger
from .backends import (
    ENTRY_DECODE_ERRORS,
    MAX_RUN_RECORDS,
    SCHEMA_VERSION,
    LoadedState,
    StoreEntry,
    append_jsonl_batch,
    open_backend,
    stale_entry_keys,
)

logger = get_logger("store")


def validate_keep_last(keep_last: object) -> int:
    """``gc --keep-last``'s bounds: at least one run, at most the run log.

    The run log holds the last :data:`MAX_RUN_RECORDS` runs, so a larger N
    could not keep what runs beyond them referenced — it is rejected rather
    than silently acting as :data:`MAX_RUN_RECORDS`.
    """
    if not isinstance(keep_last, int) or keep_last < 1:
        raise ValueError("gc requires keep_last >= 1")
    if keep_last > MAX_RUN_RECORDS:
        raise ValueError(
            f"gc keep_last {keep_last} exceeds the {MAX_RUN_RECORDS} runs the "
            f"run log holds; use keep_last <= {MAX_RUN_RECORDS}"
        )
    return keep_last


def sweep_unreferenced(
    entries: dict[tuple[str, str], StoreEntry], runs: list[dict], keep_last: int
) -> tuple[dict[tuple[str, str], StoreEntry], list[dict], list[tuple[str, str]]]:
    """Drop entries unreferenced by the last ``keep_last`` runs (see :meth:`gc`).

    Returns ``(surviving entries, kept runs, dropped keys)``.
    """
    kept_runs = runs[-keep_last:]
    referenced: set[tuple[str, str]] = set()
    for record in kept_runs:
        for key in record["touched"]:
            env, _, fp = key.partition(":")
            referenced.add((env, fp))
    stale = [key for key in entries if key not in referenced]
    for key in stale:
        del entries[key]
    return entries, kept_runs, stale


@dataclass(frozen=True)
class StoreContext:
    """The dependency record attached to entries written during one method."""

    scope: str
    method: str
    spec_digest: str
    library_digest: str


@dataclass
class MethodStoreCounts:
    """Per-method session counters backing ``--explain``."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0


class ObligationStore:
    """A content-addressed, dependency-indexed verdict store on disk."""

    def __init__(
        self,
        path: os.PathLike | str,
        *,
        shard_output: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.backend = open_backend(path, backend)
        self.path = self.backend.path
        #: when set, writes go to ``shards/shard-K.jsonl`` instead of the main
        #: log, and invalidation never rewrites the (shared) main log — the
        #: mode the sharded runner's forked children run in.
        self.shard_output = shard_output
        self._entries: dict[tuple[str, str], StoreEntry] = {}
        self._pending: list[StoreEntry] = []
        #: every entry recorded through this session (never cleared by a
        #: flush): what a locked rewrite merges over the re-read disk state,
        #: so our writes survive a concurrent compaction and vice versa
        self._session_writes: dict[tuple[str, str], StoreEntry] = {}
        #: per-(scope, method) session counters, in first-check order
        self.session: dict[tuple[str, str], MethodStoreCounts] = {}
        #: corrupt/torn persisted records skipped (never fatal) while loading
        #: the store or absorbing shard files in this session
        self.skipped_records = 0
        #: obligation fp -> recorded wall cost (advisory, env-free): built
        #: from every loaded/recorded entry and deliberately *not* pruned by
        #: invalidation — a stale verdict's cost is still a fine schedule hint
        self._cost_index: dict[str, float] = {}
        #: (env, fp) keys referenced (hit or written) since the last
        #: :meth:`commit_run` — the session bookkeeping behind store GC
        self._touched: dict[tuple[str, str], None] = {}
        #: the run log as loaded (or as a gc left it): one
        #: ``{"run": n, "touched": [...]}`` per run; commits append on disk
        #: only
        self._runs: list[dict] = []
        #: remote mode only — ``(env, fp)`` keys a batched lookup already
        #: checked against the server, found or not; a key in here but not in
        #: ``_entries`` is a *known* miss and costs no further round-trip
        self._remote_checked: set[tuple[str, str]] = set()
        self._load()

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def is_remote(self) -> bool:
        """Whether this session talks to a ``repro store serve`` instance.

        A remote session mirrors only the entries it fetched or wrote;
        read-modify-rewrite operations run server-side, under the wrapped
        backend's lock, because ``update(fn)`` closures cannot cross the wire.
        """
        return not getattr(self.backend, "supports_update", True)

    # -- loading -----------------------------------------------------------------
    def _load(self) -> None:
        if self.is_remote:
            # no wholesale load: handshake (verifying the schema tag and, if
            # one was demanded, the wrapped backend's identity), then the
            # advisory cost index the scheduler orders cold obligations by
            with trace.span("store.load", cat="store", backend=self.backend.name):
                info = self.backend.handshake()
                self._cost_index.update(self.backend.cost_hints())
            self.skipped_records += int(info.get("skipped", 0))
            return
        # shard children never wipe the shared store on a schema mismatch
        # (the parent already did, or will, before forking them)
        with trace.span("store.load", cat="store", backend=self.backend.name):
            state = self.backend.load(wipe_mismatch=self.shard_output is None)
        self._adopt(state)

    def _adopt(self, state: LoadedState) -> None:
        self._entries = state.entries
        self._runs = state.runs
        if state.skipped:
            logger.warning(
                "skipped %d corrupt/torn store record(s) while loading %s",
                state.skipped,
                self.path,
            )
        self.skipped_records += state.skipped
        for entry in self._entries.values():
            self._note_cost(entry)

    def _note_cost(self, entry: StoreEntry) -> None:
        wall = entry.wall_cost
        if wall is not None:
            self._cost_index[entry.fp] = wall

    # -- the read/write surface ----------------------------------------------------
    def lookup(self, env: str, fp: str) -> Optional[StoreEntry]:
        with trace.span("store.lookup", cat="store", fp=fp) as lookup_span:
            entry = self._entries.get((env, fp))
            if (
                entry is None
                and self.is_remote
                and (env, fp) not in self._remote_checked
            ):
                # unbatched fallback (one fetch per unseen key); the engine's
                # :meth:`prefetch` is the batched fast path
                fetched = self.backend.lookup(env, [fp])
                self._remote_checked.add((env, fp))
                if fetched:
                    entry = fetched[0]
                    self._entries[entry.key] = entry
                    self._note_cost(entry)
            lookup_span.set(hit=entry is not None)
        if entry is not None:
            self._touched[entry.key] = None
        return entry

    def prefetch(self, env: str, fps: list[str]) -> None:
        """Batch-fetch a discharge batch's keys ahead of per-obligation lookups.

        A no-op for local stores (every entry is already in memory); against a
        remote store this turns N round-trips into one batched ``lookup`` RPC.
        Keys the server does not hold are remembered as known misses.
        """
        if not self.is_remote:
            return
        missing = [
            fp
            for fp in dict.fromkeys(fps)
            if (env, fp) not in self._entries and (env, fp) not in self._remote_checked
        ]
        if not missing:
            return
        for entry in self.backend.lookup(env, missing):
            self._entries[entry.key] = entry
            self._note_cost(entry)
        self._remote_checked.update((env, fp) for fp in missing)

    def forget_remote_misses(self) -> None:
        """Drop the session's known-miss cache (remote sessions only).

        A prefetch that came back empty is remembered so later lookups cost
        no round-trip — but a dispatch coordinator *expects* other processes
        to fill those keys between its collect and report phases, so it
        forgets the misses before the warm pass re-fetches them.
        """
        self._remote_checked.clear()

    def record(self, entry: StoreEntry) -> None:
        self._entries[entry.key] = entry
        self._pending.append(entry)
        self._session_writes[entry.key] = entry
        self._touched[entry.key] = None
        self._note_cost(entry)

    def cost_hint(self, fp: str) -> Optional[float]:
        """The last recorded wall cost for an obligation fingerprint, if any.

        Deliberately environment-free: verdicts must never cross environments
        (a cdcl run cannot replay dpll counters), but a *measurement* of how
        long the obligation took to discharge is a fine scheduling hint under
        any backend/strategy — which is exactly when cold obligations have
        history (the same-environment case would have been a store hit).
        """
        return self._cost_index.get(fp)

    def flush(self) -> None:
        """Append pending entries to the log (or to this process's shard file).

        The backend appends the whole batch under an exclusive lock (jsonl:
        one ``write()`` of the pre-joined lines; sqlite: one UPSERT
        transaction), so concurrent flushes can interleave batches but never
        the bytes of one entry.
        """
        if not self._pending:
            return
        logger.debug("flushing %d pending store entries to %s", len(self._pending), self.path)
        with trace.span("store.flush", cat="store", entries=len(self._pending)):
            if self.shard_output is None:
                self.backend.append_entries(self._pending)
            else:
                # a shard file is private to this worker process; a single
                # appending write still keeps a torn tail from costing more
                # than one entry if the worker is killed mid-flush
                self.backend.shard_dir.mkdir(parents=True, exist_ok=True)
                append_jsonl_batch(
                    self.backend.shard_dir / f"shard-{self.shard_output}.jsonl",
                    [entry.to_json() for entry in self._pending],
                )
        self._pending.clear()

    def compact(self) -> None:
        """Rewrite the log with exactly the live entries (drops dead lines).

        Runs as a locked read-modify-rewrite: the on-disk state is re-read
        under the exclusive lock and this session's writes merged over it, so
        entries appended by a concurrent process since :meth:`_load` survive
        the compaction instead of being lost to a stale snapshot.
        """
        if self.shard_output is not None:
            return
        if self.is_remote:
            # the server compacts under its own lock; our writes must be
            # durably appended first so the rewrite sees them
            self.flush()
            self.backend.compact()
            return

        def merge_session(entries, runs):
            entries.update(self._session_writes)
            return entries, runs

        self._adopt(self.backend.update(merge_session, runs=False))
        self._pending.clear()

    # -- dependency-tracked invalidation -------------------------------------------
    def invalidate_stale(
        self, scope: str, method: str, spec_digest: str, library_digest: str
    ) -> int:
        """Drop exactly the entries invalidated by a spec or library edit.

        An entry of ``scope`` dies when the benchmark's library digest changed
        (every method's obligations sat on its axioms and alphabets) or when
        it belongs to ``method`` and that method's spec digest changed (see
        :func:`~repro.store.backends.stale_entry_keys`).  Entries of other
        scopes are never touched.  Returns how many entries were dropped —
        on disk, where another process may have written stale entries this
        session never saw.
        """
        local_stale = stale_entry_keys(
            self._entries, scope, method, spec_digest, library_digest
        )
        dropped = len(local_stale)
        # shard children never rewrite the shared log; a local session whose
        # view has nothing stale skips the backend round altogether — the
        # overwhelmingly common (warm, unedited) case stays cheap.  A remote
        # session's mirror is partial, so it always asks the server.
        if self.shard_output is None and (self.is_remote or local_stale):
            # flush first: this session's writes must be on disk before the
            # backend decides what is stale there
            self.flush()
            with trace.span("store.invalidate", cat="store"):
                dropped = self.backend.invalidate(
                    scope, method, spec_digest, library_digest
                )
        for key in local_stale:
            del self._entries[key]
            # an invalidated session write must not be resurrected by a later
            # rewrite's session merge
            self._session_writes.pop(key, None)
            # a dropped key is a *known* miss from here on (remote sessions)
            self._remote_checked.add(key)
        logger.debug("invalidated %d stale entries for %s.%s", dropped, scope, method)
        return dropped

    # -- session bookkeeping (--explain) -------------------------------------------
    def note_method(
        self, scope: str, method: str, *, hits: int = 0, misses: int = 0, invalidated: int = 0
    ) -> None:
        counts = self.session.setdefault((scope, method), MethodStoreCounts())
        counts.hits += hits
        counts.misses += misses
        counts.invalidated += invalidated

    def summary(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": sum(c.hits for c in self.session.values()),
            "misses": sum(c.misses for c in self.session.values()),
            "invalidated": sum(c.invalidated for c in self.session.values()),
            "skipped": self.skipped_records,
        }

    def explain(self) -> list[dict[str, object]]:
        """Per-method hit/miss/invalidated counts, in first-check order."""
        return [
            {
                "scope": scope,
                "method": method,
                "hits": counts.hits,
                "misses": counts.misses,
                "invalidated": counts.invalidated,
            }
            for (scope, method), counts in self.session.items()
        ]

    # -- run bookkeeping and garbage collection --------------------------------------
    def commit_run(self) -> int:
        """Close the current session as one *run* in the persistent run log.

        Appends the set of entry keys this session referenced (store hits and
        fresh writes alike) to the run log — the reference trail :meth:`gc`
        keeps entries alive by.  The backend takes the sequence number from
        the log as it is under its exclusive lock (a remote server under its
        own, with an idempotency key so a retried commit records once), so
        two processes committing concurrently get distinct sequence numbers
        and neither overwrites the other's record.  Returns the number of
        keys recorded; a session that touched nothing records no run.  Shard
        workers never commit runs (the parent absorbs their entries and
        commits on their behalf).
        """
        if self.shard_output is not None or not self._touched:
            self._touched.clear()
            return 0
        self.flush()
        touched = sorted(f"{env}:{fp}" for env, fp in self._touched)
        logger.debug("committing run: %d touched entries", len(touched))
        with trace.span("store.commit_run", cat="store", touched=len(touched)):
            self.backend.commit_run(touched)
        self._touched.clear()
        return len(touched)

    def gc(self, keep_last: int) -> int:
        """Expire entries unreferenced by the last ``keep_last`` runs.

        Content addressing already guarantees stale entries can never be
        *hit*; GC is about space — spec edits, renamed methods and abandoned
        experiments leave verdicts nothing will ever look up again.  An entry
        survives iff one of the last ``keep_last`` committed runs referenced
        it (hit it or wrote it), so everything those runs warm-started from
        still warm-starts after the sweep.  The reference set and the victims
        are computed from the state re-read under the exclusive lock —
        entries and runs a concurrent process committed meanwhile are part of
        the sweep, never casualties of a stale snapshot.  Returns the number
        of entries dropped; older run records are dropped from the log too.
        ``keep_last`` must lie in ``1..MAX_RUN_RECORDS`` (the runs the log
        holds); anything else raises :class:`ValueError`.
        """
        validate_keep_last(keep_last)
        if self.shard_output is not None:
            return 0
        if self._touched:
            # an uncommitted session counts as the most recent run
            self.commit_run()
        if self.is_remote:
            dropped = self.backend.gc(keep_last)
            # the client cannot know which mirrored entries survived the
            # server-side sweep; forget the mirror and re-fetch lazily
            self._entries.clear()
            self._remote_checked.clear()
            self._session_writes.clear()
            self._pending.clear()
            return dropped
        dropped = 0

        def sweep(entries, runs):
            nonlocal dropped
            entries.update(self._session_writes)
            entries, kept_runs, stale = sweep_unreferenced(entries, runs, keep_last)
            dropped = len(stale)
            for key in stale:
                self._session_writes.pop(key, None)
            return entries, kept_runs

        self._adopt(self.backend.update(sweep))
        self._pending.clear()
        return dropped

    # -- shard merging ---------------------------------------------------------------
    def shard_files(self) -> list[Path]:
        shard_dir = self.backend.shard_dir
        if not shard_dir.is_dir():
            return []

        def index_of(p: Path) -> int:
            try:
                return int(p.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                return 1 << 30

        return sorted(shard_dir.glob("shard-*.jsonl"), key=index_of)

    def absorb_shards(self) -> int:
        """Merge shard outputs into the main log, deterministically.

        Files are read in shard-index order; within a file, line order.  Shard
        assignment partitions fingerprints, so collisions only arise against
        pre-existing entries — which already carry the same content — making
        the merge order-insensitive in value, deterministic in bytes.  A
        shard file ending in a torn partial line (a killed worker, mid-
        append) costs exactly the torn entry: decode failures are skipped and
        counted (``summary()["skipped"]``), never allowed to abort the merge
        and discard the healthy shards.
        """
        absorbed = 0
        for shard_file in self.shard_files():
            for line in shard_file.read_bytes().splitlines():
                if not line.strip():
                    continue
                try:
                    entry = StoreEntry.from_json(line.decode("utf-8"))
                except ENTRY_DECODE_ERRORS:
                    self.skipped_records += 1
                    continue
                if entry.key not in self._entries:
                    self.record(entry)
                    absorbed += 1
            shard_file.unlink()
        self.flush()
        return absorbed

    # -- misc ------------------------------------------------------------------------
    def __len__(self) -> int:
        if self.is_remote:
            # the server's count, as of the most recent response carrying one
            return self.backend.entries_total
        return len(self._entries)

    def __iter__(self) -> Iterator[StoreEntry]:
        # remote sessions iterate their mirror: the entries fetched or
        # written this session, not the server's full state
        return iter(self._entries.values())

    def entries_for_scope(self, scope: str) -> list[StoreEntry]:
        return [entry for entry in self._entries.values() if entry.scope == scope]
