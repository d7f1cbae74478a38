"""``repro store serve`` — a shared obligation-cache service over HTTP.

A :class:`StoreService` wraps any *local* backend (jsonl directory or sqlite
file) and executes the store-level operations a
:class:`~repro.store.remote.RemoteStoreBackend` client sends — batched
lookup, batched append, ``compact``, ``commit_run``, ``gc``,
``invalidate`` — each under the wrapped backend's existing lock/transaction,
so a CI fleet (or many watch sessions) on different machines hit one warm
cache with exactly the local store's concurrency guarantees.

Design notes:

* The service keeps the store state in memory (loaded once at startup,
  maintained through its own writes) so lookups cost no disk I/O; mutating
  operations go to the backend *first* — durably, fsynced/transactional —
  and only then update the cache, so a crash at any point loses nothing
  that was acknowledged.  ``invalidate`` and ``commit_run`` are backend
  primitives: the backend decides against the store as it is on disk under
  its lock (an entry a local process appended behind the server's back is
  invalidated too), a no-op invalidation writes nothing and a commit
  appends one record; the service then drops the same stale keys from its
  own cache.  Only the rare whole-store rewrites, ``compact`` and ``gc``,
  re-adopt the state the backend re-read under its exclusive lock — which
  is how an operator resynchronises the cache with writes made behind the
  server's back.
* Writes carry client idempotency keys; the service remembers recent keys
  (with their responses) and replays the response instead of re-applying the
  write, so a client retrying a request whose *response* was lost cannot
  double-apply.  Keys are remembered **per client** (the client id travels
  in the payload): one client flooding writes can only evict its *own* old
  keys, never another — slower — client's in-flight retry window.  The key
  cache is in-memory: after a server restart a replayed append merely
  re-UPSERTs identical content (entries are keyed), and a replayed
  ``commit_run`` appends a fresh run record — both harmless.
* The service also owns the :class:`~repro.store.queue.WorkQueue` behind
  distributed discharge (``enqueue``/``lease``/``complete``/``extend``/
  ``queue_status``).  The queue is in-memory only — durability lives in the
  store itself: a coordinator re-dispatch recomputes the remaining work from
  the store, so completed obligations are never redone after a crash.
* All operations serialise on one lock.  HTTP handling itself is threaded
  (:class:`ThreadingHTTPServer`), so slow clients never block the accept
  loop, only the store critical section is serial.  Responses advertise
  HTTP/1.1 keep-alive, so a pulling worker's thousands of small queue RPCs
  reuse one TCP connection instead of paying a connect each.

``REPRO_STORE_SERVE_CRASH`` is a fault-injection hook for the crash-recovery
suite: set to ``"<op>:before"`` or ``"<op>:after"`` it hard-kills the server
process (``os._exit``) immediately before or after that operation persists,
exercising the client's retry/idempotency path deterministically.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..obs.logs import get_logger
from .backends import (
    MAX_RUN_RECORDS,
    SCHEMA_VERSION,
    StoreEntry,
    open_backend,
    stale_entry_keys,
)
from .obligation_store import sweep_unreferenced, validate_keep_last
from .queue import QueueItem, WorkQueue

logger = get_logger("store")

SERVER_NAME = "pymarple-store-serve/1"

#: how many recent idempotency keys (and their responses) the service holds
#: *per client* — eviction is per-client, so one chatty client can never
#: evict another client's retry window into a double-apply
_MAX_IDEMPOTENCY_KEYS_PER_CLIENT = 1024
#: how many distinct clients' key caches the service holds (LRU beyond that)
_MAX_IDEMPOTENCY_CLIENTS = 64

#: fault-injection hook for the crash-recovery tests (see module docstring)
ENV_SERVE_CRASH = "REPRO_STORE_SERVE_CRASH"


class UnknownOperation(Exception):
    """The request path names no protocol operation."""


class StoreService:
    """Owns the wrapped backend, the in-memory state and the op lock."""

    def __init__(self, path, backend: Optional[str] = None) -> None:
        self.backend = open_backend(path, backend)
        if not getattr(self.backend, "supports_update", True):
            raise ValueError(
                f"cannot serve {str(path)!r}: it is itself a remote store "
                "URL; serve the local store the server should wrap"
            )
        self._lock = threading.Lock()
        state = self.backend.load(wipe_mismatch=True)
        self._entries = state.entries
        #: how many run records the log holds (the handshake/stats figure)
        self._run_count = len(state.runs)
        self.skipped = state.skipped
        #: client id -> (idempotency key -> replayed response), both LRU
        self._seen: OrderedDict[str, OrderedDict[str, dict]] = OrderedDict()
        self._crash = os.environ.get(ENV_SERVE_CRASH, "")
        #: the work queue behind distributed discharge (in-memory only;
        #: durability is the store's job — see the module docstring)
        self.queue = WorkQueue()
        #: the queue's clock — monotonic so wall-clock steps can't expire or
        #: immortalise leases; overridable by the fault-injection tests
        self.queue_clock = time.monotonic
        #: per-op request counts and latency sums plus the lookup hit rate,
        #: served by the ``stats`` op (``repro store stats URL``)
        self._op_stats: dict[str, dict] = {}
        self._lookup_requested = 0
        self._lookup_found = 0
        self._started = time.time()

    # -- plumbing -----------------------------------------------------------------
    def _maybe_crash(self, op: str, when: str) -> None:
        if self._crash == f"{op}:{when}":  # pragma: no cover - exits the process
            logger.warning("fault injection: crashing %s %s", when, op)
            os._exit(3)

    def _client_keys(self, client: str) -> OrderedDict[str, dict]:
        bucket = self._seen.get(client)
        if bucket is None:
            bucket = self._seen[client] = OrderedDict()
            while len(self._seen) > _MAX_IDEMPOTENCY_CLIENTS:
                self._seen.popitem(last=False)
        else:
            self._seen.move_to_end(client)
        return bucket

    def _note_op(self, op: str, seconds: float, *, replayed: bool = False) -> None:
        record = self._op_stats.setdefault(
            op, {"count": 0, "seconds": 0.0, "replays": 0}
        )
        if replayed:
            record["replays"] += 1
        else:
            record["count"] += 1
            record["seconds"] += seconds

    def execute(self, op: str, payload: dict) -> dict:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise UnknownOperation(f"unknown store operation {op!r}")
        with self._lock:
            key = payload.get("key")
            client = payload.get("client")
            seen = self._client_keys(client if isinstance(client, str) else "")
            if isinstance(key, str) and key in seen:
                seen.move_to_end(key)
                self._note_op(op, 0.0, replayed=True)
                logger.debug("replaying idempotent %s (key %s)", op, key)
                return seen[key]
            self._maybe_crash(op, "before")
            started = time.perf_counter()
            result = handler(payload)
            self._note_op(op, time.perf_counter() - started)
            self._maybe_crash(op, "after")
            if isinstance(key, str) and key:
                seen[key] = result
                while len(seen) > _MAX_IDEMPOTENCY_KEYS_PER_CLIENT:
                    seen.popitem(last=False)
            return result

    def close(self) -> None:
        self.backend.close()

    # -- protocol operations ------------------------------------------------------
    def op_handshake(self, _payload: dict) -> dict:
        return {
            "server": SERVER_NAME,
            "schema": SCHEMA_VERSION,
            "backend": self.backend.name,
            "path": str(self.backend.path),
            "entries": len(self._entries),
            "runs": self._run_count,
            "skipped": self.skipped,
        }

    def op_lookup(self, payload: dict) -> dict:
        env = payload["env"]
        fps = payload["fps"]
        if not isinstance(env, str) or not isinstance(fps, list):
            raise ValueError("lookup needs an 'env' string and an 'fps' list")
        found = []
        for fp in fps:
            entry = self._entries.get((env, fp))
            if entry is not None:
                found.append(entry.to_record())
        self._lookup_requested += len(fps)
        self._lookup_found += len(found)
        return {"found": found, "entries": len(self._entries)}

    def op_cost_hints(self, _payload: dict) -> dict:
        costs: dict[str, float] = {}
        for entry in self._entries.values():
            wall = entry.wall_cost
            if wall is not None:
                costs[entry.fp] = wall
        return {"costs": costs, "entries": len(self._entries)}

    def op_append(self, payload: dict) -> dict:
        records = payload["entries"]
        if not isinstance(records, list):
            raise ValueError("append needs an 'entries' list")
        batch = [StoreEntry.from_record(record) for record in records]
        skipped_existing = 0
        if payload.get("if_absent"):
            # queue workers write with if_absent: a worker whose lease was
            # stolen (and re-discharged elsewhere) must not land a second
            # copy of the verdict in the append log
            fresh = [entry for entry in batch if entry.key not in self._entries]
            skipped_existing = len(batch) - len(fresh)
            batch = fresh
        if batch:
            self.backend.append_entries(batch)
        for entry in batch:
            self._entries[entry.key] = entry
        logger.debug("appended %d entries for a remote client", len(batch))
        return {
            "appended": len(batch),
            "skipped_existing": skipped_existing,
            "entries": len(self._entries),
        }

    def op_compact(self, _payload: dict) -> dict:
        state = self.backend.update(lambda entries, runs: (entries, runs), runs=False)
        self._entries = state.entries
        return {"entries": len(self._entries)}

    def op_invalidate(self, payload: dict) -> dict:
        digests = (payload["scope"], payload["method"], payload["spec"], payload["library"])
        dropped = self.backend.invalidate(*digests)
        for stale_key in stale_entry_keys(self._entries, *digests):
            del self._entries[stale_key]
        return {"dropped": dropped, "entries": len(self._entries)}

    def op_commit_run(self, payload: dict) -> dict:
        touched = payload["touched"]
        if not isinstance(touched, list) or not all(
            isinstance(item, str) for item in touched
        ):
            raise ValueError("commit_run needs a 'touched' list of strings")
        if not touched:
            return {"run": 0, "entries": len(self._entries)}
        sequence = self.backend.commit_run(touched)
        self._run_count = min(self._run_count + 1, MAX_RUN_RECORDS)
        return {"run": sequence, "entries": len(self._entries)}

    def op_gc(self, payload: dict) -> dict:
        keep_last = validate_keep_last(payload["keep_last"])
        dropped = 0

        def sweep(entries, runs):
            nonlocal dropped
            entries, kept_runs, stale = sweep_unreferenced(entries, runs, keep_last)
            dropped = len(stale)
            return entries, kept_runs

        state = self.backend.update(sweep)
        self._entries = state.entries
        self._run_count = len(state.runs)
        return {"dropped": dropped, "entries": len(self._entries)}

    # -- the work queue (distributed discharge) -----------------------------------
    def _queue_item(self, record: dict) -> QueueItem:
        env, fp, bench = record.get("env"), record.get("fp"), record.get("bench")
        if not (isinstance(env, str) and isinstance(fp, str) and isinstance(bench, str)):
            raise ValueError("queue items need 'env', 'fp' and 'bench' strings")
        cost = record.get("cost")
        measured = bool(record.get("measured"))
        # the store's own cost index outranks whatever the coordinator sent:
        # a recorded wall time (under any environment) is the LPT signal
        hint = self._entries.get((env, fp))
        wall = hint.wall_cost if hint is not None else None
        if wall is None:
            wall = self._wall_cost_of(fp)
        if wall is not None:
            cost, measured = wall, True
        return QueueItem(
            env=env,
            fp=fp,
            bench=bench,
            cost=float(cost) if isinstance(cost, (int, float)) else 0.0,
            measured=measured,
        )

    def _wall_cost_of(self, fp: str) -> Optional[float]:
        # env-free, exactly like ObligationStore.cost_hint: a measurement
        # from another environment is still a fine scheduling hint
        for entry in self._entries.values():
            if entry.fp == fp and entry.wall_cost is not None:
                return entry.wall_cost
        return None

    def op_enqueue(self, payload: dict) -> dict:
        records = payload["items"]
        if not isinstance(records, list):
            raise ValueError("enqueue needs an 'items' list")
        dispatch = payload.get("dispatch")
        if dispatch is not None and not isinstance(dispatch, str):
            raise ValueError("'dispatch' must be a string tag")
        items = [self._queue_item(record) for record in records]
        added, requeued = self.queue.enqueue(items, dispatch=dispatch)
        logger.debug("enqueued %d items (%d requeued) for dispatch %s", added, requeued, dispatch)
        return {"enqueued": added, "requeued": requeued, "queued": len(self.queue)}

    def op_lease(self, payload: dict) -> dict:
        count = payload.get("count", 1)
        ttl = payload.get("ttl", 30.0)
        if not isinstance(count, int) or not isinstance(ttl, (int, float)):
            raise ValueError("lease needs an integer 'count' and a numeric 'ttl'")
        worker = payload.get("worker")
        lease, items, reclaimed = self.queue.lease(
            count, float(ttl), self.queue_clock(),
            worker=worker if isinstance(worker, str) else "",
        )
        return {
            "lease": lease.id if lease is not None else None,
            "items": [item.to_record() for item in items],
            "reclaimed": reclaimed,
            "queued": len(self.queue),
        }

    def op_complete(self, payload: dict) -> dict:
        lease_id = payload.get("lease")
        keys = payload.get("keys")
        if not isinstance(lease_id, str) or not isinstance(keys, list):
            raise ValueError("complete needs a 'lease' id and a 'keys' list")
        completed, stale = self.queue.complete(lease_id, [str(key) for key in keys])
        return {"completed": completed, "stale": stale, "queued": len(self.queue)}

    def op_extend(self, payload: dict) -> dict:
        lease_id = payload.get("lease")
        ttl = payload.get("ttl")
        if not isinstance(lease_id, str) or not isinstance(ttl, (int, float)):
            raise ValueError("extend needs a 'lease' id and a numeric 'ttl'")
        # the deadline is computed against the *server's* clock — a client
        # with a skewed clock sends only the relative ttl, so skew is inert
        ok = self.queue.extend(lease_id, float(ttl), self.queue_clock())
        return {"ok": ok}

    def op_queue_status(self, payload: dict) -> dict:
        dispatch = payload.get("dispatch")
        if dispatch is not None and not isinstance(dispatch, str):
            raise ValueError("'dispatch' must be a string tag")
        return self.queue.status(dispatch, now=self.queue_clock())

    # -- metrics ------------------------------------------------------------------
    def op_stats(self, _payload: dict) -> dict:
        ops = {
            op: {
                "count": record["count"],
                "seconds": round(record["seconds"], 6),
                "replays": record["replays"],
            }
            for op, record in sorted(self._op_stats.items())
        }
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "entries": len(self._entries),
            "runs": self._run_count,
            "ops": ops,
            "lookup": {
                "requested": self._lookup_requested,
                "found": self._lookup_found,
            },
            "queue": self.queue.status(),
            "idempotency_clients": len(self._seen),
        }


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = SERVER_NAME
    #: HTTP/1.1 so keep-alive works: clients reuse one connection per
    #: process instead of paying a TCP connect per RPC (every reply already
    #: carries an exact Content-Length)
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a reply goes out as two small writes (header block, then
    #: body); on a kept-alive connection Nagle would hold the second write
    #: until the client's delayed ACK (~40ms per RPC — dwarfing the op itself)
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, op: str, payload: dict) -> None:
        try:
            result = self.server.service.execute(op, payload)
        except UnknownOperation as exc:
            self._reply(404, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            # malformed requests and validation failures are the client's
            # fault and must not be retried
            detail = str(exc) or type(exc).__name__
            self._reply(400, {"error": detail})
        except Exception as exc:  # pragma: no cover - defensive 5xx surface
            logger.warning("store op %s failed: %s", op, exc)
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        op = self.path.strip("/")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not JSON"})
            return
        if not isinstance(payload, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        self._dispatch(op, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # the one curl-able endpoint: identity without a POST body
        if self.path.strip("/") == "handshake":
            self._dispatch("handshake", {})
        else:
            self._reply(404, {"error": "POST JSON to /<operation>"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http %s", format % args)


class StoreHTTPServer(ThreadingHTTPServer):
    """The serving loop: threaded HTTP in front of one :class:`StoreService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: StoreService) -> None:
        super().__init__(address, _StoreRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{port}"
