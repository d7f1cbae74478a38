"""The traced run: wrappers around each layer's public functions.

Nothing here runs unless ``--trace 1`` is given, and then only for the
traced half of a run: :func:`install` replaces the timed functions with
wrappers that record one span per call — name, start, end, the span that
caused it and the request it belongs to — and sum calls, inclusive time
and self time (inclusive time minus the time of wrapped calls made inside
it) per span name.  Spans stay in memory until the traced pass (on
warm-recheck, the traced phase) ends, and are then written out.  There is
one recorder per process, a module global, because the wrappers it serves
are installed process-wide.

Forked fleet workers inherit the wrappers through ``fork``.  Each worker
starts a clean recording when ``run_worker`` is entered and spools it to a
file when it returns; the pass that forked the workers merges the files.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

#: the remote-store ops whose client side is timed (wire op name -> method)
RPC_OPS = {
    "handshake": "handshake",
    "cost_hints": "cost_hints",
    "lookup": "lookup",
    "invalidate": "invalidate",
    "append": "append_entries",
    "commit_run": "commit_run",
    "enqueue": "enqueue",
    "lease": "lease",
    "complete": "complete",
    "queue_status": "queue_status",
}

#: server-side ops reported from ``/stats`` (the ``stats`` op itself excluded)
SERVER_OPS = tuple(RPC_OPS) + ("extend",)


class Recorder:
    """Spans and per-name totals for one process (threads share it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.reset()
        #: where forked workers spool their recordings (set by the pass)
        self.spool_dir: Optional[Path] = None

    def reset(self) -> None:
        with self._lock:
            #: name -> [calls, inclusive seconds, self seconds]
            self.totals: dict[str, list] = {}
            #: (span id, parent id, request id, name, start, end, pid, thread)
            self.spans: list[tuple] = []
            #: time covered by spans with no wrapped parent
            self.top_level_s = 0.0
            #: run_diagnostics() of every checker made and retired
            self.diagnostics: list[dict] = []
            self.counters: dict[str, float] = {}
        self._local = threading.local()

    # -- request scoping ------------------------------------------------------
    def set_request(self, request_id: Optional[str]) -> None:
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note_checker(self, checker) -> None:
        checkers = getattr(self._local, "checkers", None)
        if checkers is None:
            checkers = self._local.checkers = []
        checkers.append(checker)

    def retire_checkers(self) -> None:
        """Keep the counters of this thread's checkers, not the checkers."""
        checkers = getattr(self._local, "checkers", None) or []
        self._local.checkers = []
        diagnostics = [checker.run_diagnostics() for checker in checkers]
        with self._lock:
            self.diagnostics.extend(diagnostics)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- the wrapper --------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = f"{os.getpid()}-{next(recorder._ids)}"
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                duration = ended - started
                recursive = any(open_frame[1] == name for open_frame in stack)
                if parent is not None:
                    parent[2] += duration
                with recorder._lock:
                    entry = recorder.totals.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    if not recursive:
                        entry[1] += duration
                    entry[2] += duration - frame[2]
                    if parent is None:
                        recorder.top_level_s += duration
                    recorder.spans.append((
                        span_id, parent[0] if parent else None,
                        getattr(recorder._local, "request", None), name,
                        started, ended, os.getpid(), threading.get_ident(),
                    ))

        return wrapper

    # -- cross-process ------------------------------------------------------
    def snapshot(self) -> dict:
        self.retire_checkers()
        with self._lock:
            return {
                "totals": {name: list(entry) for name, entry in self.totals.items()},
                "spans": list(self.spans),
                "top_level_s": self.top_level_s,
                "counters": dict(self.counters),
                "diagnostics": list(self.diagnostics),
            }

    def spool(self) -> None:
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def absorb_spools(self) -> list[dict]:
        """Read (and delete) every worker recording spooled for this pass."""
        found = []
        if self.spool_dir is None:
            return found
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            found.append(json.loads(path.read_text()))
            path.unlink()
        return found


RECORDER = Recorder()
_installed = False


def _patch_function(module_name: str, attr: str, name: str) -> None:
    """Wrap a module-level function everywhere ``from x import f`` copied it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = RECORDER.wrap(name, original)
    for module_key, module in list(sys.modules.items()):
        if module_key.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _patch_method(cls, attr: str, name: str) -> None:
    setattr(cls, attr, RECORDER.wrap(name, getattr(cls, attr)))


def install() -> None:
    """Replace every timed function with its recording wrapper (once)."""
    global _installed
    if _installed:
        return
    _installed = True
    import repro.engine.dispatch as dispatch
    import repro.engine.worker as worker
    import repro.lang.desugar  # noqa: F401 - resolved through sys.modules
    import repro.sfa.batch  # noqa: F401
    from repro.engine.scheduler import ObligationEngine
    from repro.sfa.alphabet import AlphabetMemo
    from repro.sfa.inclusion import InclusionChecker
    from repro.smt.solver import Solver
    from repro.store.obligation_store import ObligationStore
    from repro.store.remote import RemoteStoreBackend
    from repro.suite.benchmark import AdtBenchmark
    from repro.typecheck.checker import Checker
    from repro.types.context import TypingContext

    _patch_function("repro.lang.desugar", "desugar_program", "lang.desugar")
    _patch_method(Checker, "check_method", "typecheck.check")
    _patch_method(TypingContext, "is_infeasible", "types.infeasible")
    _patch_method(ObligationEngine, "discharge_all", "engine.discharge")
    _patch_method(InclusionChecker, "check_detailed", "sfa.inclusion")
    _patch_function("repro.sfa.batch", "discharge_group", "sfa.group")
    _patch_method(AlphabetMemo, "alphabets_for", "sfa.alphabet")
    _patch_method(Solver, "is_satisfiable", "smt.sat")
    for attr, name in (("__init__", "store.open"), ("prefetch", "store.prefetch"),
                       ("invalidate_stale", "store.invalidate"),
                       ("flush", "store.flush"), ("commit_run", "store.commit_run")):
        _patch_method(ObligationStore, attr, name)
    for op, attr in RPC_OPS.items():
        _patch_method(RemoteStoreBackend, attr, f"store.rpc.{op}")
    # transport counters: logical calls, wire attempts, reused connections
    call, post = RemoteStoreBackend._call, RemoteStoreBackend._post

    @functools.wraps(call)
    def counting_call(self, *args, **kwargs):
        RECORDER.count("rpc.calls")
        return call(self, *args, **kwargs)

    @functools.wraps(post)
    def counting_post(self, *args, **kwargs):
        RECORDER.count("rpc.posts")
        status, payload, reused = post(self, *args, **kwargs)
        RECORDER.count("rpc.reused", int(reused))
        return status, payload, reused

    RemoteStoreBackend._call = counting_call
    RemoteStoreBackend._post = counting_post

    # every checker made during the traced phase contributes its
    # run_diagnostics() counters (engine block, derivative/alphabet caches)
    make_checker = AdtBenchmark.make_checker

    @functools.wraps(make_checker)
    def recording_make_checker(self, *args, **kwargs):
        checker = make_checker(self, *args, **kwargs)
        RECORDER.note_checker(checker)
        return checker

    AdtBenchmark.make_checker = recording_make_checker

    # the fleet: the coordinator, its phase-2 assembly, and the workers
    dispatch.run_distributed_evaluation = RECORDER.wrap(
        "dispatch.run", dispatch.run_distributed_evaluation
    )
    dispatch.run_evaluation = RECORDER.wrap("dispatch.assemble", dispatch.run_evaluation)
    worker.run_benchmark = RECORDER.wrap("worker.reemit", worker.run_benchmark)
    run_worker = dispatch.run_worker

    @functools.wraps(run_worker)
    def recording_run_worker(*args, **kwargs):
        # a forked worker starts with the coordinator's recording: drop it,
        # keeping the request id so the worker's spans join the pass's
        request = getattr(RECORDER._local, "request", None)
        RECORDER.reset()
        RECORDER.set_request(request)
        started = time.perf_counter()
        try:
            stats = run_worker(*args, **kwargs)
            RECORDER.count("worker.leases", stats.leases)
            return stats
        finally:
            ended = time.perf_counter()
            # the idle-exit tail: from the last acknowledged lease to exit
            last_complete = max(
                (span[5] for span in RECORDER.spans if span[3] == "store.rpc.complete"),
                default=started,
            )
            RECORDER.count("worker.idle_tail_s", ended - last_complete)
            RECORDER.spool()

    dispatch.run_worker = recording_run_worker


def write_spans(out_dir: Path, spans: list) -> None:
    """Append one pass's spans to the run's span file (JSON lines)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spans.jsonl", "a") as handle:
        for span_id, parent, request, name, start, end, pid, thread in spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "request": request, "name": name,
                "start": start, "end": end, "pid": pid, "thread": thread,
            }) + "\n")
