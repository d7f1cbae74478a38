"""The three workloads and the passes they run in forked children.

Every function named ``*_pass`` or ``*_client`` runs inside a child forked
by :func:`procs.run_forked` and returns a JSON-able dict; the benchmark
process only orchestrates, so it never holds any checker state itself.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Optional

import corpus
import layers
import procs
import speed

#: a pass that has not reported after this long is killed and failed
PASS_TIMEOUT = 120.0
#: set-up repetitions for warm-recheck's server start + store fill
WARM_SETUP_REPEATS = 3
#: fleet width (``repro dispatch --local-workers 2``) and client threads
FLEET_WORKERS = 2
WARM_CLIENTS = 2
#: warm-recheck's closed loop pauses this often to time the reference loop
SEGMENT_S = 0.5


# ---------------------------------------------------------------------------
# what every pass reports
# ---------------------------------------------------------------------------

def _rss_mb() -> float:
    return max(procs.peak_rss_mb(), procs.children_peak_rss_mb())


#: the per-method table counters the per-layer metrics read
TABLE_COUNTERS = ("smt_queries", "smt_cache_hits", "sat_conflicts", "prod_states")


def _table_counters(results) -> dict:
    """Sum the per-method counters the paper's tables report."""
    totals = dict.fromkeys(TABLE_COUNTERS, 0)
    for result in results:
        for key in totals:
            totals[key] += getattr(result.stats, key)
    return totals


def _method_results(report) -> list:
    return [result for stats in report.adt_stats for result in stats.method_results]


def _begin_trace(traced: bool, spool_dir: Optional[Path] = None) -> None:
    if traced:
        layers.install()
        layers.RECORDER.reset()
        layers.RECORDER.spool_dir = spool_dir
        layers.RECORDER.set_request(f"pass-{os.getpid()}")


def _end_trace(traced: bool, out_dir: Path, unit: dict) -> None:
    """Attach the recording to a unit's result; spans go to a file."""
    if not traced:
        return
    snapshot = layers.RECORDER.snapshot()
    workers = layers.RECORDER.absorb_spools()
    spans = snapshot.pop("spans")
    for worker in workers:
        spans.extend(worker.pop("spans"))
    layers.write_spans(out_dir, spans)
    unit["trace"] = {"self": snapshot, "workers": workers}


def _server_stats(url: str) -> dict:
    from repro.store.remote import RemoteStoreBackend

    backend = RemoteStoreBackend(url)
    try:
        return backend.stats()
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# cold-corpus: the fast corpus, serially, fresh state and fresh local store
# ---------------------------------------------------------------------------

def _stamp_verdicts(latencies: list[float], references: list[float], started: float) -> None:
    """Record, per verdict, the time since the previous one (or the start).

    Wraps the two calls every verdict of an evaluation goes through, and
    times the reference loop after each verdict, outside the next one's
    latency.  This runs in a pass child, so the patch dies with it; fleet
    workers forked from the pass inherit it, and it leaves their calls be.
    """
    from repro.suite.benchmark import AdtBenchmark

    mark = [started]
    owner = os.getpid()

    def stamped(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() != owner:
                return result
            latencies.append(time.perf_counter() - mark[0])
            references.append(speed.reference_s())
            mark[0] = time.perf_counter()
            return result

        return wrapper

    AdtBenchmark.verify_method = stamped(AdtBenchmark.verify_method)
    AdtBenchmark.verify_negative_variant = stamped(AdtBenchmark.verify_negative_variant)


def _evaluate(target) -> tuple:
    """``repro evaluate --fast --store TARGET``, timed verdict by verdict.

    Returns the report, the store, the time taken less the reference loops
    run between verdicts, the verdicts' latencies and the reference times.
    """
    from repro.evaluation.runner import run_evaluation
    from repro.store.obligation_store import ObligationStore
    from repro.typecheck.checker import CheckerConfig

    benchmarks = corpus.fast_benchmarks()
    latencies: list[float] = []
    references: list[float] = []
    started = time.perf_counter()
    _stamp_verdicts(latencies, references, started)
    store = ObligationStore(target)
    report = run_evaluation(benchmarks, config=CheckerConfig(), store=store)
    store.flush()
    store.commit_run()
    wall = time.perf_counter() - started - sum(references)
    return report, store, wall, latencies, references


def cold_pass(store_dir: Path, out_dir: Path, traced: bool) -> dict:
    """One serial pass over the fast corpus with a fresh local store."""
    _begin_trace(traced)
    report, store, wall, latencies, references = _evaluate(store_dir)
    unit = {
        "wall": wall,
        "references": references,
        "latencies": latencies,
        "wrong": corpus.count_wrong(corpus.report_verdicts(report)),
        "tables": corpus.deterministic_tables(report),
        "table_counters": _table_counters(_method_results(report)),
        "store_backend": store.backend_name,
        "rss_mb": _rss_mb(),
    }
    _end_trace(traced, out_dir, unit)
    return unit


# ---------------------------------------------------------------------------
# warm-recheck: single-verdict rechecks against a filled store server
# ---------------------------------------------------------------------------

def fill_pass(url: str) -> dict:
    """Set-up: a cold evaluation through the server fills its store."""
    report, store, wall, _, references = _evaluate(url)
    store.backend.close()
    return {"wrong": corpus.count_wrong(corpus.report_verdicts(report)),
            "seconds": wall, "references": references}


class _Client:
    """What ``repro check --store URL`` does, one verdict per request."""

    def __init__(self, url: str) -> None:
        from repro.typecheck.checker import CheckerConfig

        self.url = url
        self.config = CheckerConfig()
        self.benchmarks = {benchmark.key: benchmark for benchmark in corpus.fast_benchmarks()}
        self.ids = sorted(corpus.EXPECTED)
        self.table_counters = dict.fromkeys(TABLE_COUNTERS, 0)
        self._lock = threading.Lock()

    def request(self, key: str, name: str) -> tuple[float, bool]:
        """One request: open a session, check, flush, commit the run."""
        from repro.store.obligation_store import ObligationStore

        started = time.perf_counter()
        store = ObligationStore(self.url)
        try:
            benchmark = self.benchmarks[key]
            checker = benchmark.make_checker(self.config, store=store)
            result = corpus.check_one(benchmark, name, checker)
            store.flush()
            store.commit_run()
            elapsed = time.perf_counter() - started
            # a store miss means the request silently discharged: a failure
            ok = corpus.verdict_ok(key, name, result.verified) and store.summary()["misses"] == 0
        finally:
            store.backend.close()
            layers.RECORDER.retire_checkers()
        with self._lock:
            for counter, value in _table_counters([result]).items():
                self.table_counters[counter] += value
        return elapsed, ok

    def closed_loop(self, seconds: float, seed: int, clients: int) -> dict:
        """``clients`` threads, each sending its next request on a reply.

        The loop runs in segments of :data:`SEGMENT_S`.  Between segments
        the threads are joined and the reference loop is timed, so the host's
        speed is sampled all through the loop; ``wall`` excludes those pauses.
        """
        rngs = [random.Random(f"{seed}:{index}") for index in range(clients)]
        sequences = [0] * clients
        latencies: list[float] = []
        outcome = {"attempted": 0, "failed": 0, "wall": 0.0}
        references = [speed.reference_s()]

        def run(index: int, deadline: float) -> None:
            while True:  # at least one request per client, however short the run
                key, name = rngs[index].choice(self.ids)
                sequences[index] += 1
                layers.RECORDER.set_request(f"c{index}-{sequences[index]}")
                try:
                    elapsed, ok = self.request(key, name)
                except Exception:  # a crashed request is a failed verdict
                    elapsed, ok = None, False
                with self._lock:
                    outcome["attempted"] += 1
                    if ok:
                        latencies.append(elapsed)
                    else:
                        outcome["failed"] += 1
                if time.perf_counter() >= deadline:
                    return

        while outcome["wall"] < seconds:
            started = time.perf_counter()
            deadline = started + min(SEGMENT_S, seconds - outcome["wall"])
            threads = [threading.Thread(target=run, args=(index, deadline))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            outcome["wall"] += time.perf_counter() - started
            references.append(speed.reference_s())
        return {"latencies": latencies, "references": references, **outcome}


def warm_client(url: str, out_dir: Path, seconds: float, seed: int, trace: bool) -> dict:
    """The client process: warm up on every verdict once, then the loop(s)."""
    client = _Client(url)
    started = time.perf_counter()
    warm_wrong = 0
    for key, name in client.ids:
        _, ok = client.request(key, name)
        warm_wrong += not ok
    warmup_s = time.perf_counter() - started
    phases = {}
    # with --trace 1 the first half runs untraced (the overhead baseline)
    if trace:
        phases["untraced"] = client.closed_loop(seconds / 2, seed, WARM_CLIENTS)
        client.table_counters = dict.fromkeys(TABLE_COUNTERS, 0)
        before = _server_stats(url)
        _begin_trace(True)
        traced = phases["traced"] = client.closed_loop(seconds / 2, seed + 1, WARM_CLIENTS)
        traced["table_counters"] = client.table_counters
        _end_trace(True, out_dir, traced)
        traced["server"] = {"before": before, "after": _server_stats(url)}
    else:
        phases["untraced"] = client.closed_loop(seconds, seed, WARM_CLIENTS)
    return {"warmup_s": warmup_s, "warm_wrong": warm_wrong, "phases": phases,
            "rss_mb": _rss_mb()}


# ---------------------------------------------------------------------------
# fleet-drain: the cold corpus through a local two-worker fleet
# ---------------------------------------------------------------------------

def fleet_pass(url: str, out_dir: Path, spool_dir: Path, traced: bool) -> dict:
    """One ``repro dispatch --local-workers 2`` pass against a fresh server."""
    import repro.engine.dispatch as dispatch
    from repro.store.obligation_store import ObligationStore
    from repro.typecheck.checker import CheckerConfig

    before = _server_stats(url) if traced else None
    _begin_trace(traced, spool_dir)
    # the coordinator samples the host's speed after each verdict of its
    # collect walk and its assembly; every verdict of the pass lands at once
    references: list[float] = []
    started = time.perf_counter()
    _stamp_verdicts([], references, started)
    store = ObligationStore(url)
    report = dispatch.run_distributed_evaluation(
        store, include_slow=False, config=CheckerConfig(), local_workers=FLEET_WORKERS
    )
    store.flush()
    store.commit_run()
    wall = time.perf_counter() - started - sum(references)
    store.backend.close()
    unit = {
        "wall": wall,
        "references": references,
        "wrong": corpus.count_wrong(corpus.report_verdicts(report)),
        "tables": corpus.deterministic_tables(report),
        "table_counters": _table_counters(_method_results(report)),
        "dispatch": report.dispatch,
        "rss_mb": _rss_mb(),
    }
    _end_trace(traced, out_dir, unit)
    if traced:
        unit["server"] = {"before": before, "after": _server_stats(url)}
    return unit


# ---------------------------------------------------------------------------
# orchestration, in the benchmark process
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: scratch space, servers, and what was measured."""

    def __init__(self, root: Path, out_dir: Path, env: dict) -> None:
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.scratch = out_dir / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.servers: list[procs.StoreServer] = []
        #: set-up part -> its times as measured, and scaled to the reference
        #: speed by the reference loops timed around each
        self.setup_measured: dict[str, list[float]] = {}
        self.setup_samples: dict[str, list[float]] = {}
        self.defaults: dict[str, str] = {}
        self._serial = 0

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        return self.scratch / f"{label}-{self._serial}"

    def note_setup(self, part: str, seconds: float, references: list[float]) -> None:
        self.setup_measured.setdefault(part, []).append(seconds)
        self.setup_samples.setdefault(part, []).append(speed.scaled(seconds, references))

    def start_server(self) -> procs.StoreServer:
        references = [speed.reference_s()]
        server = procs.StoreServer(self.root, self.fresh_dir("served"), self.env)
        self.servers.append(server)
        references.append(speed.reference_s())
        self.note_setup("server_start", server.start_seconds, references)
        self.defaults["served_store_backend"] = str(server.identity.get("backend"))
        return server

    def stop_server(self, server: procs.StoreServer) -> float:
        rss = server.peak_rss_mb()
        server.stop()
        self.servers.remove(server)
        shutil.rmtree(server.store_dir, ignore_errors=True)
        return rss

    def close(self) -> None:
        for server in list(self.servers):
            server.stop()
        self.servers.clear()
        shutil.rmtree(self.scratch, ignore_errors=True)
        if not any(self.out_dir.iterdir()):
            self.out_dir.rmdir()

    def setup_s(self, measured: bool = False) -> float:
        parts = self.setup_measured if measured else self.setup_samples
        return sum(statistics.median(samples) for samples in parts.values())


class Outcome:
    """What one run measured, before it becomes metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: correctness problems that are not a single verdict's failure
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.verdicts_ok = 0
        self.timed_s = 0.0
        #: reference-loop times taken around every untraced timed section
        self.references: list[float] = []
        self.rss_mb: list[float] = []
        self.server_rss_mb: list[float] = []
        self.traced_units: list[dict] = []
        self.traced_verdicts = 0
        #: wall time of the traced passes (the traced verdicts_per_s base)
        self.traced_wall = 0.0
        self.overhead_ratio = 0.0
        #: per-pass figures printed for inspection
        self.samples: dict[str, list] = {}

    def note(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(round(value, 6))

    def fail_pass(self, verdicts: int, why: str) -> None:
        self.attempted += verdicts
        self.failed += verdicts
        self.problems.append(why.strip().splitlines()[-1])

    def add_timed(self, verdicts: int, wall: float, latencies: list[float],
                  references: list[float]) -> None:
        """Count an untraced timed section and the verdicts it returned."""
        self.verdicts_ok += verdicts
        self.timed_s += wall
        self.latencies.extend(latencies)
        self.references.extend(references)

    def rate(self) -> float:
        return self.verdicts_ok / self.timed_s if self.timed_s else 0.0

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """The end-to-end metrics as measured (see ``speed.rescale``)."""
        from metrics import percentile

        if not self.latencies:
            raise RuntimeError("no verdict completed in the timed section")
        self.samples["latency_samples"] = [len(self.latencies)]
        peak = max(self.rss_mb)
        return {
            "setup_s": setup_s,
            "verdicts_per_s": self.rate(),
            "verdict_p50_ms": 1000 * statistics.median(self.latencies),
            "verdict_p90_ms": 1000 * percentile(self.latencies, 0.9),
            "peak_rss_mb": peak,
            "server_rss_mb": max(self.server_rss_mb) if self.server_rss_mb else peak,
        }


def _passes(seconds: float):
    """One iteration per pass: at least one, then until ``seconds`` are up."""
    deadline = time.monotonic() + seconds
    yield
    while time.monotonic() < deadline:
        yield


def _phases(args) -> list[tuple[bool, float]]:
    """(traced?, seconds) per phase: traced runs split time half and half."""
    if args.trace:
        return [(False, args.seconds / 2), (True, args.seconds / 2)]
    return [(False, args.seconds)]


def _account_pass(outcome: Outcome, unit: dict, traced: bool, latencies: list[float]) -> None:
    verdicts = corpus.VERDICTS_PER_PASS
    outcome.attempted += verdicts
    outcome.failed += unit["wrong"]
    outcome.rss_mb.append(unit["rss_mb"])
    if traced:
        unit["wall_sum"] = unit["wall"]
        outcome.traced_units.append(unit)
        outcome.traced_verdicts += verdicts - unit["wrong"]
        outcome.traced_wall += unit["wall"]
    else:
        references = unit["references"]
        outcome.add_timed(verdicts - unit["wrong"], unit["wall"], latencies, references)
        outcome.note("pass_reference_ms", 1000 * statistics.fmean(references))
    outcome.note("pass_wall_s", unit["wall"])


def _finish_trace(outcome: Outcome) -> None:
    if outcome.traced_wall and outcome.rate():
        traced_rate = outcome.traced_verdicts / outcome.traced_wall
        outcome.overhead_ratio = traced_rate / outcome.rate()


def run_cold(run: Run, args) -> Outcome:
    outcome = Outcome()
    tables = None
    for traced, seconds in _phases(args):
        for _ in _passes(seconds):
            store_dir = run.fresh_dir("cold")
            try:
                unit = procs.run_forked(
                    lambda: cold_pass(store_dir, run.out_dir, traced), PASS_TIMEOUT
                )
            except procs.PassFailed as exc:
                outcome.fail_pass(corpus.VERDICTS_PER_PASS, str(exc))
                continue
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
            run.defaults.setdefault("local_store_backend", unit["store_backend"])
            if tables is None:
                tables = unit["tables"]
            elif unit["tables"] != tables:
                outcome.problems.append("deterministic tables differ between cold passes")
            _account_pass(outcome, unit, traced, unit["latencies"])
    _finish_trace(outcome)
    return outcome


def run_fleet(run: Run, args) -> Outcome:
    outcome = Outcome()
    all_tables = []
    for traced, seconds in _phases(args):
        for _ in _passes(seconds):
            server = run.start_server()
            try:
                unit = procs.run_forked(
                    lambda: fleet_pass(server.url, run.out_dir, run.scratch, traced),
                    PASS_TIMEOUT,
                )
            except procs.PassFailed as exc:
                outcome.fail_pass(corpus.VERDICTS_PER_PASS, str(exc))
                continue
            finally:
                outcome.server_rss_mb.append(run.stop_server(server))
            all_tables.append(unit["tables"])
            # fleet verdicts land together, when the pass assembles
            _account_pass(outcome, unit, traced, [unit["wall"]] * corpus.VERDICTS_PER_PASS)
            outcome.note("drain_s", unit["dispatch"]["drain_seconds"])
    # the fleet must assemble exactly the tables a serial cold pass gets
    store_dir = run.fresh_dir("reference")
    try:
        reference = procs.run_forked(
            lambda: cold_pass(store_dir, run.out_dir, False), PASS_TIMEOUT
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if reference["wrong"]:
        outcome.problems.append("the serial reference pass got verdicts wrong")
    mismatched = sum(tables != reference["tables"] for tables in all_tables)
    if mismatched:
        outcome.problems.append(f"{mismatched} fleet pass(es) assembled tables unlike serial")
    _finish_trace(outcome)
    return outcome


def run_warm(run: Run, args) -> Outcome:
    outcome = Outcome()
    server = None
    for attempt in range(WARM_SETUP_REPEATS):
        if server is not None:
            run.stop_server(server)
        server = run.start_server()
        fill = procs.run_forked(lambda: fill_pass(server.url), PASS_TIMEOUT)
        run.note_setup("fill", fill["seconds"], fill["references"])
        if fill["wrong"]:
            outcome.problems.append(f"store fill {attempt} got {fill['wrong']} verdicts wrong")
    try:
        client = procs.run_forked(
            lambda: warm_client(server.url, run.out_dir, args.seconds, args.seed, bool(args.trace)),
            args.seconds + PASS_TIMEOUT,
        )
    except procs.PassFailed as exc:
        outcome.fail_pass(1, str(exc))
        client = None
    finally:
        outcome.server_rss_mb.append(run.stop_server(server))
    if client is None:
        return outcome
    # the client's first request per verdict is not set-up (it is not in
    # setup_s's definition); it is printed for inspection only
    outcome.note("client_warmup_s", client["warmup_s"])
    if client["warm_wrong"]:
        outcome.problems.append(f"{client['warm_wrong']} warm-up requests failed")
    outcome.rss_mb.append(client["rss_mb"])
    untraced = client["phases"]["untraced"]
    outcome.attempted += untraced["attempted"]
    outcome.failed += untraced["failed"]
    outcome.note("requests", untraced["attempted"])
    outcome.add_timed(len(untraced["latencies"]), untraced["wall"], untraced["latencies"],
                      untraced["references"])
    traced = client["phases"].get("traced")
    if traced is not None:
        outcome.attempted += traced["attempted"]
        outcome.failed += traced["failed"]
        traced["wall_sum"] = sum(traced["latencies"])
        outcome.traced_units.append(traced)
        outcome.traced_verdicts = len(traced["latencies"])
        outcome.traced_wall = traced["wall"]
        _finish_trace(outcome)
    return outcome


WORKLOADS = {"cold-corpus": run_cold, "warm-recheck": run_warm, "fleet-drain": run_fleet}
