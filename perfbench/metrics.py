"""Turning measured passes into the metrics the benchmark prints.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from the traced passes; every count and time among them is *per verdict*
(summed over the traced passes, divided by the verdicts those passes
returned), so they compare across workloads and run lengths.  Ratios are
plain ratios and read 0 when their base is 0 (the layer was idle).
"""

from __future__ import annotations

import statistics

from layers import RPC_OPS, SERVER_OPS

SECONDS = "s/verdict"
COUNT = "count/verdict"
RATIO = "ratio"

#: every per-layer metric: name -> (unit, better).  The comment on each
#: group names the end-to-end metric (on which workload) it should move.
PER_LAYER: dict[str, tuple[str, str]] = {
    # setup_s on warm-recheck; a small share of verdicts_per_s on cold-corpus
    "lang.desugar_calls": (COUNT, "lower"),
    "lang.desugar_s": (SECONDS, "lower"),
    # verdict_p50_ms on warm-recheck
    "typecheck.check_calls": (COUNT, "lower"),
    "typecheck.check_s": (SECONDS, "lower"),
    "typecheck.self_s": (SECONDS, "lower"),
    "types.infeasible_calls": (COUNT, "lower"),
    "types.infeasible_s": (SECONDS, "lower"),
    # verdicts_per_s on cold-corpus
    "engine.discharge_calls": (COUNT, "lower"),
    "engine.discharge_s": (SECONDS, "lower"),
    "engine.obligations_emitted": (COUNT, "lower"),
    "engine.obligations_discharged": (COUNT, "lower"),
    "engine.deduped_aliases": (COUNT, "higher"),
    "engine.memo_hits": (COUNT, "higher"),
    "engine.store_hits": (COUNT, "higher"),
    "engine.store_misses": (COUNT, "lower"),
    # verdict_p90_ms and verdicts_per_s on cold-corpus, verdicts_per_s on
    # fleet-drain; idle (zero calls) on warm-recheck
    "sfa.inclusion_calls": (COUNT, "lower"),
    "sfa.inclusion_s": (SECONDS, "lower"),
    "sfa.group_calls": (COUNT, "lower"),
    "sfa.group_s": (SECONDS, "lower"),
    "sfa.alphabet_s": (SECONDS, "lower"),
    "sfa.alphabet_builds": (COUNT, "lower"),
    "sfa.alphabet_memo_replays": (COUNT, "higher"),
    "sfa.derivative_hit_ratio": (RATIO, "higher"),
    "sfa.prod_states": (COUNT, "lower"),
    # verdict_p90_ms on cold-corpus (DFA/Graph, ConnectedGraph/Graph conflicts)
    "smt.sat_calls": (COUNT, "lower"),
    "smt.sat_s": (SECONDS, "lower"),
    "smt.queries": (COUNT, "lower"),
    "smt.cache_hit_ratio": (RATIO, "higher"),
    "smt.conflicts": (COUNT, "lower"),
    # verdict_p50_ms on warm-recheck; verdicts_per_s on cold-corpus (writes)
    "store.open_s": (SECONDS, "lower"),
    "store.prefetch_s": (SECONDS, "lower"),
    "store.invalidate_s": (SECONDS, "lower"),
    "store.flush_s": (SECONDS, "lower"),
    "store.commit_run_s": (SECONDS, "lower"),
    "store.hit_ratio": (RATIO, "higher"),
    # verdict_p50_ms and verdict_p90_ms on warm-recheck; zero on cold-corpus
    **{
        f"store.rpc.{op}_{kind}": (unit, "lower")
        for op in RPC_OPS
        for kind, unit in (("calls", COUNT), ("s", SECONDS))
    },
    "store.rpc_per_verdict": (COUNT, "lower"),
    "store.rpc_reused_ratio": (RATIO, "higher"),
    "store.rpc_retries": (COUNT, "lower"),
    # verdict_p90_ms and server_rss_mb on warm-recheck (from /stats deltas;
    # wait_s is client RPC time minus server busy time)
    "store.server.busy_s": (SECONDS, "lower"),
    **{f"store.server.{op}_s": (SECONDS, "lower") for op in SERVER_OPS},
    "store.server.wait_s": (SECONDS, "lower"),
    "store.server.lookup_hit_ratio": (RATIO, "higher"),
    # verdicts_per_s on fleet-drain; zero everywhere else
    "store.queue.enqueued": (COUNT, "lower"),
    "store.queue.leased": (COUNT, "lower"),
    "store.queue.reclaimed": (COUNT, "lower"),
    "store.queue.empty_leases": (COUNT, "lower"),
    "store.queue.stale_completes": (COUNT, "lower"),
    # verdicts_per_s on fleet-drain
    "dispatch.collect_s": (SECONDS, "lower"),
    "dispatch.drain_s": (SECONDS, "lower"),
    "dispatch.assemble_s": (SECONDS, "lower"),
    "worker.leases": (COUNT, "lower"),
    "worker.reemit_walks": (COUNT, "lower"),
    "worker.busy_s": (SECONDS, "lower"),
    "worker.idle_tail_s": (SECONDS, "lower"),
    # the tracer itself: traced over untraced verdicts_per_s, and pass wall
    # time not covered by any top-level wrapped call
    "trace.overhead_ratio": (RATIO, "higher"),
    "trace.unattributed_s": (SECONDS, "lower"),
}

#: every end-to-end metric: name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "verdicts_per_s": ("1/s", "higher", 0.24),
    "verdict_p50_ms": ("ms", "lower", 0.24),
    "verdict_p90_ms": ("ms", "lower", 0.24),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "server_rss_mb": ("MiB", "lower", 0.1),
}


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Merged:
    """Totals, counters and diagnostics summed over traced snapshots."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.engine: dict[str, float] = {}
        self.caches: dict[str, float] = {}

    def add(self, snapshot: dict) -> None:
        for name, (calls, inclusive, own) in snapshot["totals"].items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += inclusive
            entry[2] += own
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for diagnostic in snapshot["diagnostics"]:
            for name, value in diagnostic["engine"].items():
                self.engine[name] = self.engine.get(name, 0) + value
            for name, value in diagnostic["caches"].items():
                self.caches[name] = self.caches.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]


def _server_delta(units: list[dict]) -> tuple[dict, dict, dict]:
    """Per-op seconds/counts, lookup and queue counter deltas across units."""
    op_seconds: dict[str, float] = {}
    op_counts: dict[str, int] = {}
    other: dict[str, float] = {}
    for unit in units:
        server = unit.get("server")
        if not server:
            continue
        before, after = server["before"], server["after"]
        for op, record in after["ops"].items():
            previous = before["ops"].get(op, {"count": 0, "seconds": 0.0})
            op_seconds[op] = op_seconds.get(op, 0.0) + record["seconds"] - previous["seconds"]
            op_counts[op] = op_counts.get(op, 0) + record["count"] - previous["count"]
        for key in ("requested", "found"):
            other[f"lookup.{key}"] = other.get(f"lookup.{key}", 0) + (
                after["lookup"][key] - before["lookup"][key]
            )
        for key, value in after["queue"]["counters"].items():
            other[f"queue.{key}"] = other.get(f"queue.{key}", 0) + (
                value - before["queue"]["counters"].get(key, 0)
            )
    return op_seconds, op_counts, other


def per_layer(units: list[dict], verdicts: int, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from the traced units of one run."""
    merged, workers = _Merged(), _Merged()
    table: dict[str, float] = {}
    walls = top_level = 0.0
    dispatch_total = dispatch_drain = 0.0
    for unit in units:
        merged.add(unit["trace"]["self"])
        for worker in unit["trace"]["workers"]:
            merged.add(worker)
            workers.add(worker)
        for name, value in unit["table_counters"].items():
            table[name] = table.get(name, 0) + value
        walls += unit["wall_sum"]
        top_level += unit["trace"]["self"]["top_level_s"]
        if unit.get("dispatch"):
            dispatch_total += unit["dispatch"]["total_seconds"]
            dispatch_drain += unit["dispatch"]["drain_seconds"]
    per = max(verdicts, 1)
    out: dict[str, float] = {}

    def timed(metric: str, span: str) -> None:
        out[f"{metric}_calls"] = merged.calls(span) / per
        out[f"{metric}_s"] = merged.seconds(span) / per

    out["lang.desugar_calls"] = merged.calls("lang.desugar") / per
    out["lang.desugar_s"] = merged.seconds("lang.desugar") / per
    out["typecheck.check_calls"] = merged.calls("typecheck.check") / per
    out["typecheck.check_s"] = merged.seconds("typecheck.check") / per
    out["typecheck.self_s"] = merged.self_seconds("typecheck.check") / per
    timed("types.infeasible", "types.infeasible")
    timed("engine.discharge", "engine.discharge")
    for name in ("obligations_emitted", "obligations_discharged", "deduped_aliases",
                 "memo_hits", "store_hits", "store_misses"):
        out[f"engine.{name}"] = merged.engine.get(name, 0) / per
    timed("sfa.inclusion", "sfa.inclusion")
    timed("sfa.group", "sfa.group")
    out["sfa.alphabet_s"] = merged.seconds("sfa.alphabet") / per
    out["sfa.alphabet_builds"] = merged.caches.get("alphabet_memo_builds", 0) / per
    out["sfa.alphabet_memo_replays"] = merged.caches.get("alphabet_memo_replays", 0) / per
    hits = merged.caches.get("derivative_cache_hits", 0)
    out["sfa.derivative_hit_ratio"] = _ratio(
        hits, hits + merged.caches.get("derivative_cache_misses", 0)
    )
    out["sfa.prod_states"] = table.get("prod_states", 0) / per
    timed("smt.sat", "smt.sat")
    out["smt.queries"] = table.get("smt_queries", 0) / per
    out["smt.cache_hit_ratio"] = _ratio(table.get("smt_cache_hits", 0), table.get("smt_queries", 0))
    out["smt.conflicts"] = table.get("sat_conflicts", 0) / per
    for metric, span in (("open", "store.open"), ("prefetch", "store.prefetch"),
                         ("invalidate", "store.invalidate"), ("flush", "store.flush"),
                         ("commit_run", "store.commit_run")):
        out[f"store.{metric}_s"] = merged.seconds(span) / per
    store_hits = merged.engine.get("store_hits", 0)
    out["store.hit_ratio"] = _ratio(store_hits, store_hits + merged.engine.get("store_misses", 0))
    rpc_calls = rpc_seconds = 0.0
    for op in RPC_OPS:
        timed(f"store.rpc.{op}", f"store.rpc.{op}")
        rpc_calls += merged.calls(f"store.rpc.{op}")
        rpc_seconds += merged.seconds(f"store.rpc.{op}")
    out["store.rpc_per_verdict"] = rpc_calls / per
    out["store.rpc_reused_ratio"] = _ratio(
        merged.counters.get("rpc.reused", 0), merged.counters.get("rpc.posts", 0)
    )
    out["store.rpc_retries"] = (
        merged.counters.get("rpc.posts", 0) - merged.counters.get("rpc.calls", 0)
    ) / per
    op_seconds, op_counts, other = _server_delta(units)
    busy = sum(op_seconds.get(op, 0.0) for op in SERVER_OPS)
    out["store.server.busy_s"] = busy / per
    for op in SERVER_OPS:
        out[f"store.server.{op}_s"] = op_seconds.get(op, 0.0) / per
    out["store.server.wait_s"] = (rpc_seconds - busy) / per if rpc_calls else 0.0
    out["store.server.lookup_hit_ratio"] = _ratio(
        other.get("lookup.found", 0), other.get("lookup.requested", 0)
    )
    issued = other.get("queue.leases_issued", 0)
    out["store.queue.enqueued"] = other.get("queue.enqueued", 0) / per
    out["store.queue.leased"] = issued / per
    out["store.queue.reclaimed"] = other.get("queue.reclaimed", 0) / per
    out["store.queue.empty_leases"] = (op_counts.get("lease", 0) - issued) / per
    out["store.queue.stale_completes"] = other.get("queue.stale_completes", 0) / per
    assemble = merged.seconds("dispatch.assemble")
    out["dispatch.collect_s"] = (
        (dispatch_total - dispatch_drain - assemble) / per if dispatch_total else 0.0
    )
    out["dispatch.drain_s"] = dispatch_drain / per
    out["dispatch.assemble_s"] = assemble / per
    out["worker.leases"] = workers.counters.get("worker.leases", 0) / per
    out["worker.reemit_walks"] = workers.calls("worker.reemit") / per
    out["worker.busy_s"] = sum(
        workers.seconds(span)
        for span in ("worker.reemit", "store.flush", "store.rpc.complete")
    ) / per
    out["worker.idle_tail_s"] = workers.counters.get("worker.idle_tail_s", 0) / per
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.unattributed_s"] = (walls - top_level) / per
    missing = set(PER_LAYER) - set(out)
    if missing:  # every declared metric must be computed
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
