"""The fast corpus as the benchmark sees it: verdict ids and known answers.

The expected verdicts are written out by hand from the paper's evaluation
(every method of the six fast ADT/library rows verifies; every known-bad
variant is rejected), not copied from checker output, so a checker that
starts verifying a bad variant or rejecting a good method fails the run.
"""

from __future__ import annotations

#: (benchmark key, method or variant name) -> should it verify?
EXPECTED: dict[tuple[str, str], bool] = {
    ("Set/KVStore", "insert"): True,
    ("Set/KVStore", "mem"): True,
    ("Set/KVStore", "empty"): True,
    ("Set/KVStore", "insert_bad"): False,
    ("Stack/KVStore", "push"): True,
    ("Stack/KVStore", "contains"): True,
    ("Stack/KVStore", "next"): True,
    ("Stack/KVStore", "is_empty"): True,
    ("Stack/KVStore", "push_bad"): False,
    ("LazySet/KVStore", "new_thunk"): True,
    ("LazySet/KVStore", "force"): True,
    ("LazySet/KVStore", "lazy_insert"): True,
    ("LazySet/KVStore", "lazy_mem"): True,
    ("LazySet/Set", "new_thunk"): True,
    ("LazySet/Set", "force"): True,
    ("LazySet/Set", "lazy_insert"): True,
    ("LazySet/Set", "lazy_mem"): True,
    ("LazySet/Set", "lazy_insert_bad"): False,
    ("DFA/Graph", "add_transition"): True,
    ("DFA/Graph", "del_transition"): True,
    ("DFA/Graph", "is_transition"): True,
    ("DFA/Graph", "add_state"): True,
    ("DFA/Graph", "is_state"): True,
    ("DFA/Graph", "add_transition_bad"): False,
    ("ConnectedGraph/Graph", "add_state"): True,
    ("ConnectedGraph/Graph", "add_edge"): True,
    ("ConnectedGraph/Graph", "has_state"): True,
    ("ConnectedGraph/Graph", "singleton"): True,
    ("ConnectedGraph/Graph", "add_edge_bad"): False,
}

VERDICTS_PER_PASS = len(EXPECTED)


def fast_benchmarks() -> list:
    """The fast corpus rows, after checking they match the known-answer table.

    Only names are compared here (no desugaring, no checking), so calling
    this leaves no interned state behind.
    """
    from repro.suite.registry import all_benchmarks

    benchmarks = all_benchmarks(include_slow=False)
    found = {
        (benchmark.key, name)
        for benchmark in benchmarks
        for name in (*benchmark.specs, *benchmark.negative_variants)
    }
    if found != set(EXPECTED):
        missing = sorted(set(EXPECTED) - found)
        extra = sorted(found - set(EXPECTED))
        raise RuntimeError(
            f"fast corpus differs from the known-answer table: "
            f"missing {missing}, unexpected {extra}"
        )
    return benchmarks


def check_one(benchmark, name: str, checker):
    """Check one verdict id: a method, or a known-bad variant."""
    if name in benchmark.specs:
        return benchmark.verify_method(name, checker)
    return benchmark.verify_negative_variant(name, checker)


def verdict_ok(key: str, name: str, verified: bool) -> bool:
    return EXPECTED[(key, name)] is verified


def report_verdicts(report) -> dict[tuple[str, str], bool]:
    """Every verdict an :class:`EvaluationReport` holds, keyed like EXPECTED."""
    verdicts: dict[tuple[str, str], bool] = {}
    for stats in report.adt_stats:
        key = f"{stats.adt}/{stats.library}"
        for result in stats.method_results:
            verdicts[(key, result.method)] = result.verified
    for negative in report.negative_results:
        verdicts[(negative.benchmark, negative.variant)] = not negative.rejected
    return verdicts


def count_wrong(verdicts: dict[tuple[str, str], bool]) -> int:
    """Verdicts missing from, or disagreeing with, the known-answer table."""
    return sum(
        1 for key, expected in EXPECTED.items() if verdicts.get(key) is not expected
    )


def deterministic_tables(report) -> dict[str, str]:
    """Tables 1/3/4 without their timing columns (comparable across runs)."""
    from repro.evaluation.tables import table1, table3, table4

    return {
        "table1": table1(report, deterministic=True),
        "table3": table3(report, deterministic=True),
        "table4": table4(report, deterministic=True),
    }
