"""Multiprocess stress: N writer processes hammer one store; nothing is lost.

The acceptance suite of the concurrency work, against both backends:

* eight forked writers append distinct and overlapping entries, compact and
  commit runs against a single store path — afterwards every entry is
  present and intact (zero torn/skipped records) and the run log holds one
  record per writer under distinct sequence numbers;
* eight forked writers interleave appends with many run commits each —
  afterwards the run log's sequence numbers are exactly 1..N, none
  duplicated or lost, and every writer's records are there;
* real engine runs in concurrent processes (each discharging one shard slice
  of the fast corpus straight into the shared main log) leave a store a warm
  re-run answers with **zero** misses, producing deterministic tables
  byte-identical to a serial run's.
"""

import multiprocessing

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.store.obligation_store import ObligationStore, StoreEntry
from repro.typecheck.checker import CheckerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stress suite forks writer processes",
)

WRITERS = 8
DISTINCT = 20
SHARED = 10


def _entry(env, fp):
    return StoreEntry(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method="insert",
        spec="s1",
        library="l1",
        kind="postcondition",
        provenance="insert: postcondition",
    )


def _synthetic_writer(path, index, barrier):
    store = ObligationStore(path)
    barrier.wait()  # maximise contention: every writer starts at once
    for i in range(DISTINCT):
        store.record(_entry(f"env-{index}", f"w{index}-{i}"))
        if i % 5 == 4:
            store.flush()
    # overlapping keys: identical content (content-addressed), so any
    # interleaving of the writers must converge on the same bytes
    for i in range(SHARED):
        store.record(_entry("shared", f"common-{i}"))
    store.flush()
    if index % 2 == 0:
        store.compact()  # rewriters racing the appenders
    store.commit_run()
    store.backend.close()


def _run_forked(target, argslists):
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=target, args=args) for args in argslists]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    assert all(process.exitcode == 0 for process in processes), (
        f"writer exit codes: {[p.exitcode for p in processes]}"
    )
    return context


def test_eight_writers_lose_nothing(store_path):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    _run_forked(
        _synthetic_writer, [(store_path, index, barrier) for index in range(WRITERS)]
    )

    merged = ObligationStore(store_path)
    expected = {
        (f"env-{w}", f"w{w}-{i}") for w in range(WRITERS) for i in range(DISTINCT)
    } | {("shared", f"common-{i}") for i in range(SHARED)}
    assert {entry.key for entry in merged} == expected, "no write may be lost"
    assert merged.summary()["skipped"] == 0, "no record may be torn"
    assert [r["run"] for r in merged._runs] == list(range(1, WRITERS + 1)), (
        "every writer's run record survives under its own sequence number"
    )


COMMITS_PER_WRITER = 12


def _committing_writer(path, index, barrier):
    store = ObligationStore(path)
    barrier.wait()
    for round_ in range(COMMITS_PER_WRITER):
        store.record(_entry(f"env-{index}", f"r{round_}"))
        store.commit_run()  # flushes, then appends one run record
    store.backend.close()


def test_racing_run_commits_neither_duplicate_nor_lose_a_sequence(store_path):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    _run_forked(
        _committing_writer,
        [(store_path, index, barrier) for index in range(WRITERS)],
    )

    runs = ObligationStore(store_path)._runs
    total = WRITERS * COMMITS_PER_WRITER
    assert [record["run"] for record in runs] == list(range(1, total + 1)), (
        "sequence numbers are contiguous: none duplicated, none lost"
    )
    touched = sorted(key for record in runs for key in record["touched"])
    assert touched == sorted(
        f"env-{w}:r{r}" for w in range(WRITERS) for r in range(COMMITS_PER_WRITER)
    ), "every commit recorded exactly its own session's key"


def _engine_writer(path, index, shards, barrier):
    store = ObligationStore(path)
    barrier.wait()
    # shard=(k, N): the full deterministic emit walk, but discharge (and
    # record) only this slice — the per-obligation counters are exactly a
    # serial run's, while the *writes* race on the shared main log
    config = CheckerConfig(shard=(index, shards), workers=1)
    run_evaluation(include_slow=False, config=config, store=store)
    store.flush()
    store.commit_run()
    store.backend.close()


def test_concurrent_engine_writers_yield_a_clean_warm_store(store_path):
    shards = 3
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(shards)
    _run_forked(
        _engine_writer,
        [(store_path, index, shards, barrier) for index in range(shards)],
    )

    serial = run_evaluation(include_slow=False)
    warm_store = ObligationStore(store_path)
    warm = run_evaluation(include_slow=False, store=warm_store)
    summary = warm_store.summary()
    assert summary["misses"] == 0, "the racing writers must have lost nothing"
    assert summary["skipped"] == 0, "and torn nothing"
    for render in (table1, table3, table4):
        assert render(warm, deterministic=True) == render(serial, deterministic=True), (
            "a store populated by racing writers must warm byte-identical tables"
        )
