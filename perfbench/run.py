"""The HAT checker's benchmark: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop on the checker's default configuration):

``cold-corpus``
    The fast corpus (6 ADT/library rows: 24 methods and 5 known-bad
    variants, 29 verdicts) checked serially, each pass in a child forked
    from this process after its imports (fresh interned terms, SFA compile
    cache and alphabet memo) with a fresh local store — what
    ``repro evaluate --fast --store DIR`` does.  Touches no remote store.
``warm-recheck``
    Two client threads in one client process, each sending a seeded random
    draw from the 29 verdicts; a request does what
    ``repro check --store URL`` does (open a session on the one
    ``repro store serve``, check, flush, ``commit_run``).  The server's store
    is filled during set-up, so a request that misses the store fails.
``fleet-drain``
    The same corpus through ``run_distributed_evaluation(local_workers=2)``
    (``repro dispatch --local-workers 2``), each pass against a fresh server
    and store; its tables must equal a serial cold pass's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced: ``setup_s`` (this process's imports, server start up to
the first handshake, and on ``warm-recheck`` the store fill; each part is
the median of several set-ups), ``verdicts_per_s``,
``verdict_p50_ms``/``verdict_p90_ms`` (request to verdict; on
``fleet-drain`` every verdict of a pass lands when the pass assembles, so
each pass contributes its wall time once per verdict), ``peak_rss_mb`` (the
largest verifying process) and ``server_rss_mb`` (the store server; on
``cold-corpus`` the store is local, so it is the verifying process).
Every time among them is scaled to the reference speed of ``speed.py`` by
a fixed reference loop timed all through the run, so a spell in which the
host runs slower does not read as a slower checker; the measured values and
the reference times are printed above the last line.

With ``--trace 1`` the first half of the run is untraced and the second half
traced (see ``layers.py``); the last line carries the per-layer metrics of
``metrics.py``, spans go to ``.perfbench-out/<workload>-<seed>/spans.jsonl``.

Every ``REPRO_*`` variable is removed from this process's environment and
from every process it starts, and no ``CheckerConfig`` field is set, so the
run measures the defaults a user gets; the resolved defaults are printed.
``PYTHONHASHSEED`` is fixed, so every run sees the same set and dict orders.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

import procs
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cold-corpus", "warm-recheck", "fleet-drain")
#: every run hashes str and bytes the same way (see main)
HASH_SEED = "0"
#: how many extra times the imports are timed (in forked children)
IMPORT_REPEATS = 8
#: the modules a checker client needs
IMPORTS = (
    "repro.suite.registry",
    "repro.typecheck.checker",
    "repro.evaluation.runner",
    "repro.evaluation.tables",
    "repro.engine.dispatch",
    "repro.store.obligation_store",
    "repro.store.remote",
)


class Interrupted(Exception):
    """SIGTERM/SIGINT arrived; unwind so every child is stopped."""


def _interrupt(signum, _frame) -> None:
    raise Interrupted(f"signal {signum}")


def scrub_environment() -> dict:
    """Drop every REPRO_* variable; keep temporaries inside the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # servers import from the bytecode the build step wrote, like this process
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    return dict(os.environ)


def import_program() -> list[tuple[float, list[float]]]:
    """Import the checker, then re-time the import in forked children.

    This process imports first, so no child starts while it imports.  Each
    child then forgets every module the import added and imports again;
    children run one after another.  Every sample comes with the reference
    loop's times around it.
    """
    src = ROOT / "src"
    # the build step: byte-compile the sources once, so every run after the
    # first in a checkout imports from the same cached bytecode
    sys.dont_write_bytecode = False
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, str(src))
    before = set(sys.modules)
    references = [speed.reference_s()]
    started = time.perf_counter()
    for module in IMPORTS:
        __import__(module)
    samples = [(time.perf_counter() - started, references + [speed.reference_s()])]
    added = [name for name in sys.modules if name not in before]

    def reimport() -> tuple[float, list[float]]:
        for name in added:
            sys.modules.pop(name, None)
        references = [speed.reference_s()]
        again = time.perf_counter()
        for module in IMPORTS:
            __import__(module)
        return time.perf_counter() - again, references + [speed.reference_s()]

    for _ in range(IMPORT_REPEATS):
        samples.append(procs.run_forked(reimport, timeout=60.0))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    return samples


def resolved_defaults() -> dict:
    from repro.smt.backends import resolve_backend
    from repro.typecheck.checker import CheckerConfig

    config = CheckerConfig()
    return {
        "discharge": config.discharge,
        "sat_backend": resolve_backend(config.backend),
        "schedule": config.schedule,
        "store_backend": config.store_backend,
        "workers": str(config.workers),
        "memo": str(config.cross_obligation_memo),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and dict orders follow the hash seed, and the checker's search
        # order with them: across seeds a cold pass's speed differs by ~7%
        # and its p90 by up to 20%, more than a run can average out.  One
        # fixed seed, for this process and every child, compares like with
        # like; the same process carries on under it.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    procs.become_subreaper()
    out_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    env = scrub_environment()
    steal_before = speed.steal_s()
    import_samples = import_program()

    import workloads
    from metrics import END_TO_END, PER_LAYER, per_layer

    run = workloads.Run(ROOT, out_dir, env)
    for seconds, references in import_samples:
        run.note_setup("imports", seconds, references)
    result = None
    error = None
    try:
        run.defaults.update(resolved_defaults())
        outcome = workloads.WORKLOADS[args.workload](run, args)
        if args.trace:
            values = per_layer(outcome.traced_units, outcome.traced_verdicts,
                               outcome.overhead_ratio)
            metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                       for name in PER_LAYER}
        else:
            measured = outcome.end_to_end(run.setup_s(measured=True))
            values = speed.rescale(measured, outcome.references)
            values["setup_s"] = run.setup_s()
            print(f"measured: {json.dumps(measured, sort_keys=True)}")
            print(f"reference_ms: {json.dumps(speed.summary(outcome.references))}")
            metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                       for name in END_TO_END}
        result = {
            "correct": outcome.failed == 0 and not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
        print(f"defaults: {json.dumps(run.defaults, sort_keys=True)}")
        print(f"setup: {json.dumps(run.setup_samples, sort_keys=True)}")
        print(f"samples: {json.dumps(outcome.samples, sort_keys=True)}")
        # a slow spell with no steal is the host's speed, not a preemption
        print(f"steal_s: {speed.steal_s() - steal_before:.2f}")
        for problem in outcome.problems:
            print(f"problem: {problem}")
    except Exception:  # the run boundary: report, then stop every child
        error = traceback.format_exc()
    finally:
        run.close()
        strays = procs.reap_strays()
    if strays:
        # a child that outlived its pass is a hygiene failure in itself
        error = (error or "") + f"\n{strays} child process(es) outlived the run"
    if error or result is None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
