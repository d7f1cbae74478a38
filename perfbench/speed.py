"""Host speed: a fixed reference loop timed all through a run.

On a shared 2-vCPU Xeon virtual machine each vCPU runs at one of two speeds,
about 1.8x apart, switching on its own every tenth of a second to every
minute as other tenants load the host: a serial cold pass reads 0.97-1.75 s
within five minutes, the reference loop below reads about 4 or 7 ms, the two
vCPUs switch independently, no steal time is recorded and CPU time tracks
wall time.  Longer runs do not average the slow spells out, so two sets of
runs of the same code can differ by more than any useful bound.

So the benchmark times :func:`reference_s`, a short fixed loop of the
interpreter work the checker does (integer arithmetic, tuple keys, dict
updates, small objects), many times in each run, interleaved with the timed
work in the process doing it, and :func:`rescale` reports the run's times at
the reference speed: multiplied by :data:`REFERENCE_S` over the mean
reference time of the run's timed section, which follows the share of it
spent slow.  Set-up parts are short, so each is scaled by the reference
times taken around it (for the store fill, within it).  A change to the
checker moves the timed work and not the loop, so it shows in full; a slow
spell moves both, and cancels.  The measured values are printed beside the
scaled ones.

On ``fleet-drain`` the coordinator samples the loop after each verdict of
its collect walk and its assembly; the workers it forks do not.  A fleet
pass stretches with a slow spell about as much as the loop does (2.5 s
against 4.9 s, 3.7 ms against 7 ms), although part of it is fixed waiting.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

#: the reference loop's time at the reference speed (the fast spells of a
#: 2-vCPU Xeon VM); it only sets the scale of the reported times
REFERENCE_S = 0.004
_ROUNDS = 6_000
#: timed-section metrics that are durations, and those that are rates
DURATIONS = ("verdict_p50_ms", "verdict_p90_ms")
RATES = ("verdicts_per_s",)


class _Cell:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right


def _loop() -> int:
    table: dict = {}
    cells = []
    total = 0
    for i in range(_ROUNDS):
        total += i * i % 7 + (i ^ total) % 3
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        cells.append(_Cell(i, key))
        if len(cells) > 512:
            del cells[:256]
    return total + len(table) + cells[-1].left


def reference_s() -> float:
    """One reference time, in seconds."""
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started


def factor(references: list[float]) -> float:
    return REFERENCE_S / statistics.fmean(references)


def scaled(seconds: float, references: list[float]) -> float:
    """A time at the reference speed, given the reference times around it."""
    return seconds * factor(references)


def rescale(measured: dict[str, float], references: list[float]) -> dict[str, float]:
    """The timed section's metrics at the reference speed; others unchanged."""
    scale = factor(references)
    values = dict(measured)
    for name in DURATIONS:
        values[name] = measured[name] * scale
    for name in RATES:
        values[name] = measured[name] / scale
    return values


def steal_s() -> float:
    """CPU time the hypervisor has taken from this VM so far (all vCPUs)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def summary(references: list[float]) -> dict[str, float]:
    ordered = sorted(references)
    return {
        "samples": len(ordered),
        "min": 1000 * ordered[0],
        "mean": 1000 * statistics.fmean(ordered),
        "max": 1000 * ordered[-1],
    }
