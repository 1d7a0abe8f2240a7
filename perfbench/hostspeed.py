"""How fast the host runs at the moment, and timings scaled to a fixed speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a third or more over seconds to minutes while the program stays the same.
A fixed pure-Python loop (the probe), timed between the slices of a run,
tracks that drift: on a 2-vCPU VM its time correlated at ~0.9 with both a
``run_cell`` batch and a dense ``fastdom_tree`` solve timed beside it.
Each slice's timings are scaled by the probes just before and after it
to the speed at which the probe takes :data:`PROBE_REF_S`.  The probe
runs no code of the repository, so a change to the program moves the
scaled timings as it moves the raw ones.

The CPUs of such a host slow down independently (two vCPUs' probe times
correlated at ~0.1).  A workload whose processes keep every CPU busy
(``sweep``, ``serve``) is probed on each CPU in turn; a single-process
one (``dense``) is probed wherever the scheduler runs it, as its own
code runs.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, List

_now = time.perf_counter

PROBE_LOOPS = 500_000
#: Above this many usable CPUs, probe unpinned rather than on each.
PROBE_MAX_CPUS = 4
#: A round figure within the probe's range (21-40 ms) on the 2-vCPU VM
#: the bounds were set on (Python 3.11.7); timings are reported as if
#: the host ran at the speed where the probe takes this long.
PROBE_REF_S = 0.025


def _loop_s() -> float:
    started = _now()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return _now() - started


def probe_s(each_cpu: bool = True) -> float:
    """Seconds the probe loop takes now: with ``each_cpu``, the mean
    over the CPUs this process may use, pinned to each in turn (unpinned
    where there are more than :data:`PROBE_MAX_CPUS`)."""
    cpus = os.sched_getaffinity(0)
    if not each_cpu or len(cpus) > PROBE_MAX_CPUS:
        return _loop_s()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class HostSpeed:
    """Probes taken between the timed slices of a run: slice ``i`` lies
    between probe ``i`` and probe ``i + 1``."""

    def __init__(self, each_cpu: bool = True) -> None:
        self.each_cpu = each_cpu
        self.probes: List[float] = [probe_s(each_cpu)]

    def mark(self) -> float:
        """End the current slice with a probe; returns its scale."""
        self.probes.append(probe_s(self.each_cpu))
        return self.scale(len(self.probes) - 2)

    def scale(self, index: int) -> float:
        """Factor taking the seconds of slice ``index`` to the
        reference speed (below 1 while the host runs slow)."""
        return PROBE_REF_S / ((self.probes[index] + self.probes[index + 1]) / 2)


def scaled_median(measure: Callable[[], float], repeats: int) -> float:
    """Median over ``repeats`` calls of ``measure()`` (seconds), each
    scaled to the reference speed."""
    speed = HostSpeed()
    samples = []
    for _ in range(repeats):
        seconds = measure()
        samples.append(seconds * speed.mark())
    return statistics.median(samples)
