"""Timing that the host's clock and its other tenants do not move.

On a shared virtual CPU the speed of the same code swings about
twofold, both from one tenth of a second to the next and between
stretches of minutes: the host changes the clock it gives the guest.
Timings of interpreter-bound code scale with that clock, so the same
program can read nearly twice as fast in one run as in the next. The
host also takes the CPU away from the guest now and then ("steal"), in
bursts that can last minutes, which stretches wall time but not CPU
time.

So the benchmark times work in CPU seconds (:func:`cpu_times`), and
:class:`HostClock` samples a fixed pure-Python kernel, independent of
the program under test, between the measured operations. Scaling a
CPU time by ``speed`` (sampled rate / :data:`NOMINAL_RATE`) converts it
to *nominal seconds*: the time the operation would take on an unshared
CPU at the speed where the kernel runs :data:`NOMINAL_RATE` times per
second. A change to the program moves nominal times; a change of host
clock, or the host's other tenants, do not.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Dict, List

#: Kernel runs per second at nominal speed: about the slow (unboosted)
#: clock of the 2-vCPU Xeon host the bounds were set on, where the
#: kernel read 10k-12k runs/s slow and 19k-21k boosted. Another host
#: reads at its own scale; only ratios between runs on one host matter.
NOMINAL_RATE = 11500.0

#: Kernel runs per sample, about 1 ms at nominal speed. A sample reads
#: the median run, so a run cut by an interrupt does not skew it.
SAMPLE_RUNS = 9

_WIDTH = 8
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def kernel() -> int:
    """Breadth-first distances over an 8x8 grid of tuple cells held in
    a dict: the dict, tuple and loop work of the simulation's sweeps."""
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for cell in frontier:
            d = dist[cell] + 1
            x, y = cell
            for dx, dy in _STEPS:
                other = (x + dx, y + dy)
                if 0 <= other[0] < _WIDTH and 0 <= other[1] < _WIDTH and other not in dist:
                    dist[other] = d
                    nxt.append(other)
        frontier = nxt
    return sum(dist.values())


class HostClock:
    """Samples of the host's speed, one per :meth:`sample` call."""

    def __init__(self):
        self.speeds: List[float] = []

    def sample(self) -> float:
        """Run the kernel :data:`SAMPLE_RUNS` times; returns and records
        the speed (>1: faster than nominal)."""
        runs = []
        for _ in range(SAMPLE_RUNS):
            started = time.thread_time()
            kernel()
            runs.append(time.thread_time() - started)
        speed = 1.0 / statistics.median(runs) / NOMINAL_RATE
        self.speeds.append(speed)
        return speed


def cpu_times() -> Dict[int, float]:
    """CPU seconds used so far by this process (key 0) and by each of
    its live children (the shard workers), by process id.

    The guest kernel leaves stolen time out of CPU time. Children are
    read from ``/proc``, which gives their run time in nanoseconds.
    """
    times = {0: time.process_time()}
    me = os.getpid()
    try:
        children = Path(f"/proc/{me}/task/{me}/children").read_text().split()
    except OSError:
        children = []
    for child in children:
        try:
            times[int(child)] = int(Path(f"/proc/{child}/schedstat").read_text().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            continue  # the child ended meanwhile
    return times


def cpu_spent(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds used between two :func:`cpu_times` readings; a child
    started in between counts from its start, one that ended in between
    is left out."""
    return sum(seconds - before.get(pid, 0.0) for pid, seconds in after.items())
