"""Machine-speed normalisation for a CPU shared with other tenants.

On a virtual machine whose cores are shared with other tenants, the same
repetition can take twice as long from one minute to the next, with no
steal time recorded: the vCPU simply runs slower while a neighbour is
busy, in bursts from tens of milliseconds to minutes.  So a probe thread
pinned to each CPU times a fixed piece of work, in its own CPU time,
every ``EVERY_S`` seconds, alongside the workload on that CPU.  Over a
window, ``mean(REF_S / probe)`` is how many seconds of the reference
machine one second of wall time was worth; multiplying a measured time
by it gives the time in *reference seconds*: seconds on a machine where
the probe takes ``REF_S``.

The probe is a random gather over a small array, because the
workloads' slowdown follows the cache and memory contention it feels: a
pure-Python loop tracked it about half as well, and a 128 KiB array
tracked it better than a 512 KiB one.  It runs every 10 ms so that short
bursts, which make up a latency tail, are caught; probing every 50 ms
left twice the run-to-run spread in a p99.  Probing a different CPU
from the workload's does not track its slowdown at all, which is why
workloads run pinned to the CPUs that are probed.  bench/README.md has
the measurements.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

#: CPU time the probe takes on the reference machine.
REF_S = 150e-6
#: Elements of the probe's array (128 KiB of float64), gathers per probe,
#: the pause between two probes, and the shortest window a factor is
#: taken over (a shorter interval is widened around its middle).
SIZE = 1 << 14
GATHERS = 2
EVERY_S = 0.01
WINDOW_S = 0.05


class SpeedProbe:
    """Background probe threads, one pinned to each of ``cpus``."""

    def __init__(self, cpus):
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._probe, args=(cpu,), daemon=True) for cpu in cpus
        ]
        for thread in self._threads:
            thread.start()

    def _probe(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        rng = np.random.default_rng(cpu)
        source, out = rng.random(SIZE), np.empty(SIZE)
        order = rng.permutation(SIZE)
        record = self.samples[cpu].append
        while not self._stop.is_set():
            started = time.thread_time()
            for _ in range(GATHERS):
                np.take(source, order, out=out)
            record((time.perf_counter(), time.thread_time() - started))
            self._stop.wait(EVERY_S)

    def close(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self, cpus, start: float, end: float) -> float:
        """Reference seconds per wall second on ``cpus`` between two ``perf_counter`` readings.

        The mean over the probes inside the window, widened to at least
        ``WINDOW_S`` around its middle; the nearest probe when even that
        window holds none.
        """
        middle = (start + end) / 2
        start, end = min(start, middle - WINDOW_S / 2), max(end, middle + WINDOW_S / 2)
        ratios = []
        for cpu in cpus:
            samples = self.samples[cpu]
            low = bisect.bisect_left(samples, (start,))
            high = bisect.bisect_right(samples, (end, float("inf")))
            if low < high:
                ratios += [REF_S / p for _, p in samples[low:high]]
            elif samples:
                near = min(samples[max(low - 1, 0):low + 1], key=lambda s: abs(s[0] - middle))
                ratios.append(REF_S / near[1])
        return statistics.fmean(ratios) if ratios else 1.0

    def scale(self, cpus, intervals) -> list[float]:
        """Each ``(start, seconds)`` interval's duration in reference seconds."""
        return [seconds * self.factor(cpus, start, start + seconds) for start, seconds in intervals]
