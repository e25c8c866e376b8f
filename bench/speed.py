"""Speed probe: how fast the CPU runs the benchmark right now.

On a shared host the speed of one CPU changes by a large factor from second to
second and from minute to minute, which moves every wall and CPU time with it.
The probe measures that speed while the jobs run: a background thread wakes
every ``INTERVAL_S`` seconds and times one fixed pure-Python unit of work by
its own thread CPU time.  A job's time divided by the probe's median over the
job, times ``REFERENCE_NS``, is the job's time at a fixed reference speed.
Changes to the package move that figure as they move the raw time; shifts in
machine speed that hit the job and the probe alike cancel out.

The probe and the jobs must share one CPU (``pin_to_one_cpu``), or the probe
would time another CPU.  It costs under 1% of the CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

INTERVAL_S = 0.01
# Median unit time of the probe on an Intel Xeon (Sapphire Rapids, KVM guest,
# 2 vCPUs) under Python 3.11; reported times are scaled to this speed.
REFERENCE_NS = 27_000.0
# Below this many samples in a window the run's median speed is used instead.
MIN_SAMPLES = 5


def _unit() -> int:
    total = 0
    for i in range(400):
        total += i * i
    return total


def pin_to_one_cpu() -> int:
    """Restrict this process (and the processes it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Background sampler of the probe unit's thread CPU time."""

    def __init__(self):
        self._times: list[float] = []  # perf_counter at the end of each sample
        self._ns: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.thread_time_ns()
            _unit()
            ns = time.thread_time_ns() - t0
            self._ns.append(ns)
            self._times.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def unit_ns(self, start: float, end: float) -> tuple[float, int]:
        """Median probe unit time over samples taken in [start, end] (times
        from ``time.perf_counter``), and how many samples that was."""
        count = len(self._times)  # read once: the sampler appends as we read
        window = [self._ns[i] for i in range(count)
                  if start <= self._times[i] <= end]
        if len(window) < MIN_SAMPLES:
            return statistics.median(self._ns[:count]), len(window)
        return statistics.median(window), len(window)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured in [start, end] into a time at
        the reference speed."""
        return REFERENCE_NS / self.unit_ns(start, end)[0]
