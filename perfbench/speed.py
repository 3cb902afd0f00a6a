"""Job times adjusted to a fixed machine speed.

On a shared host a core's speed is not fixed: on the 2-vCPU KVM guest
described in README.md, the same interpreted loop runs at three speeds
(1x, ~1.5x and ~2x its fastest time), switching every 0.1 s to 20 s.  A job
timed in plain wall time then measures the neighbours as much as the
program.

``Clock`` follows the speed while a job runs.  A wall-clock timer signal
interrupts the job every ``PERIOD_S``; the handler runs a short fixed probe
twice (the first run warms the caches the job has just used) and times the
second run.  The job's probe time is the mean probe time over the job,
each probe weighted by the stretch of job time before it (a harmonic mean,
so it is the probe time at which the job's work would take its wall time).
The probe's own time is left out of the job's wall time.

Not all work slows alike: interpreted Python slows with the probe, a large
matrix-vector product in BLAS hardly at all.  So ``adjust`` fits, on one
run's jobs, how strongly the job's wall time follows the probe time
(the slope ``beta`` of log wall time on log probe time), and scales each
job to the wall time it would have taken at the probe time
``REF_PROBE_S``.  A run repeats the same job, so the jobs differ only in
the machine state they met.
"""
from __future__ import annotations

import signal
from itertools import combinations
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# the probe's median time while the workloads ran on the guest in
# README.md: adjusted times read as wall times at that guest's usual speed
REF_PROBE_S = 70e-6

_X = np.arange(8.0)


def probe():
    """Fixed work: a dict-and-float loop with a few small array ops."""
    counts = {}
    total = 0.0
    x = _X
    for i in range(150):
        k = i & 15
        counts[k] = counts.get(k, 0.0) + i * 0.5
        total += counts[k]
        if i % 10 == 0:
            x = x * 0.5 + 1.0
    return total + float(x[0])


class Clock:
    """Times one job: ``with clock: ...``, then read ``wall_s`` (wall time
    without the probes), ``probe_mean_s`` (the job's probe time, see the
    module docstring) and ``probe_s`` (time spent probing).  One job at a
    time, on the main thread."""

    def __enter__(self):
        self.wall_s = self.probe_s = self.probe_mean_s = 0.0
        self.probes = 0
        self._stretches = 0.0       # sum of stretch / probe time
        self._last = None
        self._on = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)   # restart system calls
        self._start = self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        if not self._on:     # a signal raised just before the timer stopped
            return
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        probe()
        t2 = perf_counter()
        self._last = t2 - t1
        self._stretches += (t0 - self._mark) / self._last
        self.probe_s += t2 - t0
        self.probes += 1
        self._mark = t2

    def __exit__(self, *exc):
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = perf_counter()
        if self._last is None:      # a job shorter than one period
            probe()
            t1 = perf_counter()
            probe()
            self._last = perf_counter() - t1
        self._stretches += (end - self._mark) / self._last
        self.wall_s = end - self._start - self.probe_s
        self.probe_mean_s = self.wall_s / self._stretches
        return False


def adjust(wall, probe_mean):
    """Each job's wall time at probe time ``REF_PROBE_S``: (times, beta).

    ``beta`` is the Theil-Sen slope (median of the pairwise slopes, so the
    first job's one-off costs do not pull it) of log wall time on log
    probe time, clamped to [0, 1]: from work that does not slow with the
    probe up to work that slows as much as the probe.
    """
    x, y = np.log(probe_mean), np.log(wall)
    slopes = [(y[j] - y[i]) / (x[j] - x[i])
              for i, j in combinations(range(len(x)), 2) if x[j] != x[i]]
    beta = float(np.clip(np.median(slopes), 0.0, 1.0)) if slopes else 0.0
    return np.asarray(wall) * (REF_PROBE_S / np.asarray(probe_mean)) ** beta, \
        beta
