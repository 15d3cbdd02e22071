"""Host-speed sampling, so that timings read the same on a noisy host.

The benchmark runs on a few virtual CPUs of a shared host.  Each virtual
CPU switches, every second or so and independently of the others,
between a fast and a slow speed (the slow one about 1.6x the fast one),
as other tenants load the physical core under it.  The share of a run
spent at each speed changes from run to run, so raw wall-clock times of
identical work spread far wider than the bounds in ``BENCHMARK.json``.

``HostSpeed`` measures that speed while the workload runs.  Every
``INTERVAL_S`` a timer signal interrupts the main thread, which times a
fixed pure-Python probe (``_probe``) by its own thread CPU time, so
that time spent off the CPU does not count.  ``normalize(start, end)``
scales a wall-clock interval by ``REFERENCE_S / mean probe time`` over
the interval: the seconds the work would have taken with the probe at
``REFERENCE_S``.  The probe costs the main thread about 2% of its time,
the same on every run.  It uses no program code, so a change to the
program moves the scaled times in the same proportion as the wall-clock
ones.

Without ``cpus`` the probe runs wherever the main thread runs, which is
the CPU of work done on that thread; a sampler on a thread of its own,
pinned to that CPU, made the work migrate between CPUs at every sample.
With ``cpus`` each sample moves the main thread to the next of them for
the probe, for work spread over processes, as a server and its clients.
Use it from the main thread, which is the only one that gets signals.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

#: Seconds between samples.
INTERVAL_S = 0.05
#: Probe seconds at the reference speed: about the probe's time, when
#: it interrupts the workload, on a 2-vCPU Xeon VM at its fast speed.
#: Scaled times read about as wall-clock seconds on that VM when the
#: host leaves it alone.
REFERENCE_S = 0.00065
#: An interval with fewer samples in it is scaled by this many samples
#: nearest to its middle.
MIN_SAMPLES = 4

_KEYS = [(i % 61, i) for i in range(400)]


def _probe() -> int:
    """A fixed slice of dict, set and tuple work, about 1 ms."""
    table: dict = {}
    seen = set()
    total = 0
    for _ in range(10):
        for a, b in _KEYS:
            table[a] = table.get(a, 0) + b
            if (a, b & 7) not in seen:
                seen.add((a, b & 7))
            total += len(table)
    return total


class HostSpeed:
    """Samples the host's speed from a timer signal while entered."""

    def __init__(self, cpus: list[int] | None = None) -> None:
        self._cpus = cpus
        self._turn = 0
        self._previous = None
        #: (start, end, probe CPU seconds), appended in time order.
        self.samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self._cpus:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
            self._turn += 1
        # The probe allocates; a collection it set off would time the
        # workload's heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        cpu_start = time.thread_time()
        _probe()
        cpu_s = time.thread_time() - cpu_start
        self.samples.append((start, time.perf_counter(), cpu_s))
        if collecting:
            gc.enable()
        if self._cpus:
            os.sched_setaffinity(0, allowed)

    def probe_s(self, start: float, end: float) -> float:
        """Mean probe seconds over ``[start, end]``."""
        samples = list(self.samples)
        inside = [cpu for a, b, cpu in samples if start <= (a + b) / 2 <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle))
            inside = [cpu for _, _, cpu in nearest[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("no host-speed samples yet")
        return statistics.fmean(inside)

    def normalize(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at the reference speed."""
        return (end - start) * REFERENCE_S / self.probe_s(start, end)

    def wait_for_samples(self) -> None:
        """Block until there are enough samples to scale an interval."""
        while len(self.samples) < MIN_SAMPLES:
            time.sleep(INTERVAL_S / 2)
