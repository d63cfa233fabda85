"""Host-speed calibration.

On a shared host each CPU switches between a fast and a slow state for
seconds at a time, independently of the other CPUs: a fixed pure-Python
loop takes 1.7-2.4x longer in the slow state.  That moves wall-clock
figures by 12-25% between identical runs.  So every timed phase also
times a fixed calibration kernel — pure Python, independent of the code
under test — every ``INTERVAL`` seconds, and each measured time is
rescaled to the reference host speed at which the kernel takes
``kernel_ref_us`` (``spec.json``; the fast-state time on the host the
benchmark was written on)::

    scaled = measured * (kernel_ref / kernel_in_window) ** alpha

``kernel_in_window`` is the median kernel time within ``WINDOW`` of the
measurement.  The benchmark's own code slows less than the kernel does
(the elasticity fitted over runs that crossed both states is about 2/3,
``spec.json``'s ``alpha``); with it, the run-to-run spread of ops/s on
the in-process workloads fell from 12-15% to 1-5%.  Result files keep
the unscaled figures next to the scaled ones.

In process the kernel runs between ops, on the CPU the ops run on.
Serve's processes spread over every CPU and keep them busy, so the load
generator quiesces every ``SERVE_INTERVAL`` seconds (no request in
flight) and times the kernel on each CPU in turn; the pauses are left
out of the phase's wall time.  This tracks serve less well: part of a
request's latency (the batching window, socket and pipe wake-ups) does
not scale with CPU speed, and serve-mixed kept a 6-11% spread.  Kernel
time is thread CPU time, so being preempted does not read as a slow
host.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import time
from typing import List, Tuple

clock = time.perf_counter

#: Seconds between kernel samples.
INTERVAL = 0.05
#: Width of the window whose median kernel time rescales a measurement.
WINDOW = 0.5
#: Seconds between the quiesced host samples of the serve workload.
SERVE_INTERVAL = 0.5


def _step(a: int, b: int) -> int:
    return (a ^ b) & 7


def kernel() -> int:
    """A fixed pure-Python workload of the kind the interpreter tiers do:
    calls, dict and list traffic, tuple packing."""
    env: dict = {}
    stack: list = []
    acc = 0
    for i in range(1200):
        key = i & 31
        env[key] = env.get(key, 0) + i
        stack.append((i, key))
        if len(stack) > 8:
            a, b = stack.pop()
            acc += _step(a, b)
    return acc


def sample() -> Tuple[float, float]:
    """``(end time, kernel CPU seconds)`` for one kernel run."""
    c0 = time.thread_time()
    kernel()
    return clock(), time.thread_time() - c0


class Speed:
    """Kernel samples of one timed phase and the rescaling they imply."""

    def __init__(self, calibration: dict):
        self.ref = calibration["kernel_ref_us"] * 1e-6
        self.alpha = calibration["alpha"]
        self.samples: List[Tuple[float, float]] = []
        self.last = float("-inf")

    def maybe_sample(self, now: float) -> None:
        if now - self.last >= INTERVAL:
            self.samples.append(sample())
            self.last = clock()

    def factor(self, kernel_s: float) -> float:
        return (self.ref / kernel_s) ** self.alpha

    def factor_over(self, t0: float, t1: float) -> float:
        """The rescaling factor for a measurement between ``t0`` and
        ``t1``, from the kernel samples in that span (or the nearest)."""
        ts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(ts, t0)
        hi = bisect.bisect_right(ts, t1)
        if lo == hi:
            lo = min(lo, len(ts) - 1)
            hi = lo + 1
        return self.factor(statistics.median(
            d for _, d in self.samples[lo:hi]))

    def factors(self, times: List[float]) -> List[float]:
        """The rescaling factor for each of ``times``."""
        self.samples.sort()
        return [self.factor_over(t - WINDOW / 2, t + WINDOW / 2)
                for t in times]

    def kernel_us(self) -> float:
        return 1e6 * statistics.median(d for _, d in self.samples)


def host_sample() -> Tuple[float, float]:
    """``(time, kernel seconds)`` averaged over every CPU this process may
    use, the fastest of two runs on each.  Call it only while the
    benchmark's own processes are idle (serve quiesced)."""
    cpus = os.sched_getaffinity(0)
    try:
        durations = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            durations.append(min(sample()[1] for _ in range(2)))
    except OSError:  # pinning refused: the current CPU stands for all
        durations = [min(sample()[1] for _ in range(2))]
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)
    return clock(), statistics.mean(durations)
