"""A fixed reference computation, timed while an invocation runs, that rescales
the benchmark's times to one reference speed of the host.

On a shared host this process's speed changes with the neighbours' load: ten
runs of the kernel below flip between about 11 and 19 ms from one second to
the next, and drifts by up to 2x over minutes.  CPU time changes with wall
time, so it is no way round.  Operation times therefore say as much about the
host's load as about the code.

The kernel does the same kind of work as the package -- 10 x 10 matrix
exponentials by scaling and squaring, small numpy calls from a Python loop --
but uses none of its code, so a change to the package does not change the
kernel's time.  ``Probe`` times it once before an interval, every
``INTERVAL_S`` of wall time inside it (from a SIGALRM handler, whose time is
taken out of the interval's) and once after.  The samples see the same mix of
fast and slow moments as the work in the interval, and

    scaled seconds = measured seconds * mean(REFERENCE_S / kernel seconds)

is the interval's time on a host that always runs the kernel in
``REFERENCE_S``.  The mean of speeds, not of times, is the right average for
samples spread evenly over wall time.  Pure-Python work slows less under load
than numpy calls do, so the scaling leaves a few percent of the drift in.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Kernel seconds that define the reference speed: about what the kernel took
# on the 2-core machine the benchmark was built on.
REFERENCE_S = 0.002
STEPS = 20
INTERVAL_S = 0.05

_N = 10
_WEIGHTS = np.random.default_rng(0).random((_N, _N))
_LAPLACIAN = np.eye(_N) - _WEIGHTS / _WEIGHTS.sum(axis=1, keepdims=True)


def _expm(a):
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    a = a / 2.0 ** squarings
    out = term = np.eye(_N)
    for k in range(1, 14):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def kernel():
    """The reference computation; returns a checksum so that it is not idle."""
    x = np.full(_N, 0.5)
    total = 0.0
    for step in range(STEPS):
        x = np.clip(_expm(-_LAPLACIAN * (0.1 + 0.05 * (step % 7))) @ x + 0.01, 0.0, 1.0)
        x = x / max(1.0, float(x.max()))
        total += float(x.sum()) + sum(float(v) for v in x[:3])
    return total


def timed_kernel():
    """(wall, cpu) seconds of one kernel run."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall, time.process_time() - cpu


def speed(kernel_seconds):
    """Mean speed relative to the reference, from kernel times."""
    return sum(REFERENCE_S / seconds for seconds in kernel_seconds) / len(kernel_seconds)


class Probe:
    """Context manager that measures the wall and CPU seconds of the code it
    encloses, without the kernel runs it makes, and their scaled values.

    After the block: ``wall``, ``cpu``, ``scaled_wall``, ``scaled_cpu`` and
    ``samples``, the (wall, cpu) kernel times.
    """

    def _sample(self, signum=None, frame=None):
        if self._sampling:  # a signal that arrives during a kernel run
            return
        self._sampling = True
        wall, cpu = timed_kernel()
        self._sampling = False
        self.samples.append((wall, cpu))
        self._spent_wall += wall
        self._spent_cpu += cpu

    def __enter__(self):
        self.samples = []
        self._spent_wall = self._spent_cpu = 0.0
        self._sampling = False
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous)
        # The kernel runs made inside the block are not the block's time.
        self.wall = wall - self._start[0] - self._spent_wall
        self.cpu = cpu - self._start[1] - self._spent_cpu
        self._sample()
        self.scaled_wall = self.wall * speed([s[0] for s in self.samples])
        self.scaled_cpu = self.cpu * speed([s[1] for s in self.samples])
        return False
