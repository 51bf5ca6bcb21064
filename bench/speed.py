"""Machine speed, measured between tasks, to put timings on one scale.

A small shared host changes the speed of a virtual CPU by up to about two
times, for stretches of a few seconds to minutes, whatever runs on it: the
same loop of numpy calls takes 5 ms for a while, then 10 ms, while
back-to-back timings within a stretch agree to a few percent. A run that
happens to fall in a slow stretch then reads up to twice as slow as the same
code in a fast one, and no run length averages that out.

So the benchmark times a fixed reference kernel before the first task and
after every task, and scales each task's wall time by
``REFERENCE_S / kernel time``, with the kernel time taken as the mean of the
timings just before and just after the task.

Not all code gains alike when the host gets faster: a cache-resident loop
of small numpy calls gains most, memory-bound copies least. A kernel of the
first kind alone over-corrects the package's tasks, by up to a third on the
long recorded runs of ``curvature_sweep``. The kernel therefore mixes, in
about equal shares of time, the kinds of work the tasks do: an RK4 loop of
small numpy calls (``seekers`` and ``ode``), recording a copy of the state
at every step and stacking the copies (``integrate``), a copy of an array
larger than the caches (long traces and their fits), and small dense linear
algebra (``averaging`` and ``stability``). Timed next to every kind of
task for six minutes on such a host, an equal-share mix of these parts
followed each kind's wall time with a log-log slope between 1.0 and 1.12,
where the numpy loop alone gave 0.63 to 0.79.

The kernel lives in this file and imports nothing from the package, so a
change to the package never changes the scale. A scaled time reads in
seconds on a machine where the kernel takes ``REFERENCE_S``; the raw wall
times are kept next to it in the full record.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

#: kernel seconds on the reference machine, a shared 2-vCPU x86-64 host in
#: its usual state; scaled times are in seconds of that machine
REFERENCE_S = 0.024
#: the kernel is timed this many times in a row and the median kept, which
#: drops a stray interrupt or page fault
REPEATS = 3

_W = np.array([1.0, 2.0, 3.0, 4.0])
_X0 = np.array([0.3, -0.2, 1.1, 0.7])
#: 8 MB, larger than the caches of the host
_LARGE = np.arange(1_000_000, dtype=float)
_MATRIX = np.array([[1.0, 0.2, -0.3, 0.1], [0.4, -2.0, 0.5, 0.0],
                    [0.0, 0.3, -1.5, 0.2], [0.1, 0.0, 0.6, -0.8]])
_RHS = np.ones(4)


def _rhs(t: float, x: np.ndarray) -> np.ndarray:
    return np.cos(_W * t) * x[::-1] - 0.1 * x + math.sin(t)


def _kernel() -> float:
    x, t, h = _X0.copy(), 0.0, 0.01
    for _ in range(80):
        k1 = _rhs(t, x)
        k2 = _rhs(t + h / 2, x + h / 2 * k1)
        k3 = _rhs(t + h / 2, x + h / 2 * k2)
        k4 = _rhs(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    recorded = []
    for _ in range(2000):
        x = x + 0.001
        recorded.append(x.copy())
    trace = np.array(recorded)
    flipped = _LARGE
    for _ in range(2):
        flipped = flipped[::-1].copy()
    acc = 0.0
    for _ in range(100):
        acc += float(np.linalg.eigvals(_MATRIX).real.sum())
        acc += float(np.linalg.solve(_MATRIX, _RHS).sum())
    return float(trace.sum()) + float(flipped[0]) + acc


def kernel_s() -> float:
    """Seconds the reference kernel takes now (median of ``REPEATS``)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on the CPU it runs on
    now, so that the kernel always measures the CPU the timed work runs on."""
    try:
        # field 39 of /proc/self/stat, counted after the parenthesised name
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Scale:
    """Turns wall times into reference seconds.

    Call ``mark()`` before the first piece of timed work and after each
    one; it times the kernel. ``scaled(walls)`` then scales the ``i``-th
    wall time, made between marks ``i`` and ``i + 1``, by the mean of those
    two kernel times.
    """

    def __init__(self):
        self.kernel_times: list[float] = []

    def mark(self) -> None:
        self.kernel_times.append(kernel_s())

    def scaled(self, walls: list[float]) -> list[float]:
        k = self.kernel_times
        if len(k) != len(walls) + 1:
            raise ValueError(f"{len(walls)} wall times need {len(walls) + 1} "
                             f"marks, got {len(k)}")
        return [wall * REFERENCE_S / (0.5 * (k[i] + k[i + 1]))
                for i, wall in enumerate(walls)]
